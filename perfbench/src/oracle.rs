//! State-vector oracle: a compiled (and routed) program must act on random
//! input states exactly as its source program does, up to one global
//! phase.
//!
//! The reference is the source circuit run gate by gate through
//! `reqisc_qsim`, never the compiler's own output. Each check draws
//! [`STATES`] random states; the overlap of every output with its reference
//! must have modulus 1, and the phases of those overlaps must agree, since a
//! correct compilation differs from its source by one phase for all inputs.
//! Routed circuits act on physical qubits: the input is placed by the
//! router's initial mapping and the reference read back through its final
//! mapping, with every unused physical qubit in |0⟩.

use rand::rngs::StdRng;
use rand::Rng;
use reqisc_compiler::Routed;
use reqisc_qcircuit::Circuit;
use reqisc_qmath::c64::{C64, ZERO};
use reqisc_qsim::StateVector;

/// Random input states per check (two are needed to cross-check the phase).
pub(crate) const STATES: usize = 2;

/// Largest allowed `1 - |⟨reference|output⟩|`. Block synthesis converges
/// to ~1e-11 process infidelity per block; a wrong gate costs far more.
pub(crate) const OVERLAP_TOL: f64 = 1e-6;

/// Largest allowed spread, in radians, of the global phase across states.
/// A small unitary error `e^{iεH}` moves an overlap's phase by O(ε) but its
/// modulus only by O(ε²), so the phase tolerance is the square root of
/// [`OVERLAP_TOL`].
pub(crate) const PHASE_TOL: f64 = 1e-3;

/// A Haar-like random state: independent complex Gaussian amplitudes,
/// normalised.
pub(crate) fn random_state(n: usize, rng: &mut StdRng) -> StateVector {
    let mut gauss = || {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let v: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u.ln()).sqrt();
        let t = std::f64::consts::TAU * v;
        C64::new(r * t.cos(), r * t.sin())
    };
    let mut amps: Vec<C64> = (0..1usize << n).map(|_| gauss()).collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = *a / norm;
    }
    StateVector::from_amplitudes(amps)
}

/// `⟨a|b⟩`.
fn inner(a: &StateVector, b: &StateVector) -> C64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| x.conj() * *y)
        .sum()
}

/// Places logical qubit `l` of `s` on physical qubit `mapping[l]` of an
/// `n_phys`-qubit register whose other qubits are |0⟩. Qubit 0 is the most
/// significant index bit, as in `reqisc_qsim`.
fn embed(s: &StateVector, mapping: &[usize], n_phys: usize) -> StateVector {
    let n = s.num_qubits();
    let mut amps = vec![ZERO; 1usize << n_phys];
    for (i, a) in s.amplitudes().iter().enumerate() {
        let mut j = 0usize;
        for (l, &p) in mapping.iter().enumerate() {
            if (i >> (n - 1 - l)) & 1 == 1 {
                j |= 1 << (n_phys - 1 - p);
            }
        }
        amps[j] = *a;
    }
    StateVector::from_amplitudes(amps)
}

/// Checks that the phases of `overlaps` are unit-modulus and agree.
fn judge(what: &str, overlaps: &[C64]) -> Result<(), String> {
    for o in overlaps {
        if 1.0 - o.abs() > OVERLAP_TOL {
            return Err(format!("{what}: |overlap| = {:.12}", o.abs()));
        }
    }
    let phase0 = overlaps[0].arg();
    for o in &overlaps[1..] {
        let d = (o.arg() - phase0 + std::f64::consts::PI).rem_euclid(std::f64::consts::TAU)
            - std::f64::consts::PI;
        if d.abs() > PHASE_TOL {
            return Err(format!(
                "{what}: global phase differs by {d:.3e} rad across inputs"
            ));
        }
    }
    Ok(())
}

/// Checks `compiled` and its routing `routed` against `source`.
///
/// # Errors
///
/// A description of the first mismatch.
pub(crate) fn check(
    source: &Circuit,
    compiled: &Circuit,
    routed: &Routed,
    rng: &mut StdRng,
) -> Result<(), String> {
    let n = source.num_qubits();
    let n_phys = routed.circuit.num_qubits();
    let mut logical = Vec::with_capacity(STATES);
    let mut physical = Vec::with_capacity(STATES);
    for _ in 0..STATES {
        let input = random_state(n, rng);
        let mut reference = input.clone();
        reference.run(source);
        let mut out = input.clone();
        out.run(compiled);
        logical.push(inner(&reference, &out));
        let mut out_phys = embed(&input, &routed.initial_mapping, n_phys);
        out_phys.run(&routed.circuit);
        let expected = embed(&reference, &routed.final_mapping, n_phys);
        physical.push(inner(&expected, &out_phys));
    }
    judge("compiled", &logical)?;
    judge("routed", &physical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use reqisc_compiler::{route, RouteOptions, Topology};
    use reqisc_qcircuit::Gate;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::H(0));
        for q in 1..n {
            c.push(Gate::Cx(0, q));
        }
        c
    }

    #[test]
    fn accepts_a_correct_routing_and_rejects_a_wrong_program() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = ghz(5);
        let topo = Topology::chain(6);
        let routed = route(&c, &topo, &RouteOptions::default());
        assert_eq!(check(&c, &c, &routed, &mut rng), Ok(()));
        let mut wrong = c.clone();
        wrong.push(Gate::Z(3));
        assert!(check(&c, &wrong, &routed, &mut rng).is_err());
        // A relative phase on one branch only: every input still maps to a
        // state of modulus 1 only if the phase were global.
        let mut phased = c.clone();
        phased.push(Gate::S(0));
        assert!(check(&c, &phased, &routed, &mut rng).is_err());
    }
}
