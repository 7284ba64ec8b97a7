//! Old-vs-new sweep-kernel equivalence: the environment-sweep kernel in
//! `synthesis::sweep` was rewritten from dense embed-and-multiply products
//! into in-place 4×4 row/column applications over preallocated buffers.
//! The rewrite claims *bit-identical* arithmetic: every accumulation keeps
//! `CMat::mul_mat`'s order (inner index ascending from `+0`), and only
//! products with an exactly-zero factor are dropped, which cannot change
//! an accumulator that starts at `+0`. This suite freezes the **dense
//! kernel** verbatim (below) and pins that claim:
//!
//! * a proptest over Haar targets on 2 and 3 qubits × structures of 1–7
//!   blocks (reversed pairs like `(2, 0)` included) × both the search's
//!   probe budget (80 sweeps, 1 restart) and `SweepOptions::default()`,
//!   asserting every block's `fingerprint()`, the infidelity's bits and
//!   the sweep count agree;
//! * named pins: `synthesize` on every built-in template IR, at the
//!   compiler's library budget, returns blocks bit-identical to a search
//!   driven by the frozen kernel.
//!
//! Bit-identity is what keeps `SearchOptions::fingerprint`, the store
//! format and every memoized synthesis entry valid across the rewrite.

use proptest::prelude::*;
use reqisc::qmath::{haar_unitary, CMat};
use reqisc::synthesis::{
    builtin_irs, instantiate, structures, synthesize, BlockCircuit, SearchOptions, SweepOptions,
    SweepResult,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The dense sweep kernel, frozen at its last form before the in-place
/// rewrite: prefix/suffix vectors of embedded 8×8 products, the
/// environment as a partial trace of the full `R_k·U†·L_{k+1}`, and the
/// per-sweep infidelity from a fresh `BlockCircuit`. Kept verbatim as the
/// behavioural reference — do not "optimize" it.
mod legacy_sweep {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use reqisc::qcircuit::embed;
    use reqisc::qmath::{haar_unitary, polar_unitary, CMat};
    use reqisc::synthesis::{
        structures, BlockCircuit, SearchOptions, SweepOptions, SweepResult,
    };

    pub fn instantiate(
        target: &CMat,
        structure: &[(usize, usize)],
        num_qubits: usize,
        opts: &SweepOptions,
    ) -> SweepResult {
        let dim = 1usize << num_qubits;
        assert_eq!(target.rows(), dim, "target dimension mismatch");
        for &(a, b) in structure {
            assert!(a < num_qubits && b < num_qubits && a != b, "bad pair ({a},{b})");
        }
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut best: Option<SweepResult> = None;
        for restart in 0..=opts.restarts {
            let init: Vec<CMat> = if restart == 0 {
                vec![CMat::identity(4); structure.len()]
            } else {
                (0..structure.len()).map(|_| haar_unitary(4, &mut rng)).collect()
            };
            let r = sweep_once(target, structure, num_qubits, init, opts);
            let better = best.as_ref().is_none_or(|b| r.infidelity < b.infidelity);
            if better {
                best = Some(r);
            }
            if best.as_ref().unwrap().infidelity <= opts.target_infidelity {
                break;
            }
        }
        best.expect("at least one restart ran")
    }

    fn sweep_once(
        target: &CMat,
        structure: &[(usize, usize)],
        num_qubits: usize,
        mut blocks: Vec<CMat>,
        opts: &SweepOptions,
    ) -> SweepResult {
        let dim = 1usize << num_qubits;
        let m = structure.len();
        let udag = target.adjoint();
        let mut sweeps = 0;
        let mut last = f64::INFINITY;
        for s in 0..opts.max_sweeps {
            sweeps = s + 1;
            let mut prefix = vec![CMat::identity(dim)];
            for k in 0..m {
                let g = embed(&blocks[k], &[structure[k].0, structure[k].1], num_qubits);
                prefix.push(g.mul_mat(&prefix[k]));
            }
            let mut suffix = vec![CMat::identity(dim); m + 1];
            for k in (0..m).rev() {
                let g = embed(&blocks[k], &[structure[k].0, structure[k].1], num_qubits);
                suffix[k] = suffix[k + 1].mul_mat(&g);
            }
            for k in 0..m {
                let mmat = prefix[k].mul_mat(&udag).mul_mat(&suffix[k + 1]);
                let env = partial_trace_env(&mmat, structure[k], num_qubits);
                blocks[k] = polar_unitary(&env.conj());
                let g = embed(&blocks[k], &[structure[k].0, structure[k].1], num_qubits);
                prefix[k + 1] = g.mul_mat(&prefix[k]);
            }
            let c = BlockCircuit {
                num_qubits,
                blocks: structure.iter().copied().zip(blocks.iter().cloned()).collect(),
            };
            let inf = c.infidelity(target);
            if inf <= opts.target_infidelity || (last - inf).abs() < 1e-16 {
                return SweepResult { circuit: c, infidelity: inf, sweeps };
            }
            last = inf;
        }
        let c = BlockCircuit {
            num_qubits,
            blocks: structure.iter().copied().zip(blocks.iter().cloned()).collect(),
        };
        let inf = c.infidelity(target);
        SweepResult { circuit: c, infidelity: inf, sweeps }
    }

    fn partial_trace_env(m: &CMat, pair: (usize, usize), num_qubits: usize) -> CMat {
        let n = num_qubits;
        let shifts = [n - 1 - pair.0, n - 1 - pair.1];
        let rest: Vec<usize> = (0..n)
            .filter(|&q| q != pair.0 && q != pair.1)
            .map(|q| n - 1 - q)
            .collect();
        let mut env = CMat::zeros(4, 4);
        for ctx in 0..(1usize << rest.len()) {
            let mut base = 0usize;
            for (bi, &sh) in rest.iter().enumerate() {
                if (ctx >> bi) & 1 == 1 {
                    base |= 1 << sh;
                }
            }
            for i in 0..4usize {
                let row_i = base | (((i >> 1) & 1) << shifts[0]) | ((i & 1) << shifts[1]);
                for j in 0..4usize {
                    let row_j = base | (((j >> 1) & 1) << shifts[0]) | ((j & 1) << shifts[1]);
                    env[(i, j)] += m[(row_j, row_i)];
                }
            }
        }
        env
    }

    /// `reqisc_synthesis::synthesize` over the frozen kernel (same probe
    /// and escalation budget, same structure order).
    pub fn synthesize(
        target: &CMat,
        num_qubits: usize,
        opts: &SearchOptions,
    ) -> Option<BlockCircuit> {
        let dim = target.rows() as f64;
        if (1.0 - target.trace().abs() / dim) < opts.threshold {
            return Some(BlockCircuit { num_qubits, blocks: Vec::new() });
        }
        let probe = SweepOptions {
            max_sweeps: 80,
            target_infidelity: opts.threshold,
            restarts: 1,
            seed: opts.sweep.seed,
        };
        for m in 1..=opts.max_blocks {
            let mut best: Option<BlockCircuit> = None;
            let mut best_inf = f64::INFINITY;
            for s in structures(num_qubits, m) {
                let r = instantiate(target, &s, num_qubits, &probe);
                let r = if r.infidelity > opts.threshold && r.infidelity < 1e-3 {
                    instantiate(target, &s, num_qubits, &opts.sweep)
                } else {
                    r
                };
                if r.infidelity < best_inf {
                    best_inf = r.infidelity;
                    best = Some(r.circuit);
                }
                if best_inf <= opts.threshold {
                    break;
                }
            }
            if best_inf <= opts.threshold {
                return best;
            }
        }
        None
    }
}

/// The search's cheap probe budget: the non-converging shape behind most
/// sweeps of a cold compile.
fn probe_options() -> SweepOptions {
    SweepOptions { max_sweeps: 80, restarts: 1, ..SweepOptions::default() }
}

fn assert_same_blocks(new: &BlockCircuit, old: &BlockCircuit, what: &str) {
    assert_eq!(new.num_qubits, old.num_qubits, "{what}: width");
    assert_eq!(new.blocks.len(), old.blocks.len(), "{what}: block count");
    for (k, (n, o)) in new.blocks.iter().zip(&old.blocks).enumerate() {
        assert_eq!(n.0, o.0, "{what}: pair of block {k}");
        assert_eq!(n.1.fingerprint(), o.1.fingerprint(), "{what}: bits of block {k}");
    }
}

fn assert_same_result(new: &SweepResult, old: &SweepResult, what: &str) {
    assert_same_blocks(&new.circuit, &old.circuit, what);
    assert_eq!(new.infidelity.to_bits(), old.infidelity.to_bits(), "{what}: infidelity bits");
    assert_eq!(new.sweeps, old.sweeps, "{what}: sweep count");
}

/// A structure of `len` blocks on `num_qubits` qubits drawn from `seed`,
/// over every *ordered* pair, so reversed pairs such as `(2, 0)` occur.
fn random_structure(num_qubits: usize, len: usize, seed: u64) -> Vec<(usize, usize)> {
    let pairs: Vec<(usize, usize)> = (0..num_qubits)
        .flat_map(|a| (0..num_qubits).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            pairs[(state >> 33) as usize % pairs.len()]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random Haar targets × random structures × both budgets: the
    /// in-place kernel reproduces the frozen dense kernel bit for bit.
    #[test]
    fn instantiate_matches_frozen_dense_kernel(
        seed in 0u64..1_000_000,
        three_qubits in 0u8..2,
        len in 1usize..8,
        probe in 0u8..2,
    ) {
        let n = if three_qubits == 1 { 3 } else { 2 };
        let mut rng = StdRng::seed_from_u64(seed);
        let target = haar_unitary(1 << n, &mut rng);
        let structure = random_structure(n, len, seed);
        let opts = if probe == 1 { probe_options() } else { SweepOptions::default() };
        let what = format!("seed {seed}, n {n}, structure {structure:?}, probe {probe}");
        let new = instantiate(&target, &structure, n, &opts);
        let old = legacy_sweep::instantiate(&target, &structure, n, &opts);
        assert_same_result(&new, &old, &what);
    }
}

/// Every pair order on 3 qubits, as single blocks and as a long mixed
/// structure, under both budgets.
#[test]
fn reversed_and_mixed_pairs_match_frozen_kernel() {
    let mut rng = StdRng::seed_from_u64(41);
    let target = haar_unitary(8, &mut rng);
    let mixed = vec![(2, 0), (0, 1), (2, 1), (1, 0), (0, 2), (1, 2), (2, 0)];
    let mut cases: Vec<Vec<(usize, usize)>> = mixed.iter().map(|&p| vec![p]).collect();
    cases.push(mixed);
    for structure in &cases {
        for opts in [probe_options(), SweepOptions::default()] {
            let what = format!("{structure:?}, max_sweeps {}", opts.max_sweeps);
            let new = instantiate(&target, structure, 3, &opts);
            let old = legacy_sweep::instantiate(&target, structure, 3, &opts);
            assert_same_result(&new, &old, &what);
        }
    }
}

/// A converging case, an exhausted budget and the zero-sweep and
/// zero-block edges take every exit of the sweep loop.
#[test]
fn loop_exits_match_frozen_kernel() {
    let mut rng = StdRng::seed_from_u64(43);
    let target = haar_unitary(8, &mut rng);
    let converge = structures(3, 6).swap_remove(17);
    let tight = SweepOptions { max_sweeps: 3, restarts: 0, ..SweepOptions::default() };
    let none = SweepOptions { max_sweeps: 0, ..SweepOptions::default() };
    let cases: [(&[(usize, usize)], SweepOptions); 4] = [
        (&converge, SweepOptions::default()),
        (&converge, tight),
        (&converge, none),
        (&[], SweepOptions::default()),
    ];
    for (structure, opts) in cases {
        let what = format!("{structure:?}, max_sweeps {}", opts.max_sweeps);
        let new = instantiate(&target, structure, 3, &opts);
        let old = legacy_sweep::instantiate(&target, structure, 3, &opts);
        assert_same_result(&new, &old, &what);
    }
}

/// Named pins: each built-in template IR synthesizes, at the compiler's
/// library budget (`Compiler::builtin_library`), to exactly the blocks
/// the frozen kernel finds — which is what keeps the template library,
/// and everything compiled against it, unchanged.
#[test]
fn builtin_irs_synthesize_identically() {
    let mut opts = SearchOptions::default();
    opts.sweep.restarts = 3;
    for (name, circ) in builtin_irs() {
        let u: CMat = circ.unitary();
        let new = synthesize(&u, 3, &opts).unwrap_or_else(|| panic!("{name} must synthesize"));
        let old = legacy_sweep::synthesize(&u, 3, &opts).expect("legacy synthesizes too");
        assert_same_blocks(&new, &old, &name);
    }
}
