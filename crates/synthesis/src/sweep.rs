//! Environment-sweep instantiation of SU(4)-block circuits.
//!
//! Given a target `2^n × 2^n` unitary and a fixed *structure* (an ordered
//! list of qubit pairs, each carrying one arbitrary SU(4) block), the sweep
//! alternately re-optimizes each block in closed form: with all other
//! blocks fixed, the fidelity `Re Tr(U†·C)` is linear in the block, and the
//! optimal block is the unitary polar factor of its "environment" matrix.
//! This is the numerical engine behind the paper's approximate synthesis
//! (§5.1.1), reaching machine-precision infidelity when the structure is
//! expressive enough.
//!
//! Cost per block per sweep, on a `d = 2^n` register: one dense product
//! `P = R_k·U†` (`d³`), the `4d` entries of `P·L_{k+1}` the environment
//! reads (`4d²`), the polar factor of a 4×4, and two in-place 4×4
//! applications to pair indices (`4d²` each): the suffix `L_k =
//! L_{k+1}·emb(G_k)` at sweep start and the prefix `R_{k+1} =
//! emb(G_k)·R_k` after the update. No block is embedded into a dense
//! `d × d` matrix, and the sweep's infidelity is read off the final `R`
//! (the circuit unitary) instead of a per-sweep [`BlockCircuit`]. All
//! buffers are allocated once per [`instantiate`] call. The arithmetic is
//! bit-identical to the dense embed-and-multiply formulation (see
//! `Kernel`).

// lint:allow-file(tolerance-literal, sweep dedup epsilon local to synthesis)
use rand::rngs::StdRng;
use rand::SeedableRng;
use reqisc_qcircuit::embed;
use reqisc_qmath::c64::{ONE, ZERO};
use reqisc_qmath::{haar_unitary, polar_unitary, CMat, C64};

/// An ordered list of qubit pairs, one per SU(4) block.
pub type Structure = Vec<(usize, usize)>;

/// A structure instantiated with concrete SU(4) blocks.
#[derive(Debug, Clone)]
pub struct BlockCircuit {
    /// Register width.
    pub num_qubits: usize,
    /// `(pair, block)` in execution order.
    pub blocks: Vec<((usize, usize), CMat)>,
}

impl BlockCircuit {
    /// The full unitary `G_{m-1}···G_0` of the block sequence.
    pub fn unitary(&self) -> CMat {
        let dim = 1usize << self.num_qubits;
        let mut u = CMat::identity(dim);
        for ((a, b), g) in &self.blocks {
            u = embed(g, &[*a, *b], self.num_qubits).mul_mat(&u);
        }
        u
    }

    /// Number of SU(4) blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the circuit has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Process infidelity `1 − |Tr(target†·C)|/2^n` against a target.
    pub fn infidelity(&self, target: &CMat) -> f64 {
        let dim = 1usize << self.num_qubits;
        (1.0 - target.hs_inner(&self.unitary()).abs() / dim as f64).max(0.0)
    }

    /// Encodes the block circuit for the persistent compile store
    /// (deterministic, bit-exact — see `reqisc_qmath::bytes`).
    pub fn encode_into(&self, w: &mut reqisc_qmath::ByteWriter) {
        w.put_usize(self.num_qubits);
        w.put_usize(self.blocks.len());
        for ((a, b), m) in &self.blocks {
            w.put_usize(*a);
            w.put_usize(*b);
            reqisc_qmath::bytes::write_cmat(w, m);
        }
    }

    /// Decodes a block circuit, validating pair indices against the
    /// declared width.
    ///
    /// # Errors
    ///
    /// [`reqisc_qmath::CodecError`] on truncation or out-of-range qubits.
    pub fn decode_from(
        r: &mut reqisc_qmath::ByteReader<'_>,
    ) -> Result<Self, reqisc_qmath::CodecError> {
        let num_qubits = r.get_usize()?;
        if num_qubits > 64 {
            return Err(reqisc_qmath::CodecError::new(format!(
                "implausible block-circuit width {num_qubits}"
            )));
        }
        let n = r.get_count(16)?;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.get_usize()?;
            let b = r.get_usize()?;
            if a >= num_qubits || b >= num_qubits || a == b {
                return Err(reqisc_qmath::CodecError::new(format!(
                    "block pair ({a}, {b}) invalid for width {num_qubits}"
                )));
            }
            let m = reqisc_qmath::bytes::read_cmat(r)?;
            if m.rows() != 4 || m.cols() != 4 {
                return Err(reqisc_qmath::CodecError::new("SU(4) block must be 4x4"));
            }
            blocks.push(((a, b), m));
        }
        Ok(Self { num_qubits, blocks })
    }
}

/// Result of one instantiation attempt.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The optimized blocks.
    pub circuit: BlockCircuit,
    /// Final process infidelity against the target.
    pub infidelity: f64,
    /// Sweeps executed.
    pub sweeps: usize,
}

/// Options for [`instantiate`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Maximum alternating sweeps per restart.
    pub max_sweeps: usize,
    /// Stop when infidelity falls below this.
    pub target_infidelity: f64,
    /// Random restarts (the first start is always identity blocks).
    pub restarts: usize,
    /// RNG seed for the random restarts.
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self { max_sweeps: 300, target_infidelity: 1e-11, restarts: 4, seed: 7 }
    }
}

/// Optimizes the blocks of `structure` to approximate `target` on
/// `num_qubits` qubits.
///
/// # Panics
///
/// Panics if `target` is not `2^num_qubits`-dimensional or a pair index is
/// out of range.
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
    let mut kernel = Kernel::new(target, structure, num_qubits);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut best: Option<SweepResult> = None;
    for restart in 0..=opts.restarts {
        let init: Vec<CMat> = if restart == 0 {
            vec![CMat::identity(4); structure.len()]
        } else {
            (0..structure.len()).map(|_| haar_unitary(4, &mut rng)).collect()
        };
        let r = kernel.sweep_once(init, opts);
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

/// Register indices of one block's pair, built once per run.
///
/// `idx[ctx][l]` is the register index of local block index `l` in
/// context `ctx` (the other qubits' bits, enumerated as `embed` does);
/// `sorted[ctx]` holds the same four `(register index, l)` in ascending
/// register order — the inner-index order `CMat::mul_mat` accumulates in.
struct PairTable {
    idx: Vec<[usize; 4]>,
    sorted: Vec<[(usize, usize); 4]>,
}

impl PairTable {
    fn new(pair: (usize, usize), num_qubits: usize) -> Self {
        let n = num_qubits;
        let shifts = [n - 1 - pair.0, n - 1 - pair.1];
        let rest: Vec<usize> = (0..n)
            .filter(|&q| q != pair.0 && q != pair.1)
            .map(|q| n - 1 - q)
            .collect();
        let idx: Vec<[usize; 4]> = (0..1usize << rest.len())
            .map(|ctx| {
                let base = rest
                    .iter()
                    .enumerate()
                    .filter(|&(bi, _)| (ctx >> bi) & 1 == 1)
                    .fold(0usize, |acc, (_, &sh)| acc | 1 << sh);
                std::array::from_fn(|l| base | ((l >> 1) & 1) << shifts[0] | (l & 1) << shifts[1])
            })
            .collect();
        let sorted = idx
            .iter()
            .map(|ix| {
                let mut s: [(usize, usize); 4] = std::array::from_fn(|l| (ix[l], l));
                s.sort_unstable();
                s
            })
            .collect();
        Self { idx, sorted }
    }

    /// Environment of the block between prefix product `P = R_k·U†` and
    /// suffix `L = L_{k+1}`: `N[i][j] = Σ_ctx (P·L)[(ctx,j)][(ctx,i)]`, so
    /// that `Tr(emb(B)·P·L) = Σ_ij B_ij·N_ij`. Only these `4·dim` entries
    /// of `P·L` are formed, each summed over the inner index ascending as
    /// `CMat::mul_mat` would, then over contexts in enumeration order.
    fn environment(&self, p: &CMat, l: &CMat) -> [[C64; 4]; 4] {
        let dim = p.rows();
        let (p, l) = (p.as_slice(), l.as_slice());
        let mut env = [[ZERO; 4]; 4];
        for ix in &self.idx {
            for j in 0..4 {
                // Row `(ctx,j)` of `P·L` at the four columns `(ctx,i)`.
                let mut acc = [ZERO; 4];
                for (r, &a) in p[ix[j] * dim..(ix[j] + 1) * dim].iter().enumerate() {
                    let lrow = &l[r * dim..(r + 1) * dim];
                    for (acc, &col) in acc.iter_mut().zip(ix) {
                        *acc += a * lrow[col];
                    }
                }
                for (i, acc) in acc.into_iter().enumerate() {
                    env[i][j] += acc;
                }
            }
        }
        env
    }

    /// `out = emb(g)·r`: each output row mixes the four rows of its
    /// context, in ascending register order.
    fn apply_rows(&self, g: &CMat, r: &CMat, out: &mut CMat) {
        let dim = r.rows();
        let src = r.as_slice();
        let dst = out.as_mut_slice();
        for (ix, sorted) in self.idx.iter().zip(&self.sorted) {
            for (lo, &row) in ix.iter().enumerate() {
                let orow = &mut dst[row * dim..(row + 1) * dim];
                orow.fill(ZERO);
                for &(t, lt) in sorted {
                    let a = g[(lo, lt)];
                    if a.re == 0.0 && a.im == 0.0 {
                        continue;
                    }
                    for (o, &b) in orow.iter_mut().zip(&src[t * dim..(t + 1) * dim]) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// `out = l·emb(g)`: each output column mixes the four columns of its
    /// context, in ascending register order.
    fn apply_cols(&self, g: &CMat, l: &CMat, out: &mut CMat) {
        let dim = l.rows();
        let src = l.as_slice();
        let dst = out.as_mut_slice();
        for i in 0..dim {
            let (srow, orow) = (&src[i * dim..(i + 1) * dim], &mut dst[i * dim..(i + 1) * dim]);
            for (ix, sorted) in self.idx.iter().zip(&self.sorted) {
                let mut acc = [ZERO; 4];
                for &(t, lt) in sorted {
                    let a = srow[t];
                    for (lo, acc) in acc.iter_mut().enumerate() {
                        *acc += a * g[(lt, lo)];
                    }
                }
                for (acc, &col) in acc.into_iter().zip(ix) {
                    orow[col] = acc;
                }
            }
        }
    }
}

/// Preallocated state of one [`instantiate`] run, reused across restarts
/// and sweeps.
///
/// The fidelity `Tr(U†·G_{m-1}···G_0)` is linear in block `k` with
/// environment read off `P = R_k·U†` and `L_{k+1}`, where
/// `R_k = G_{k-1}···G_0` and `L_{k+1} = G_{m-1}···G_{k+1}`. A sweep builds
/// the suffixes from the blocks it starts with, then walks `k` upward,
/// replacing block `k` and advancing `R`; after the last block `R` is the
/// circuit unitary, so the sweep's infidelity needs no second product.
///
/// Every sum accumulates from `+0` over the inner index ascending, exactly
/// as `CMat::mul_mat`. The dense products this replaces also add terms
/// with an exactly-zero factor (the zeros of an embedded block); those are
/// left out here, which never changes an accumulator that starts at `+0`,
/// since such an accumulator can never become `−0`. The results are
/// therefore bit-identical to the dense embed-and-multiply formulation.
struct Kernel<'a> {
    target: &'a CMat,
    udag: CMat,
    num_qubits: usize,
    structure: &'a [(usize, usize)],
    tables: Vec<PairTable>,
    /// `R_k`, and the buffer `R_{k+1}` is written into.
    r: CMat,
    r_next: CMat,
    /// `P = R_k·U†`.
    p: CMat,
    /// `suffix[k] = L_{k+1}`; `suffix[m-1]` stays the identity.
    suffix: Vec<CMat>,
}

impl<'a> Kernel<'a> {
    fn new(target: &'a CMat, structure: &'a [(usize, usize)], num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        Self {
            target,
            udag: target.adjoint(),
            num_qubits,
            structure,
            tables: structure.iter().map(|&p| PairTable::new(p, num_qubits)).collect(),
            r: CMat::zeros(dim, dim),
            r_next: CMat::zeros(dim, dim),
            p: CMat::zeros(dim, dim),
            suffix: vec![CMat::identity(dim); structure.len()],
        }
    }

    /// One restart: alternating sweeps from `blocks` until converged,
    /// stalled or out of budget.
    fn sweep_once(&mut self, mut blocks: Vec<CMat>, opts: &SweepOptions) -> SweepResult {
        let m = blocks.len();
        let mut sweeps = 0;
        let mut last = f64::INFINITY;
        let mut inf = None;
        for s in 0..opts.max_sweeps {
            sweeps = s + 1;
            for k in (0..m.saturating_sub(1)).rev() {
                let (lo, hi) = self.suffix.split_at_mut(k + 1);
                self.tables[k + 1].apply_cols(&blocks[k + 1], &hi[0], &mut lo[k]);
            }
            self.reset_r();
            for k in 0..m {
                self.r.mul_mat_into(&self.udag, &mut self.p);
                let env = self.tables[k].environment(&self.p, &self.suffix[k]);
                // Optimal block maximizing Re Tr(B·envᵀ) = Re Tr((conj(env))†·B):
                // the unitary polar factor of conj(env).
                blocks[k] = polar_unitary(&CMat::from_fn(4, 4, |i, j| env[i][j].conj()));
                self.tables[k].apply_rows(&blocks[k], &self.r, &mut self.r_next);
                std::mem::swap(&mut self.r, &mut self.r_next);
            }
            let now = self.infidelity_of_r();
            inf = Some(now);
            if now <= opts.target_infidelity || (last - now).abs() < 1e-16 {
                break;
            }
            last = now;
        }
        let circuit = BlockCircuit {
            num_qubits: self.num_qubits,
            blocks: self.structure.iter().copied().zip(blocks).collect(),
        };
        // Only a zero-sweep budget leaves the start blocks unevaluated.
        let infidelity = inf.unwrap_or_else(|| circuit.infidelity(self.target));
        SweepResult { circuit, infidelity, sweeps }
    }

    fn reset_r(&mut self) {
        let dim = self.r.rows();
        let r = self.r.as_mut_slice();
        r.fill(ZERO);
        for i in 0..dim {
            r[i * dim + i] = ONE;
        }
    }

    /// `1 − |Tr(U†·R)|/2^n` for the `R` a full sweep leaves.
    fn infidelity_of_r(&self) -> f64 {
        let dim = self.r.rows();
        (1.0 - self.target.hs_inner(&self.r).abs() / dim as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use reqisc_qmath::gates as qg;

    #[test]
    fn single_block_recovers_su4_target() {
        // A 2Q target with a single block must reach machine precision in
        // one polar update.
        let mut rng = StdRng::seed_from_u64(3);
        let target = haar_unitary(4, &mut rng);
        let r = instantiate(&target, &[(0, 1)], 2, &SweepOptions::default());
        assert!(r.infidelity < 1e-12, "infidelity {}", r.infidelity);
    }

    #[test]
    fn product_of_two_blocks_on_3q() {
        // Target built from a known 2-block structure is exactly recovered.
        let mut rng = StdRng::seed_from_u64(5);
        let g1 = haar_unitary(4, &mut rng);
        let g2 = haar_unitary(4, &mut rng);
        let target = embed(&g2, &[1, 2], 3).mul_mat(&embed(&g1, &[0, 1], 3));
        let r = instantiate(&target, &[(0, 1), (1, 2)], 3, &SweepOptions::default());
        assert!(r.infidelity < 1e-10, "infidelity {}", r.infidelity);
    }

    #[test]
    fn ccx_with_five_blocks() {
        // Toffoli is synthesizable with 5 arbitrary 2Q gates.
        let mut c = reqisc_qcircuit::Circuit::new(3);
        c.push(reqisc_qcircuit::Gate::Ccx(0, 1, 2));
        let target = c.unitary();
        let structure = vec![(1, 2), (0, 2), (1, 2), (0, 2), (0, 1)];
        let r = instantiate(&target, &structure, 3, &SweepOptions::default());
        assert!(r.infidelity < 1e-9, "infidelity {}", r.infidelity);
        // The instantiated circuit reproduces CCX up to global phase.
        let diff = 1.0 - target.hs_inner(&r.circuit.unitary()).abs() / 8.0;
        assert!(diff < 1e-9);
    }

    #[test]
    fn infeasible_structure_reports_high_infidelity() {
        // One block on (0,1) cannot produce an entangler on (0,2).
        let target = embed(&qg::cnot(), &[0, 2], 3);
        let r = instantiate(&target, &[(0, 1)], 3, &SweepOptions::default());
        assert!(r.infidelity > 1e-3, "should not converge: {}", r.infidelity);
    }

    fn random_mat(dim: usize, rng: &mut StdRng) -> CMat {
        CMat::from_fn(dim, dim, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    const ORDERED_PAIRS: [(usize, usize); 6] = [(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)];

    #[test]
    fn environment_gradient_consistency() {
        // Numerically verify: Tr(emb(B)·P·L) == Σ_ij B_ij·N_ij for random
        // inputs, where N is the contraction read off P and L.
        let mut rng = StdRng::seed_from_u64(11);
        let p = random_mat(8, &mut rng);
        let l = random_mat(8, &mut rng);
        let m = p.mul_mat(&l);
        let b = haar_unitary(4, &mut rng);
        for pair in ORDERED_PAIRS {
            let env = PairTable::new(pair, 3).environment(&p, &l);
            let lhs = embed(&b, &[pair.0, pair.1], 3).mul_mat(&m).trace();
            let rhs: C64 = (0..4)
                .flat_map(|i| (0..4).map(move |j| (i, j)))
                .map(|(i, j)| b[(i, j)] * env[i][j])
                .sum();
            assert!(lhs.dist(rhs) < 1e-10, "env mismatch for {pair:?}");
        }
    }

    #[test]
    fn pair_applications_match_dense_embedding_bitwise() {
        // The in-place row/column applications are the dense products
        // with the embedded block, bit for bit.
        let mut rng = StdRng::seed_from_u64(17);
        let x = random_mat(8, &mut rng);
        let mut g = haar_unitary(4, &mut rng);
        g[(1, 2)] = C64::new(-0.0, 0.0); // an exact zero inside the block
        let mut out = CMat::zeros(8, 8);
        for pair in ORDERED_PAIRS {
            let t = PairTable::new(pair, 3);
            let e = embed(&g, &[pair.0, pair.1], 3);
            t.apply_rows(&g, &x, &mut out);
            assert_eq!(out.fingerprint(), e.mul_mat(&x).fingerprint(), "rows {pair:?}");
            t.apply_cols(&g, &x, &mut out);
            assert_eq!(out.fingerprint(), x.mul_mat(&e).fingerprint(), "cols {pair:?}");
        }
    }

    #[test]
    fn reversed_pair_order_in_structure() {
        // Pairs like (2, 0) (high qubit first) must work too.
        let mut rng = StdRng::seed_from_u64(13);
        let g = haar_unitary(4, &mut rng);
        let target = embed(&g, &[2, 0], 3);
        let r = instantiate(&target, &[(2, 0)], 3, &SweepOptions::default());
        assert!(r.infidelity < 1e-11);
    }

    #[test]
    fn block_circuit_codec_roundtrips_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let bc = BlockCircuit {
            num_qubits: 3,
            blocks: vec![
                ((0, 1), haar_unitary(4, &mut rng)),
                ((2, 1), haar_unitary(4, &mut rng)),
            ],
        };
        let mut w = reqisc_qmath::ByteWriter::new();
        bc.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = reqisc_qmath::ByteReader::new(&bytes);
        let back = BlockCircuit::decode_from(&mut r).expect("roundtrip");
        assert!(r.is_exhausted());
        assert_eq!(back.num_qubits, 3);
        assert_eq!(back.blocks.len(), 2);
        for (orig, dec) in bc.blocks.iter().zip(&back.blocks) {
            assert_eq!(orig.0, dec.0);
            assert_eq!(orig.1.fingerprint(), dec.1.fingerprint(), "blocks must be bit-exact");
        }
        // Truncations fail cleanly.
        for cut in 0..bytes.len() {
            assert!(
                BlockCircuit::decode_from(&mut reqisc_qmath::ByteReader::new(&bytes[..cut]))
                    .is_err(),
                "cut {cut}"
            );
        }
    }
}
