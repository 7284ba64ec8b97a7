//! The host-speed reference the timed metrics are expressed in.
//!
//! On a shared 2-vCPU KVM guest (Intel Xeon) the same deterministic work
//! ran up to ~1.6x slower from one minute to the next, with the load of
//! other tenants. A run therefore interleaves short chunks of a fixed kernel,
//! owned by the benchmark and built with it, with the work it times, and
//! reports each time as a multiple of the kernel's mean chunk time over
//! the same stretch: a slower host slows both alike. The kernel is
//! floating-point work on data that stays in L1, like the stack's
//! small-matrix numerics; no code of the stack runs in it, so a change to
//! the stack cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time between chunks: one chunk (~0.35 ms on an idle host) every 50 ms
/// costs under 1 % of the timed work.
pub(crate) const INTERVAL: Duration = Duration::from_millis(50);

/// One chunk of the reference kernel: 400 products of an 8x8 matrix with
/// itself, each entry passed through `sin`.
fn chunk() {
    let mut m = black_box([[1.0001f64; 8]; 8]);
    for _ in 0..400 {
        let mut r = [[0.0f64; 8]; 8];
        for (i, row) in r.iter_mut().enumerate() {
            for (j, out) in row.iter_mut().enumerate() {
                let dot: f64 = (0..8).map(|q| m[i][q] * m[q][j]).sum();
                *out = dot.sin();
            }
        }
        m = black_box(r);
    }
}

/// Interleaved reference chunks over one stretch of a run.
#[derive(Debug)]
pub(crate) struct HostSpeed {
    spent: Duration,
    chunks: u32,
    last: Instant,
}

impl HostSpeed {
    /// A reference with one chunk already measured.
    pub(crate) fn new() -> Self {
        let mut s = Self {
            spent: Duration::ZERO,
            chunks: 0,
            last: Instant::now(),
        };
        s.measure();
        s
    }

    /// Runs and times one chunk.
    pub(crate) fn measure(&mut self) {
        let t = Instant::now();
        chunk();
        self.last = Instant::now();
        self.spent += self.last - t;
        self.chunks += 1;
    }

    /// Runs one chunk if [`INTERVAL`] has passed since the last one.
    pub(crate) fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.measure();
        }
    }

    /// Time spent in chunks so far, to take out of a span that held them.
    pub(crate) fn spent(&self) -> Duration {
        self.spent
    }

    /// Mean chunk time in ms: the unit `ref` of the timed metrics.
    pub(crate) fn unit_ms(&self) -> f64 {
        self.spent.as_secs_f64() * 1e3 / f64::from(self.chunks.max(1))
    }
}
