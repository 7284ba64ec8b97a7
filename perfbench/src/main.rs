//! The repository benchmark: one workload per run, its inputs generated
//! from `--seed`, its outputs checked, and one JSON result line printed
//! last on standard output.
//!
//! ```text
//! perfbench --workload suite_cold|serve_mixed|calibrate --seed N --seconds S
//!           --trace 0|1 [--reqiscd PATH] [--work-dir DIR]
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics of its workload;
//! with `--trace 1` it reports per-layer metrics derived from spans the
//! benchmark records around its calls into each layer (see NOTES.md).

mod calibrate;
mod hostspeed;
mod oracle;
mod report;
mod serve_mixed;
mod suite_cold;
mod trace;

use rand::rngs::StdRng;
use rand::Rng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 5;

/// Command-line arguments.
#[derive(Debug)]
pub(crate) struct Args {
    workload: String,
    /// Seed every generated input derives from.
    pub(crate) seed: u64,
    /// Measured time budget of the run.
    pub(crate) seconds: u64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub(crate) trace: bool,
    /// The `reqiscd` binary `serve_mixed` starts.
    pub(crate) reqiscd: Option<PathBuf>,
    /// Directory for sockets, shared segments and span files.
    pub(crate) work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub(crate) trace_file: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload suite_cold|serve_mixed|calibrate --seed N --seconds S \
         --trace 0|1 [--reqiscd PATH] [--work-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut reqiscd = None;
    let mut work_dir = PathBuf::from(".perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |v: &str| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: bad number {v}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)),
            "--seconds" => seconds = Some(number(&value).max(1)),
            "--trace" => trace = Some(number(&value) != 0),
            "--reqiscd" => reqiscd = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required")
    };
    let trace_file = trace.then(|| work_dir.join(format!("trace-{workload}-{seed}.jsonl")));
    Args {
        workload,
        seed,
        seconds,
        trace,
        reqiscd,
        work_dir,
        trace_file,
    }
}

/// Runs `setup` `reps` times; returns the median time in seconds and the
/// last result.
pub(crate) fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        report::median(&times),
        last.expect("at least one set-up ran"),
    )
}

/// Whether a run that has measured for `elapsed`, its last pass taking
/// `pass`, starts another pass: it does while at least three quarters of
/// one still fit in `budget`, so a run measures a whole number of passes
/// for about `budget` (at least one pass).
pub(crate) fn another_pass(elapsed: Duration, pass: Duration, budget: Duration) -> bool {
    elapsed + pass * 3 / 4 <= budget
}

/// Share of `--seconds` the warm repeats of `suite_cold` and `calibrate`
/// run for, after the cold passes. Spread over seconds rather than one
/// burst of a few milliseconds, the warm percentiles average over the
/// host's moment-to-moment speed the way the cold passes do.
pub(crate) const WARM_SHARE: f64 = 0.1;

/// Runs `round` at least `min_rounds` times and then until `span` has
/// passed.
pub(crate) fn warm_rounds(min_rounds: usize, span: Duration, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min_rounds || start.elapsed() < span {
        round();
        done += 1;
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub(crate) fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let report = match (args.workload.as_str(), args.trace) {
        ("suite_cold", false) => suite_cold::run(&args),
        ("suite_cold", true) => suite_cold::run_traced(&args),
        ("calibrate", false) => calibrate::run(&args),
        ("calibrate", true) => calibrate::run_traced(&args),
        ("serve_mixed", _) => serve_mixed::run(&args),
        (other, _) => usage(&format!("unknown workload {other}")),
    };
    println!("{}", report.to_json());
}
