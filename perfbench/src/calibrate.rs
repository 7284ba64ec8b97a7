//! `calibrate`: the suite is compiled with ReQISC-Eff and routed as in
//! `suite_cold`, its distinct SU(4) classes are collected, and every class
//! is solved for a pulse under four coupling Hamiltonians, each with a
//! fresh `PulseCache`. The genAshN pulse solver is nearly all of the time;
//! block synthesis is not touched.

use crate::hostspeed::HostSpeed;
use crate::report::{median, peak_rss_mb, percentile, EndToEnd, PerLayer, Pools, Report};
use crate::suite_cold::route_on_grid;
use crate::trace::Tracer;
use crate::{another_pass, shuffle, timed_setup, warm_rounds, Args, SETUP_REPS, WARM_SHARE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reqisc_benchsuite::{suite, Scale};
use reqisc_compiler::{Compiler, Pipeline};
use reqisc_microarch::{evolve, CacheStats, Coupling, PulseCache, SolvedClass, SolverStats};
use reqisc_qmath::{weyl_coords, WeylCoord, SU4_CLASS_TOL};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The coupling Hamiltonians every class is solved under, as `(a, b, c)`
/// coefficients: XY, XX, Heisenberg and an anisotropic XYZ coupling.
const COUPLINGS: [(&str, f64, f64, f64); 4] = [
    ("xy", 0.5, 0.5, 0.0),
    ("xx", 1.0, 0.0, 0.0),
    ("heisenberg", 0.4, 0.4, 0.4),
    ("xyz_532", 0.5, 0.3, 0.2),
];

/// The calibration input: the suite compiled with ReQISC-Eff and routed,
/// reduced to its distinct SU(4) classes.
struct Classes {
    classes: Vec<WeylCoord>,
    /// For each routed program, the class of each of its 2Q gates that
    /// needs a pulse.
    programs: Vec<Vec<usize>>,
    /// 2Q gates of the routed suite.
    two_q: usize,
    /// Counters of the compiler that compiled it.
    pools: Pools,
}

/// Compiles the suite with ReQISC-Eff, routes it, and returns its distinct
/// SU(4) classes, grouped as `distinct_su4_count` groups them: coordinates
/// within [`SU4_CLASS_TOL`] of an earlier class join it, and the identity
/// class needs no pulse.
fn suite_classes() -> Classes {
    let compiler = Compiler::new();
    let programs = suite(Scale::Demo);
    let jobs: Vec<_> = programs
        .iter()
        .map(|b| (&b.circuit, Pipeline::ReqiscEff))
        .collect();
    let compiled = compiler.compile_batch(&jobs, 0);
    let mut classes: Vec<WeylCoord> = Vec::new();
    let mut programs = Vec::with_capacity(compiled.len());
    let mut two_q = 0;
    for c in &compiled {
        let routed = route_on_grid(c).circuit;
        two_q += routed.count_2q();
        let mut gates = Vec::new();
        for g in routed.gates().iter().filter(|g| g.is_2q()) {
            let Some(w) = g.weyl().or_else(|| weyl_coords(&g.matrix()).ok()) else {
                continue;
            };
            if w.l1_norm() < SU4_CLASS_TOL {
                continue;
            }
            let k = match classes.iter().position(|k| k.approx_eq(&w, SU4_CLASS_TOL)) {
                Some(k) => k,
                None => {
                    classes.push(w);
                    classes.len() - 1
                }
            };
            gates.push(k);
        }
        programs.push(gates);
    }
    Classes {
        classes,
        programs,
        two_q,
        pools: Pools::from(&compiler.cache_stats()),
    }
}

/// One pass: every (coupling, class) pair solved once, the classes in a
/// seeded order, each coupling on a fresh pulse cache. Returns the
/// solutions in (coupling, class) order and the caches, one per coupling.
///
/// The pass is serial: its time is then the sum of the solve times, which
/// the order cannot change, where two workers would end each coupling
/// waiting on whichever slow (often failing) solve the order put last.
fn solve_all(
    classes: &[WeylCoord],
    order: &[usize],
    mut tracer: Option<&mut Tracer>,
    mut speed: Option<&mut HostSpeed>,
) -> (Vec<Option<Arc<SolvedClass>>>, Vec<PulseCache>) {
    let mut out = vec![None; COUPLINGS.len() * classes.len()];
    let mut caches = Vec::with_capacity(COUPLINGS.len());
    for (ci, &(_, a, b, c)) in COUPLINGS.iter().enumerate() {
        let cp = Coupling::new(a, b, c);
        let cache = PulseCache::new();
        for &k in order {
            if let Some(s) = speed.as_deref_mut() {
                s.tick();
            }
            let slot = ci * classes.len() + k;
            let id = tracer
                .as_deref_mut()
                .map(|t| t.begin("solver.solve", slot as u64));
            out[slot] = cache.solve(&cp, &classes[k]).ok();
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                t.end(id);
            }
        }
        caches.push(cache);
    }
    (out, caches)
}

/// Least warm rounds per run, each asking every cache for the pulses of
/// every routed program: 1056 latency samples; more rounds run until
/// [`WARM_SHARE`] of the budget has passed.
const WARM_ROUNDS: usize = 2;

/// The warm repeats: for each (coupling, program), in a seeded order, the
/// pulse of every 2Q gate of the program whose class the cold pass solved,
/// asked of that coupling's warm cache. Returns the per-program latencies
/// in ms and the number of pairs whose warm answer is not the pulse the
/// cold pass solved.
fn warm_repeats(
    input: &Classes,
    solved: &[Option<Arc<SolvedClass>>],
    caches: &[PulseCache],
    rng: &mut StdRng,
    span: Duration,
    speed: &mut HostSpeed,
) -> (Vec<f64>, u64) {
    let n = input.classes.len();
    let mut jobs: Vec<(usize, usize)> = (0..COUPLINGS.len())
        .flat_map(|ci| (0..input.programs.len()).map(move |p| (ci, p)))
        .collect();
    let mut ms = Vec::with_capacity(WARM_ROUNDS * jobs.len());
    let mut wrong = vec![false; solved.len()];
    warm_rounds(WARM_ROUNDS, span, || {
        shuffle(&mut jobs, rng);
        for &(ci, p) in &jobs {
            speed.tick();
            let (_, a, b, c) = COUPLINGS[ci];
            let cp = Coupling::new(a, b, c);
            let gates: Vec<(usize, &Arc<SolvedClass>)> = input.programs[p]
                .iter()
                .filter_map(|&k| solved[ci * n + k].as_ref().map(|s| (ci * n + k, s)))
                .collect();
            let t = Instant::now();
            let got: Vec<_> = gates
                .iter()
                .map(|&(slot, _)| caches[ci].solve(&cp, &input.classes[slot % n]))
                .collect();
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            for (&(slot, cold), got) in gates.iter().zip(got) {
                wrong[slot] |= !got.is_ok_and(|g| Arc::ptr_eq(&g, cold));
            }
        }
    });
    (ms, wrong.iter().filter(|w| **w).count() as u64)
}

fn pulse_pool(caches: &[PulseCache]) -> CacheStats {
    caches
        .iter()
        .fold(CacheStats::default(), |acc, c| acc.merged(&c.stats()))
}

fn solver_stats(caches: &[PulseCache]) -> SolverStats {
    caches
        .iter()
        .fold(SolverStats::default(), |acc, c| acc.merged(&c.solver_stats()))
}

/// The pulse oracle: the evolution of each solved pulse must land in its
/// target class. Returns per-pair verdicts (`None` = unsolved).
fn verify(
    classes: &[WeylCoord],
    solved: &[Option<Arc<SolvedClass>>],
    mut tracer: Option<&mut Tracer>,
) -> Vec<Option<bool>> {
    solved
        .iter()
        .enumerate()
        .map(|(slot, s)| {
            let s = s.as_ref()?;
            let (_, a, b, c) = COUPLINGS[slot / classes.len()];
            let cp = Coupling::new(a, b, c);
            let id = tracer
                .as_deref_mut()
                .map(|t| t.begin("pulse_verify", slot as u64));
            let got = weyl_coords(&evolve(&cp, &s.pulse.params, s.pulse.tau));
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                t.end(id);
            }
            Some(got.is_ok_and(|w| w.approx_eq(&classes[slot % classes.len()], SU4_CLASS_TOL)))
        })
        .collect()
}

/// Tallies the verdicts into the report: unsolved and off-class pairs are
/// failures, and an off-class pulse makes the run incorrect. Returns the
/// mean optimal duration in g⁻¹ over the pulses that passed.
fn account(
    classes: &[WeylCoord],
    solved: &[Option<Arc<SolvedClass>>],
    verdicts: &[Option<bool>],
    report: &mut Report,
) -> f64 {
    let mut taus = Vec::new();
    let mut unsolved = Vec::new();
    for (slot, v) in verdicts.iter().enumerate() {
        let (name, a, b, c) = COUPLINGS[slot / classes.len()];
        let w = classes[slot % classes.len()];
        match v {
            None => unsolved.push(format!("{name}:{w}")),
            Some(false) => report.fail_check(format!("{name}: pulse for {w} evolves off-class")),
            Some(true) => {
                let s = solved[slot].as_ref().expect("verified pulses exist");
                taus.push(s.pulse.tau * Coupling::new(a, b, c).strength());
            }
        }
    }
    for (name, ..) in COUPLINGS {
        let here: Vec<&str> = unsolved
            .iter()
            .filter_map(|u| u.strip_prefix(name).and_then(|r| r.strip_prefix(':')))
            .collect();
        eprintln!(
            "# calibrate: {} unsolved under {name}: {}",
            here.len(),
            here.join(" ")
        );
    }
    report.attempted = verdicts.len() as u64;
    report.failed = (verdicts.len() - taus.len()) as u64;
    taus.iter().sum::<f64>() / taus.len().max(1) as f64
}

fn same_pulses(a: &[Option<Arc<SolvedClass>>], b: &[Option<Arc<SolvedClass>>]) -> bool {
    a.iter().zip(b).all(|(a, b)| match (a, b) {
        (Some(a), Some(b)) => {
            let (p, q) = (&a.pulse.params, &b.pulse.params);
            a.pulse.tau == b.pulse.tau
                && (p.omega1, p.omega2, p.delta) == (q.omega1, q.omega2, q.delta)
        }
        (None, None) => true,
        _ => false,
    })
}

/// The measured run: as many whole solve passes as fit in `--seconds` (at
/// least one), then the warm repeats on the last pass's caches. Every pass
/// must reproduce the first one's pulses exactly.
pub(crate) fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let (setup_s, input) = timed_setup(SETUP_REPS, suite_classes);
    let classes = &input.classes;
    eprintln!(
        "# calibrate: {} classes x {} couplings",
        classes.len(),
        COUPLINGS.len()
    );
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..classes.len()).collect();
    shuffle(&mut order, &mut rng);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut refs = Vec::new();
    let mut peak = None;
    let mut first: Option<Vec<Option<Arc<SolvedClass>>>> = None;
    let (solved, caches) = loop {
        let mut speed = HostSpeed::new();
        let t = Instant::now();
        let (solved, caches) = solve_all(classes, &order, None, Some(&mut speed));
        let dt = t.elapsed();
        let work = (dt - speed.spent()).as_secs_f64();
        times.push(work);
        refs.push(work * 1e3 / speed.unit_ms());
        match &first {
            None => {
                // Read after the first pass: later passes keep its outputs
                // alive beside their own, so a later reading would grow
                // with how many passes the host's speed allowed.
                peak = peak_rss_mb(None);
                first = Some(solved.clone());
            }
            Some(f) if !same_pulses(f, &solved) => {
                report.fail_check("a repeated pass solved different pulses")
            }
            Some(_) => {}
        }
        if !another_pass(start.elapsed(), dt, budget) {
            break (solved, caches);
        }
    };
    let mut speed = HostSpeed::new();
    let (warm_ms, warm_wrong) = warm_repeats(
        &input,
        &solved,
        &caches,
        &mut rng,
        budget.mul_f64(WARM_SHARE),
        &mut speed,
    );
    if warm_wrong > 0 {
        report.fail_check(format!(
            "{warm_wrong} warm repeats returned another pulse than the cold pass"
        ));
    }
    let verdicts = verify(classes, &solved, None);
    let tau_mean = account(classes, &solved, &verdicts, &mut report);
    report.failed = (report.failed + warm_wrong).min(report.attempted);
    eprintln!(
        "# calibrate: {} passes, cold s each {times:?}, in ref {refs:?}; warm p50 {:.6} ms, \
         p90 {:.6} ms, p99 {:.6} ms, ref {:.6} ms",
        times.len(),
        percentile(&warm_ms, 0.50),
        percentile(&warm_ms, 0.90),
        percentile(&warm_ms, 0.99),
        speed.unit_ms()
    );

    report.end_to_end(&EndToEnd {
        setup_s,
        cold_ref: median(&refs),
        warm_p50_ref: percentile(&warm_ms, 0.50) / speed.unit_ms(),
        warm_p99_ref: percentile(&warm_ms, 0.99) / speed.unit_ms(),
        out_2q: input.two_q,
        out_duration_g: tau_mean,
        peak_rss_mb: peak,
    });
    report
}

/// The traced run: one pass with a span around every solve and every
/// oracle evaluation, plus the solver's own work counters, then the same
/// pass untraced for the tracing overhead.
pub(crate) fn run_traced(args: &Args) -> Report {
    let mut report = Report::new();
    let mut tracer = Tracer::new();
    let input = tracer.span("setup", 0, suite_classes);
    let classes = &input.classes;
    let mut order: Vec<usize> = (0..classes.len()).collect();
    shuffle(&mut order, &mut StdRng::seed_from_u64(args.seed));
    let t = Instant::now();
    let (solved, caches) = solve_all(classes, &order, Some(&mut tracer), None);
    let traced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (again, _) = solve_all(classes, &order, None, None);
    let untraced_s = t.elapsed().as_secs_f64();
    if !same_pulses(&solved, &again) {
        report.fail_check("the untraced pass solved different pulses");
    }
    let verdicts = verify(classes, &solved, Some(&mut tracer));
    account(classes, &solved, &verdicts, &mut report);
    if let Some(path) = &args.trace_file {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("# could not write spans to {}: {e}", path.display());
        }
    }
    let solver = solver_stats(&caches);
    eprintln!(
        "# calibrate traced: solver {solver}; solve spans {:.3} s, pulse oracle {:.3} s",
        tracer.total_s("solver.solve"),
        tracer.total_s("pulse_verify")
    );

    report.per_layer(&PerLayer {
        pools: Pools {
            pulses: pulse_pool(&caches),
            ..input.pools
        },
        solver,
        traced_s,
        untraced_s,
        ..PerLayer::default()
    });
    report
}
