//! `suite_cold`: a fresh compiler compiles all 132 demo programs with
//! ReQISC-Full through `Compiler::compile_batch` on one thread, and each
//! output is routed
//! with mirroring-SABRE onto a near-square grid. Block synthesis is nearly
//! all of the time; the service and the pulse solver are not touched.

use crate::hostspeed::HostSpeed;
use crate::oracle;
use crate::report::{median, peak_rss_mb, percentile, EndToEnd, PerLayer, Pools, Report};
use crate::trace::Tracer;
use crate::{another_pass, shuffle, timed_setup, warm_rounds, Args, SETUP_REPS, WARM_SHARE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reqisc_benchsuite::{suite, Benchmark, Scale};
use reqisc_compiler::{
    compact, distinct_su4_count, fuse_2q, hierarchical_synthesis_cached, metrics, partition_3q,
    route, template_synthesis, CompileCache, Compiler, HsOptions, Pipeline, RouteOptions, Routed,
    Topology,
};
use reqisc_microarch::Coupling;
use reqisc_qcircuit::Circuit;
use reqisc_synthesis::TemplateLibrary;
use std::time::{Duration, Instant};

/// Routes `c` with mirroring-SABRE onto `Topology::grid_for` its width.
pub(crate) fn route_on_grid(c: &Circuit) -> Routed {
    route(
        c,
        &Topology::grid_for(c.num_qubits()),
        &RouteOptions::default(),
    )
}

fn same_routing(a: &Routed, b: &Routed) -> bool {
    a.circuit == b.circuit
        && a.initial_mapping == b.initial_mapping
        && a.final_mapping == b.final_mapping
}

/// Output quality of the routed suite: total 2Q gates and the mean XY
/// critical-path duration per program in g⁻¹.
fn quality(routed: &[Routed]) -> (usize, f64) {
    let xy = Coupling::xy(1.0);
    let two_q = routed.iter().map(|r| r.circuit.count_2q()).sum();
    let duration: f64 = routed
        .iter()
        .map(|r| metrics(&r.circuit, &xy).duration)
        .sum();
    (two_q, duration / routed.len().max(1) as f64)
}

/// Checks every compiled and routed program against its source; returns
/// the number of programs that failed.
fn check_outputs(
    programs: &[Benchmark],
    compiled: &[Circuit],
    routed: &[Routed],
    seed: u64,
    report: &mut Report,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failed = 0;
    for ((b, c), r) in programs.iter().zip(compiled).zip(routed) {
        if let Err(e) = oracle::check(&b.circuit, c, r, &mut rng) {
            report.fail_check(format!("{}: {e}", b.name));
            failed += 1;
        }
    }
    failed
}

/// Least warm rounds per run, each over every program: 1056 latency
/// samples; more rounds run until [`WARM_SHARE`] of the budget has passed.
const WARM_ROUNDS: usize = 8;

/// The measured run: as many whole compile-and-route passes as fit in
/// `--seconds` (at least one), each on a fresh compiler, then the warm
/// repeats on the last compiler.
pub(crate) fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let (setup_s, library) = timed_setup(SETUP_REPS, Compiler::builtin_library);
    let programs = suite(Scale::Demo);
    let jobs: Vec<(&Circuit, Pipeline)> = programs
        .iter()
        .map(|b| (&b.circuit, Pipeline::ReqiscFull))
        .collect();
    // One thread: on a 2-vCPU guest whose vCPUs share a physical core, a
    // second thread gains ~1.3x and makes pass times wander by tens of
    // percent with whatever else runs on that core.
    let threads = 1;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut refs = Vec::new();
    let mut peak = None;
    let mut first: Option<(Vec<Circuit>, Vec<Routed>)> = None;
    let mut unstable = 0u64;
    let compiler = loop {
        let compiler = Compiler::new_with_library(library.clone());
        let mut speed = HostSpeed::new();
        let t = Instant::now();
        // One `compile_batch` call per program, in suite order: with one
        // thread this is the batch's own job order, and it lets the
        // host-speed reference run between programs.
        let mut compiled = Vec::with_capacity(jobs.len());
        for job in jobs.chunks(1) {
            speed.tick();
            compiled.extend(compiler.compile_batch(job, threads));
        }
        let routed: Vec<Routed> = compiled
            .iter()
            .map(|c| {
                speed.tick();
                route_on_grid(c)
            })
            .collect();
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
                first = Some((compiled, routed));
            }
            Some((c0, r0)) => {
                let differs = c0
                    .iter()
                    .zip(&compiled)
                    .zip(r0.iter().zip(&routed))
                    .filter(|((a, b), (ra, rb))| a != b || !same_routing(ra, rb))
                    .count();
                if differs > 0 {
                    report.fail_check(format!(
                        "{differs} programs compiled differently on a repeat"
                    ));
                    unstable += differs as u64;
                }
            }
        }
        if !another_pass(start.elapsed(), dt, budget) {
            break compiler;
        }
    };
    let (compiled, routed) = first.expect("at least one pass ran");

    // Warm: each program again on the warm compiler, a program-pool hit,
    // in a seeded order; the reply must be the cold output.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..programs.len()).collect();
    let mut warm_ms = Vec::with_capacity(WARM_ROUNDS * programs.len());
    let mut wrong = vec![false; programs.len()];
    let mut speed = HostSpeed::new();
    warm_rounds(WARM_ROUNDS, budget.mul_f64(WARM_SHARE), || {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            speed.tick();
            let t = Instant::now();
            let out = compiler.compile(&programs[i].circuit, Pipeline::ReqiscFull);
            warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            wrong[i] |= out != compiled[i];
        }
    });
    let warm_wrong = wrong.iter().filter(|w| **w).count() as u64;
    if warm_wrong > 0 {
        report.fail_check(format!("{warm_wrong} warm repeats differ from the cold output"));
    }
    let (two_q, duration) = quality(&routed);
    let failed = check_outputs(&programs, &compiled, &routed, args.seed, &mut report);
    eprintln!(
        "# suite_cold: {} passes on {threads} thread, cold s each {times:?}, in ref {refs:?}; \
         warm p50 {:.6} ms, p90 {:.6} ms, p99 {:.6} ms, ref {:.6} ms; {} SU(4) classes summed over programs",
        times.len(),
        percentile(&warm_ms, 0.50),
        percentile(&warm_ms, 0.90),
        percentile(&warm_ms, 0.99),
        speed.unit_ms(),
        routed
            .iter()
            .map(|r| distinct_su4_count(&r.circuit))
            .sum::<usize>()
    );

    report.attempted = programs.len() as u64;
    report.failed = (failed + unstable + warm_wrong).min(report.attempted);
    report.end_to_end(&EndToEnd {
        setup_s,
        cold_ref: median(&refs),
        warm_p50_ref: percentile(&warm_ms, 0.50) / speed.unit_ms(),
        warm_p99_ref: percentile(&warm_ms, 0.99) / speed.unit_ms(),
        out_2q: two_q,
        out_duration_g: duration,
        peak_rss_mb: peak,
    });
    report
}

/// Per-layer work counters of the traced decomposition. Every field is a
/// deterministic count; times are summed from the tracer's spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counters {
    template_2q_out: usize,
    compact_2q_removed: usize,
    blocks: usize,
    dense_blocks: usize,
    lookups: u64,
    searches: u64,
    wins: u64,
    saved_2q: usize,
    swaps_inserted: usize,
    swaps_absorbed: usize,
}

/// The serial decomposition of ReQISC-Full with a span around every pass,
/// and the work counters it accumulates over the suite.
struct Decomposition<'a> {
    library: &'a TemplateLibrary,
    hs: HsOptions,
    cache: CompileCache,
    tracer: Tracer,
    k: Counters,
    /// Time in searches that found nothing shorter.
    fail_time_s: f64,
}

impl Decomposition<'_> {
    /// One program: template synthesis, CX lowering and 2Q fusion, DAG
    /// compacting and re-fusion, 3Q partitioning, one
    /// `synthesize_if_shorter_cached` per dense block, then
    /// `hierarchical_synthesis_cached` on the now-warm synthesis pool, then
    /// routing. The result must equal `Compiler::compile` bit for bit.
    fn program(&mut self, request: u64, source: &Circuit) -> (Circuit, Routed) {
        let (hs, cache, k) = (&self.hs, &self.cache, &mut self.k);
        let tracer = &mut self.tracer;
        let program = tracer.begin("program", request);
        let t = tracer.span("template_pass", request, || {
            template_synthesis(source, self.library)
        });
        k.template_2q_out += t.count_2q();
        let fused = tracer.span("fuse", request, || fuse_2q(&t.lowered_to_cx()));
        let compacted = if hs.compacting {
            let c = tracer.span("compact", request, || compact(&fused, &hs.compact));
            let refused = tracer.span("fuse", request, || fuse_2q(&c));
            k.compact_2q_removed += fused.count_2q().saturating_sub(refused.count_2q());
            refused
        } else {
            fused
        };
        let blocks = tracer.span("partition", request, || {
            partition_3q(&compacted, &hs.partition)
        });
        k.blocks += blocks.len();
        for b in &blocks {
            let count = b.count_2q();
            let width = b.qubits.len();
            if count <= hs.m_th || !(2..=3).contains(&width) {
                continue;
            }
            k.dense_blocks += 1;
            if hs.search.max_blocks.min(count - 1) == 0 {
                continue; // degenerate budgets bypass the synthesis pool
            }
            let before = cache.stats().synthesis.misses;
            let target = b.unitary();
            let id = tracer.begin("synthesis.search", request);
            let found = cache.synthesize_if_shorter_cached(&target, width, count, &hs.search);
            tracer.end(id);
            k.lookups += 1;
            let searched = cache.stats().synthesis.misses > before;
            if let Some(syn) = found.as_ref() {
                k.saved_2q += count - syn.blocks.len();
                k.wins += u64::from(searched);
            } else if searched {
                self.fail_time_s += tracer.seconds(id);
            }
            k.searches += u64::from(searched);
        }
        let out = tracer.span("hierarchical.reassemble", request, || {
            hierarchical_synthesis_cached(&t, hs, Some(cache))
        });
        let routed = tracer.span("sabre", request, || route_on_grid(&out));
        k.swaps_inserted += routed.swaps_inserted;
        k.swaps_absorbed += routed.swaps_absorbed;
        tracer.end(program);
        (out, routed)
    }
}

/// The traced run: the serial decomposition of every program, checked bit
/// for bit against an untraced serial `Compiler::compile` of the same
/// program, whose time gives the tracing overhead.
pub(crate) fn run_traced(args: &Args) -> Report {
    let mut report = Report::new();
    let library = Compiler::builtin_library();
    let programs = suite(Scale::Demo);
    let mut d = Decomposition {
        library: &library,
        hs: HsOptions::default(),
        cache: CompileCache::new(),
        tracer: Tracer::new(),
        k: Counters::default(),
        fail_time_s: 0.0,
    };
    let t = Instant::now();
    let traced: Vec<(Circuit, Routed)> = programs
        .iter()
        .enumerate()
        .map(|(i, b)| d.program(i as u64, &b.circuit))
        .collect();
    let traced_s = t.elapsed().as_secs_f64();

    let mut reference = Compiler::new_with_library(library.clone());
    reference.block_threads = 1;
    let t = Instant::now();
    let untraced: Vec<(Circuit, Routed)> = programs
        .iter()
        .map(|b| {
            let c = reference.compile(&b.circuit, Pipeline::ReqiscFull);
            let r = route_on_grid(&c);
            (c, r)
        })
        .collect();
    let untraced_s = t.elapsed().as_secs_f64();
    let mismatched = programs
        .iter()
        .zip(traced.iter().zip(&untraced))
        .filter(|(b, ((c, r), (uc, ur)))| {
            let differs = c != uc || !same_routing(r, ur);
            if differs {
                eprintln!(
                    "# {}: traced decomposition differs from Compiler::compile",
                    b.name
                );
            }
            differs
        })
        .count();
    if mismatched > 0 {
        report.fail_check(format!(
            "{mismatched} traced programs differ from Compiler::compile"
        ));
    }
    let (compiled, routed): (Vec<Circuit>, Vec<Routed>) = untraced.into_iter().unzip();
    let failed = check_outputs(&programs, &compiled, &routed, args.seed, &mut report);
    let Decomposition {
        tracer,
        k,
        fail_time_s,
        ..
    } = d;
    if let Some(path) = &args.trace_file {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("# could not write spans to {}: {e}", path.display());
        }
    }
    eprintln!("# suite_cold traced counters: {k:?}");

    eprintln!(
        "# suite_cold traced layers: template_pass {:.3} s, fuse {:.3} s, compact {:.3} s, \
         partition {:.3} s, synthesis.search {:.3} s (fruitless {fail_time_s:.3} s), \
         hierarchical.reassemble {:.3} s, sabre {:.3} s",
        tracer.total_s("template_pass"),
        tracer.total_s("fuse"),
        tracer.total_s("compact"),
        tracer.total_s("partition"),
        tracer.total_s("synthesis.search"),
        tracer.total_s("hierarchical.reassemble"),
        tracer.total_s("sabre"),
    );

    report.attempted = programs.len() as u64;
    report.failed = (failed + mismatched as u64).min(report.attempted);
    let rs = reference.cache_stats();
    report.per_layer(&PerLayer {
        pools: Pools::from(&rs),
        solver: rs.solver,
        traced_s,
        untraced_s,
        ..PerLayer::default()
    });
    report
}
