//! Measures the compile *service* end to end: per-request latency
//! (submit → response) and throughput through the whole service
//! (admission with its warm probe → solve queue → solve workers →
//! delivery), cold versus warm.
//!
//! Four passes over `programs × {ReqiscEff, ReqiscFull}`:
//!
//! * **cold** — fresh service, every request pays its compile (or joins
//!   an in-flight duplicate);
//! * **warm serial** — the same requests again, one at a time: the
//!   interactive-caller view of a resident warm cache (p50/p99 are the
//!   protocol + lookup overhead, microseconds not seconds);
//! * **warm pipelined** — all requests submitted before any is awaited:
//!   the throughput ceiling (req/s). Per-request latency here is
//!   submit → completion-observed, so it *includes* time queued behind
//!   the batch — expect p50/p99 well above the serial tier's;
//! * **mixed** — a batch of never-seen cold variants is submitted first
//!   and NOT awaited, then every warm request rides through the
//!   congested service serially. The proof is the stage counters, not
//!   wall time: the warm requests must all be answered at admission
//!   (`lookup_hits` delta == warm count) and never
//!   be claimed by a solve worker (`solve_claimed` delta == cold count);
//! * **shared_warm** (only when `REQISC_SHM_PATH` is set) — a *second*
//!   service instance with no store and cold local pools attaches the
//!   shared-memory segment the first instance's solve workers published
//!   into, and replays every request serially. Hard counter assertions:
//!   every request is a lookup hit answered by the shared tier
//!   (`shared.hits == lookup_hits == requests`) and `solve_claimed`
//!   stays 0 — the peer's work reused bit-for-bit (fingerprint-checked)
//!   with zero duplicate solves.
//!
//! Environment knobs (shared semantics — see `reqisc_bench::env`):
//!
//! * `REQISC_SCALE=paper` — Table-1-sized programs;
//! * `REQISC_BENCH_N=<k>` — cap the program count (default 24);
//! * `REQISC_SERVE_WORKERS=<n>` — solve worker pool size (default
//!   hardware);
//! * `REQISC_CACHE_DIR=<dir>` — persist/load the store in `<dir>` (the
//!   service loads it at startup, so a second run starts disk-warm);
//! * `REQISC_SHM_PATH=<file>` / `REQISC_SHM_CAPACITY_BYTES=<n>` — attach
//!   the crash-safe shared-memory cache segment and run the
//!   `shared_warm` tier against it;
//! * `REQISC_BENCH_JSON=<path>` — write the machine-readable results
//!   (tier rows + mixed-tier counter deltas + the final stats snapshot);
//! * `REQISC_BENCH_GIT_REV=<rev>` — revision stamp for the JSON artifact
//!   (the driver passes `git rev-parse`; unset = `unknown`);
//! * `REQISC_REQUIRE_ZERO_WARM_SOLVES=1` — CI assertion: fail unless the
//!   mixed tier's counter deltas prove zero warm jobs entered the solve
//!   stage.
//!
//! Note the single-core container caveat (ROADMAP): wall-clocks here are
//! indicative; the counters (hits, coalesced, stage deltas) are the
//! portable signal.

use reqisc_bench::{env, env_cache_dir};
use reqisc_benchsuite::{scale_from_env, suite, Benchmark};
use reqisc_compiler::Pipeline;
use reqisc_qcircuit::{Circuit, Gate};
use reqisc_service::{Json, Service, ServiceConfig, Ticket};
use std::sync::Arc;
use std::time::Instant;

/// Latencies are recorded as integer nanoseconds (no float rounding in
/// the hot loop, sub-millisecond warm hits stay distinguishable) and
/// only converted to fractional milliseconds at report time.
fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn row(pass: &str, latencies_ns: &mut [u64], total_s: f64) -> Json {
    latencies_ns.sort_unstable();
    let req_per_s = latencies_ns.len() as f64 / total_s.max(1e-9);
    let p50 = percentile_ms(latencies_ns, 50.0);
    let p99 = percentile_ms(latencies_ns, 99.0);
    println!(
        "{pass},{},{total_s:.3},{req_per_s:.1},{p50:.3},{p99:.3}",
        latencies_ns.len(),
    );
    Json::obj(vec![
        ("pass", Json::str(pass)),
        ("requests", Json::num_u64(latencies_ns.len() as u64)),
        ("total_s", Json::Num(total_s)),
        ("req_per_s", Json::Num(req_per_s)),
        ("p50_ms", Json::Num(p50)),
        ("p99_ms", Json::Num(p99)),
    ])
}

fn main() {
    let cap = env::BENCH_N.usize_or(24);
    let workers = env::SERVE_WORKERS.usize_or(0);
    let programs: Vec<Benchmark> = suite(scale_from_env())
        .into_iter()
        .filter(|b| b.circuit.lowered_to_cx().count_2q() <= 5000)
        .take(cap)
        .collect();
    let pipelines = [Pipeline::ReqiscEff, Pipeline::ReqiscFull];
    let jobs: Vec<(Arc<Circuit>, Pipeline)> = programs
        .iter()
        .flat_map(|b| {
            let c = Arc::new(b.circuit.clone());
            pipelines.iter().map(move |&p| (c.clone(), p))
        })
        .collect();
    eprintln!("{} programs × {} pipelines = {} requests", programs.len(), pipelines.len(), jobs.len());

    let shm_path = env::SHM_PATH.path();
    let shm_capacity_bytes = env::SHM_CAPACITY_BYTES.u64_or(reqisc_service::DEFAULT_SHM_CAPACITY_BYTES);
    let service = Service::start(ServiceConfig {
        workers,
        cache_dir: env_cache_dir(),
        shm_path: shm_path.clone(),
        shm_capacity_bytes,
        // Pass 3 submits the whole batch before awaiting anything, and
        // pass 4 keeps a full cold batch in flight while warm traffic
        // rides through; admission must cover both or the bench would
        // measure rejections.
        queue_capacity: (2 * jobs.len()).max(256),
        ..ServiceConfig::default()
    });
    if let Some(outcome) = service.startup_load() {
        eprintln!("# store load: {outcome:?}");
    }

    println!("pass,requests,total_s,req_per_s,p50_ms,p99_ms");
    let mut tiers: Vec<Json> = Vec::new();

    // Pass 1: cold, serial (per-request latency as an interactive caller
    // sees it the first time).
    let mut lat = Vec::with_capacity(jobs.len());
    let t0 = Instant::now();
    let mut fingerprints = Vec::with_capacity(jobs.len());
    for (c, p) in &jobs {
        let t = Instant::now();
        let done = service
            .submit_compile(c.clone(), *p, reqisc_service::DEFAULT_PRIORITY)
            .expect("submit")
            .wait()
            .expect("compile");
        lat.push(t.elapsed().as_nanos() as u64);
        fingerprints.push(done.circuit.expect("circuit").content_hash());
    }
    tiers.push(row("cold", &mut lat, t0.elapsed().as_secs_f64()));

    // Pass 2: warm, serial.
    let mut lat = Vec::with_capacity(jobs.len());
    let t0 = Instant::now();
    for (i, (c, p)) in jobs.iter().enumerate() {
        let t = Instant::now();
        let done = service
            .submit_compile(c.clone(), *p, reqisc_service::DEFAULT_PRIORITY)
            .expect("submit")
            .wait()
            .expect("compile");
        lat.push(t.elapsed().as_nanos() as u64);
        assert_eq!(
            done.circuit.expect("circuit").content_hash(),
            fingerprints[i],
            "warm result diverged from cold"
        );
    }
    tiers.push(row("warm_serial", &mut lat, t0.elapsed().as_secs_f64()));

    // Pass 3: warm, fully pipelined (throughput ceiling; duplicates of
    // in-flight work coalesce). Per-request latency is submit →
    // completion-observed: each ticket records its own submit instant,
    // so the distribution includes queueing behind the batch — that is
    // the latency a caller of a saturated service actually sees.
    let t0 = Instant::now();
    let tickets: Vec<(usize, Instant, Ticket)> = jobs
        .iter()
        .enumerate()
        .map(|(i, (c, p))| {
            let submitted_at = Instant::now();
            let t = service
                .submit_compile(c.clone(), *p, reqisc_service::DEFAULT_PRIORITY)
                .expect("submit");
            (i, submitted_at, t)
        })
        .collect();
    let mut lat = Vec::with_capacity(jobs.len());
    for (i, submitted_at, t) in tickets {
        let done = t.wait().expect("compile");
        assert_eq!(done.circuit.expect("circuit").content_hash(), fingerprints[i]);
        lat.push(submitted_at.elapsed().as_nanos() as u64);
    }
    tiers.push(row("warm_pipelined", &mut lat, t0.elapsed().as_secs_f64()));

    // Pass 4: mixed cold/warm — the warm-fast-path proof. A full batch
    // of never-seen cold variants (each program plus one extra uniquely
    // parameterised gate, so every content hash is a true miss) is
    // submitted and NOT awaited; the warm requests then ride through the
    // congested service serially. Counters, not wall time, carry the
    // claim: every warm request must be answered at admission,
    // and only the cold variants may be claimed by solve workers.
    let s0 = service.stats_snapshot();
    let cold_variants: Vec<(Arc<Circuit>, Pipeline)> = jobs
        .iter()
        .enumerate()
        .map(|(i, (c, p))| {
            let mut v = (**c).clone();
            v.push(Gate::Rz(0, 0.1015625 + i as f64 * 1e-3));
            (Arc::new(v), *p)
        })
        .collect();
    let t0 = Instant::now();
    let cold_tickets: Vec<Ticket> = cold_variants
        .iter()
        .map(|(c, p)| {
            service
                .submit_compile(c.clone(), *p, reqisc_service::DEFAULT_PRIORITY)
                .expect("submit mixed cold")
        })
        .collect();
    let mut lat = Vec::with_capacity(jobs.len());
    let mut warm_seqs = Vec::with_capacity(jobs.len());
    for (i, (c, p)) in jobs.iter().enumerate() {
        let t = Instant::now();
        let done = service
            .submit_compile(c.clone(), *p, reqisc_service::DEFAULT_PRIORITY)
            .expect("submit mixed warm")
            .wait()
            .expect("compile mixed warm");
        lat.push(t.elapsed().as_nanos() as u64);
        assert_eq!(
            done.circuit.expect("circuit").content_hash(),
            fingerprints[i],
            "mixed warm result diverged"
        );
        warm_seqs.push(done.done_seq);
    }
    let warm_total_s = t0.elapsed().as_secs_f64();
    let mut cold_seqs = Vec::with_capacity(cold_tickets.len());
    for t in cold_tickets {
        let done = t.wait().expect("compile mixed cold");
        assert!(done.circuit.is_some(), "mixed cold produced no circuit");
        cold_seqs.push(done.done_seq);
    }
    tiers.push(row("mixed_warm", &mut lat, warm_total_s));

    let s1 = service.stats_snapshot();
    let warm_n = warm_seqs.len() as u64;
    let cold_n = cold_seqs.len() as u64;
    let d_hits = s1.stages.lookup_hits - s0.stages.lookup_hits;
    let d_misses = s1.stages.lookup_misses - s0.stages.lookup_misses;
    let d_claimed = s1.stages.solve_claimed - s0.stages.solve_claimed;
    let d_prog_misses = s1.cache.programs.misses - s0.cache.programs.misses;
    // Delivery order: all colds were submitted before any warm, so every
    // warm delivered before the last cold "overtook" cold traffic — the
    // fast path visibly not queueing behind the solve stage.
    let last_cold = cold_seqs.iter().copied().max().unwrap_or(0);
    let warm_overtakes = warm_seqs.iter().filter(|&&w| w < last_cold).count() as u64;
    let zero_warm_solves = d_hits == warm_n && d_misses == cold_n && d_claimed == cold_n;
    println!(
        "# mixed: {warm_n} warm + {cold_n} cold | lookup_hits +{d_hits} lookup_misses \
         +{d_misses} solve_claimed +{d_claimed} program_misses +{d_prog_misses} | \
         {warm_overtakes} warm completions overtook the cold batch"
    );
    if env::REQUIRE_ZERO_WARM_SOLVES.flag() {
        if !zero_warm_solves {
            eprintln!(
                "ASSERTION FAILED: warm traffic traversed the solve stage \
                 (lookup_hits +{d_hits} want +{warm_n}, lookup_misses +{d_misses} want \
                 +{cold_n}, solve_claimed +{d_claimed} want +{cold_n})"
            );
            std::process::exit(1);
        }
        eprintln!("# assertion passed: zero warm jobs entered the solve stage");
    }

    // Pass 5: shared_warm — the cross-process reuse proof. The first
    // instance's solve workers published every finished program into the
    // shared segment; a second instance with no store and cold local
    // pools must now answer the whole workload from that segment alone.
    // Hard assertions (counters, never wall time): all requests are
    // lookup hits, every one answered by the shared tier, and not one
    // solve claim — a duplicated solve anywhere fails the run.
    let mut shared_warm: Option<Json> = None;
    if let Some(shm) = shm_path {
        let peer = Service::start(ServiceConfig {
            workers,
            shm_path: Some(shm),
            shm_capacity_bytes,
            queue_capacity: (2 * jobs.len()).max(256),
            ..ServiceConfig::default()
        });
        let mut lat = Vec::with_capacity(jobs.len());
        let t0 = Instant::now();
        for (i, (c, p)) in jobs.iter().enumerate() {
            let t = Instant::now();
            let done = peer
                .submit_compile(c.clone(), *p, reqisc_service::DEFAULT_PRIORITY)
                .expect("submit shared warm")
                .wait()
                .expect("compile shared warm");
            lat.push(t.elapsed().as_nanos() as u64);
            assert_eq!(
                done.circuit.expect("circuit").content_hash(),
                fingerprints[i],
                "shared-warm result diverged from the publishing peer's"
            );
        }
        tiers.push(row("shared_warm", &mut lat, t0.elapsed().as_secs_f64()));
        let ps = peer.stats_snapshot();
        let sh = ps.shared.expect("peer attached the shared segment");
        let n = jobs.len() as u64;
        println!(
            "# shared_warm: {n} requests | shared hits {} (seeded {} subprogram entries, \
             segment holds {}) | lookup_hits {} solve_claimed {}",
            sh.hits, sh.seeded, sh.entries, ps.stages.lookup_hits, ps.stages.solve_claimed
        );
        assert_eq!(
            ps.stages.lookup_hits, n,
            "every shared-warm request must be answered warm at admission"
        );
        assert_eq!(
            sh.hits, n,
            "every shared-warm hit must come from the shared segment, not local pools"
        );
        assert_eq!(
            ps.stages.solve_claimed, 0,
            "a shared-warm request duplicated a solve the peer already published"
        );
        shared_warm = Some(Json::obj(vec![
            ("requests", Json::num_u64(n)),
            ("lookup_hits", Json::num_u64(ps.stages.lookup_hits)),
            ("solve_claimed", Json::num_u64(ps.stages.solve_claimed)),
            ("shared_hits", Json::num_u64(sh.hits)),
            ("shared_seeded", Json::num_u64(sh.seeded)),
            ("segment_entries", Json::num_u64(sh.entries)),
            ("zero_duplicate_solves", Json::Bool(ps.stages.solve_claimed == 0)),
        ]));
        peer.shutdown();
    }

    let s = service.stats_snapshot();
    println!("# service: submitted {} completed {} coalesced {} rejected {}",
        s.service.submitted, s.service.completed, s.service.coalesced,
        s.service.rejected_queue_full);
    println!("# programs pool: {}", s.cache.programs);
    println!("# synthesis pool: {}", s.cache.synthesis);
    if let Some(st) = &s.store {
        println!("# store: {st}");
    }

    if let Some(path) = env::BENCH_JSON.path() {
        let mixed = Json::obj(vec![
            ("warm_requests", Json::num_u64(warm_n)),
            ("cold_requests", Json::num_u64(cold_n)),
            ("lookup_hits_delta", Json::num_u64(d_hits)),
            ("lookup_misses_delta", Json::num_u64(d_misses)),
            ("solve_claimed_delta", Json::num_u64(d_claimed)),
            ("program_misses_delta", Json::num_u64(d_prog_misses)),
            ("warm_overtakes", Json::num_u64(warm_overtakes)),
            ("zero_warm_solves", Json::Bool(zero_warm_solves)),
        ]);
        // Schema 1 was the unstamped original (pipelined latencies hard-
        // coded to 0). Schema 2 records real submit→completion latencies
        // (ns-sourced, emitted as fractional ms) and carries this stamp.
        let git_rev = env::BENCH_GIT_REV.var().unwrap_or_else(|| "unknown".into());
        let mut fields = vec![
            ("bench", Json::str("servebench")),
            ("schema_version", Json::num_u64(2)),
            ("git_rev", Json::str(&git_rev)),
            ("programs", Json::num_u64(programs.len() as u64)),
            ("requests", Json::num_u64(jobs.len() as u64)),
            ("tiers", Json::Arr(tiers)),
            ("mixed", mixed),
        ];
        if let Some(sw) = shared_warm {
            fields.push(("shared_warm", sw));
        }
        fields.push(("stats", s.to_json()));
        let doc = Json::obj(fields);
        match std::fs::write(&path, doc.emit() + "\n") {
            Ok(()) => eprintln!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    service.shutdown();
}
