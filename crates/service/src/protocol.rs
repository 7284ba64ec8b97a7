//! The wire protocol: line-delimited JSON requests and responses.
//!
//! ## Requests
//!
//! One JSON object per line. `id` is an arbitrary caller-chosen u64
//! echoed back in the response; `op` selects the operation:
//!
//! ```text
//! {"id":1,"op":"compile","pipeline":"reqisc-eff","qasm":"qubits 2\ncx 0 1\n","priority":7}
//! {"id":2,"op":"compile","pipeline":"reqisc-full","bench":"alu_v0"}
//! {"id":3,"op":"stats"}
//! {"id":4,"op":"snapshot"}
//! {"id":5,"op":"compact","max_idle_gens":2}
//! {"id":6,"op":"shutdown"}
//! ```
//!
//! `compile` takes exactly one of `qasm` (QASM-lite source, see
//! `reqisc_qcircuit::qasm`) or `bench` (a demo-suite program name);
//! `priority` is optional (0–9, default 5, higher first). Two debug ops,
//! `sleep` (`{"ms":N}`) and `panic`, exist behind the daemon's
//! `--debug-ops` flag so tests can pin queue semantics deterministically.
//!
//! ## Responses
//!
//! One JSON object per line, in request order per connection:
//!
//! ```text
//! {"id":1,"ok":true,"op":"compile","fingerprint":"6b86…","count_2q":1,"depth_2q":1,"duration_g":2.22,"coalesced":false,"done_seq":1}
//! {"id":3,"ok":true,"op":"stats","stats":{…}}
//! {"id":9,"ok":false,"error":"queue_full","detail":"queue full (capacity 256)"}
//! ```
//!
//! Error `error` codes are machine-matchable: `queue_full`, `bad_request`,
//! `parse_error`, `compile_failed`, `no_store`, `io`.

use crate::json::Json;
use crate::queue::{Priority, DEFAULT_PRIORITY, MAX_PRIORITY};
use reqisc_compiler::{CacheStats, CompileCacheStats, Metrics, Pipeline, SolverStats, StoreStats};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The program source of a compile request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileSource {
    /// Inline QASM-lite source text.
    Qasm(String),
    /// A benchsuite demo-scale program name (e.g. `alu_v0`).
    Bench(String),
}

/// A request's operation.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Compile a program through a pipeline.
    Compile {
        /// Where the program comes from.
        source: CompileSource,
        /// The pipeline to run.
        pipeline: Pipeline,
        /// Queue priority (0–9, higher first).
        priority: Priority,
    },
    /// Counter snapshot (service + cache + store) as JSON.
    Stats,
    /// Persist the cache pools to the store now.
    Snapshot,
    /// Snapshot + GC: drop entries idle for more than `max_idle_gens`
    /// store generations (`None` = the service's configured default).
    Compact {
        /// Idle-generation threshold override.
        max_idle_gens: Option<u64>,
    },
    /// Graceful shutdown: drain the queue, flush the store, exit.
    Shutdown,
    /// Debug (gated): hold a worker for `ms` milliseconds.
    DebugSleep {
        /// Hold duration in milliseconds.
        ms: u64,
    },
    /// Debug (gated): panic inside a worker (poisoned-job drill).
    DebugPanic,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description; the caller wraps it in a `bad_request`
/// (or `parse_error`) response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let id = v.get("id").and_then(Json::as_u64).ok_or("missing or invalid 'id'")?;
    let op = v.get("op").and_then(Json::as_str).ok_or("missing 'op'")?;
    let body = match op {
        "compile" => {
            let pipeline_name =
                v.get("pipeline").and_then(Json::as_str).ok_or("compile: missing 'pipeline'")?;
            let pipeline = Pipeline::from_name(pipeline_name).ok_or_else(|| {
                format!(
                    "compile: unknown pipeline '{pipeline_name}' (expected one of {})",
                    Pipeline::ALL.map(|p| p.name()).join(", ")
                )
            })?;
            let priority = match v.get("priority") {
                None => DEFAULT_PRIORITY,
                Some(p) => {
                    let p = p.as_u64().ok_or("compile: 'priority' must be an integer")?;
                    if p > MAX_PRIORITY as u64 {
                        return Err(format!("compile: priority {p} out of range 0–{MAX_PRIORITY}"));
                    }
                    p as Priority
                }
            };
            let source = match (v.get("qasm"), v.get("bench")) {
                (Some(q), None) => CompileSource::Qasm(
                    q.as_str().ok_or("compile: 'qasm' must be a string")?.to_string(),
                ),
                (None, Some(b)) => CompileSource::Bench(
                    b.as_str().ok_or("compile: 'bench' must be a string")?.to_string(),
                ),
                _ => return Err("compile: exactly one of 'qasm' or 'bench' required".into()),
            };
            RequestBody::Compile { source, pipeline, priority }
        }
        "stats" => RequestBody::Stats,
        "snapshot" => RequestBody::Snapshot,
        "compact" => RequestBody::Compact {
            max_idle_gens: match v.get("max_idle_gens") {
                None => None,
                Some(g) => Some(g.as_u64().ok_or("compact: 'max_idle_gens' must be an integer")?),
            },
        },
        "shutdown" => RequestBody::Shutdown,
        "sleep" => RequestBody::DebugSleep {
            ms: v.get("ms").and_then(Json::as_u64).ok_or("sleep: missing 'ms'")?,
        },
        "panic" => RequestBody::DebugPanic,
        other => return Err(format!("unknown op '{other}'")),
    };
    Ok(Request { id, body })
}

/// Builds a successful compile response. `done_seq` is the service's
/// global completion sequence number — the deterministic order handle
/// the stall-isolation tests assert with (warm hits must get lower
/// numbers than the cold solves they overtook).
pub fn compile_response(
    id: u64,
    fingerprint: u128,
    metrics: &Metrics,
    coalesced: bool,
    done_seq: u64,
) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(id)),
        ("ok", Json::Bool(true)),
        ("op", Json::str("compile")),
        ("fingerprint", Json::str(format!("{fingerprint:032x}"))),
        ("count_2q", Json::num_u64(metrics.count_2q as u64)),
        ("depth_2q", Json::num_u64(metrics.depth_2q as u64)),
        ("duration_g", Json::Num(metrics.duration)),
        ("coalesced", Json::Bool(coalesced)),
        ("done_seq", Json::num_u64(done_seq)),
    ])
}

/// Builds a plain success acknowledgement for `op`.
pub fn ok_response(id: u64, op: &str) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(id)),
        ("ok", Json::Bool(true)),
        ("op", Json::str(op)),
    ])
}

/// Builds an error response. `code` is machine-matchable (see module
/// docs); `detail` is free text.
pub fn error_response(id: u64, code: &str, detail: impl Into<String>) -> Json {
    Json::obj(vec![
        ("id", Json::num_u64(id)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(code)),
        ("detail", Json::str(detail.into())),
    ])
}

/// Point-in-time service-level counters (the queue/coalescing half of a
/// [`StatsSnapshot`]; cache and store counters ride alongside).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Jobs admitted (queued or coalesced).
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed (panicking pipeline, failing debug op).
    pub failed: u64,
    /// Requests answered by joining an in-flight identical job.
    pub coalesced: u64,
    /// Requests rejected because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Queued jobs dropped because every waiter disconnected before a
    /// worker claimed them (the compile never ran).
    pub cancelled: u64,
    /// Store snapshots (plain saves and compactions) taken.
    pub snapshots: u64,
    /// Jobs in the solve queue right now (gauge, not a counter).
    pub queue_depth: u64,
}

/// Transit counters of one queue, as reported in the `stages` member
/// of the `stats` JSON. `dequeued` counts every entry that left the
/// queue — claimed by a worker or removed by cancellation — so
/// `enqueued == dequeued + depth` always holds at a quiescent snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingCounters {
    /// Entries accepted into the queue.
    pub enqueued: u64,
    /// Entries that left the queue (claimed or cancelled).
    pub dequeued: u64,
    /// Entries resident right now (gauge).
    pub depth: u64,
    /// Total in-queue residence of claimed entries, microseconds
    /// (informational wall-clock — never CI-asserted).
    pub wait_us: u64,
}

/// Per-stage counters of the service core: the solve queue's transit
/// counters plus the admission and delivery scalars. The load-bearing
/// deterministic invariants (what the stall-isolation test and the mixed
/// servebench tier assert): a warm workload moves `lookup_hits` and
/// **not** `solve_claimed`; `delivered == completed + failed`; and every
/// admitted, non-coalesced compile submission counts under exactly one
/// of `lookup_hits` or `lookup_misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Always zero: the service has no submission ring. Kept so the
    /// `stats` JSON shape stays stable for existing readers.
    pub submission: RingCounters,
    /// The solve queue (true misses and debug ops only).
    pub solve: RingCounters,
    /// Always zero: the service has no completion ring (results are
    /// delivered directly). Kept so the `stats` JSON shape stays stable
    /// for existing readers.
    pub completion: RingCounters,
    /// Compile submissions answered warm at admission, from the local
    /// pool or the shared segment (these never entered the solve queue).
    pub lookup_hits: u64,
    /// Compile submissions that missed both warm tiers and were queued
    /// for a solve.
    pub lookup_misses: u64,
    /// Jobs (of any kind) claimed by a solve worker.
    pub solve_claimed: u64,
    /// Outcomes delivered to waiters (warm hits, solves, debug ops).
    pub delivered: u64,
}

/// Counters of the shared-memory cache tier (the cross-daemon segment).
/// The CI-asserted invariant: a daemon whose whole workload was solved
/// by a peer on the same segment shows `hits > 0` and `solve_claimed ==
/// 0` — warm across processes with zero duplicate solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCounters {
    /// Admission probes answered by the shared segment (each is also a
    /// `lookup_hits` warm hit; `hits <= lookup_hits`).
    pub hits: u64,
    /// Entries this daemon newly appended to the segment.
    pub published: u64,
    /// Publishes that found the entry already present (a peer — or an
    /// earlier pass — won the race; the common case for a warm pool).
    pub duplicates: u64,
    /// Publishes rejected because the segment was full.
    pub full_rejects: u64,
    /// Entries seeded into the local pools from the segment at startup.
    pub seeded: u64,
    /// Entries resident in the segment right now (gauge).
    pub entries: u64,
    /// The segment's GC generation clock (gauge).
    pub generation: u64,
}

/// Everything the `stats` op reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Service-level queue/coalescing counters.
    pub service: ServiceCounters,
    /// Solve-queue, admission and delivery counters.
    pub stages: StageCounters,
    /// Compile-cache pool counters.
    pub cache: CompileCacheStats,
    /// Store counters (`None` when the service runs without a store).
    pub store: Option<StoreStats>,
    /// Shared-segment counters (`None` when no segment is attached).
    pub shared: Option<SharedCounters>,
}

fn solver_stats_json(s: &SolverStats) -> Json {
    Json::obj(vec![
        ("solves", Json::num_u64(s.solves)),
        ("failures", Json::num_u64(s.failures)),
        ("evals", Json::num_u64(s.evals)),
        ("verifies", Json::num_u64(s.verifies)),
        ("curve_points", Json::num_u64(s.curve_points)),
        ("newton_starts", Json::num_u64(s.newton_starts)),
        ("newton_iters", Json::num_u64(s.newton_iters)),
        ("boundary_roots", Json::num_u64(s.boundary_roots)),
        ("interior_roots", Json::num_u64(s.interior_roots)),
        ("early_rejects", Json::num_u64(s.early_rejects)),
        ("degenerate_targets", Json::num_u64(s.degenerate_targets)),
    ])
}

fn solver_stats_from(v: &Json) -> Result<SolverStats, String> {
    let f = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
    Ok(SolverStats {
        solves: f("solves")?,
        failures: f("failures")?,
        evals: f("evals")?,
        verifies: f("verifies")?,
        curve_points: f("curve_points")?,
        newton_starts: f("newton_starts")?,
        newton_iters: f("newton_iters")?,
        boundary_roots: f("boundary_roots")?,
        interior_roots: f("interior_roots")?,
        early_rejects: f("early_rejects")?,
        degenerate_targets: f("degenerate_targets")?,
    })
}

fn ring_counters_json(r: &RingCounters) -> Json {
    Json::obj(vec![
        ("enqueued", Json::num_u64(r.enqueued)),
        ("dequeued", Json::num_u64(r.dequeued)),
        ("depth", Json::num_u64(r.depth)),
        ("wait_us", Json::num_u64(r.wait_us)),
    ])
}

fn ring_counters_from(v: &Json) -> Result<RingCounters, String> {
    let f = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
    Ok(RingCounters {
        enqueued: f("enqueued")?,
        dequeued: f("dequeued")?,
        depth: f("depth")?,
        wait_us: f("wait_us")?,
    })
}

fn stage_counters_json(s: &StageCounters) -> Json {
    Json::obj(vec![
        ("submission", ring_counters_json(&s.submission)),
        ("solve", ring_counters_json(&s.solve)),
        ("completion", ring_counters_json(&s.completion)),
        ("lookup_hits", Json::num_u64(s.lookup_hits)),
        ("lookup_misses", Json::num_u64(s.lookup_misses)),
        ("solve_claimed", Json::num_u64(s.solve_claimed)),
        ("delivered", Json::num_u64(s.delivered)),
    ])
}

fn stage_counters_from(v: &Json) -> Result<StageCounters, String> {
    let f = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
    Ok(StageCounters {
        submission: ring_counters_from(v.get("submission").ok_or("missing 'submission'")?)?,
        solve: ring_counters_from(v.get("solve").ok_or("missing 'solve'")?)?,
        completion: ring_counters_from(v.get("completion").ok_or("missing 'completion'")?)?,
        lookup_hits: f("lookup_hits")?,
        lookup_misses: f("lookup_misses")?,
        solve_claimed: f("solve_claimed")?,
        delivered: f("delivered")?,
    })
}

fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::num_u64(s.hits)),
        ("misses", Json::num_u64(s.misses)),
        ("inserts", Json::num_u64(s.inserts)),
        ("evictions", Json::num_u64(s.evictions)),
    ])
}

fn cache_stats_from(v: &Json) -> Result<CacheStats, String> {
    let f = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
    Ok(CacheStats {
        hits: f("hits")?,
        misses: f("misses")?,
        inserts: f("inserts")?,
        evictions: f("evictions")?,
    })
}

impl StatsSnapshot {
    /// Serializes every counter (the `stats` member of a stats response).
    pub fn to_json(&self) -> Json {
        let sc = &self.service;
        let mut members = vec![
            (
                "service",
                Json::obj(vec![
                    ("submitted", Json::num_u64(sc.submitted)),
                    ("completed", Json::num_u64(sc.completed)),
                    ("failed", Json::num_u64(sc.failed)),
                    ("coalesced", Json::num_u64(sc.coalesced)),
                    ("rejected_queue_full", Json::num_u64(sc.rejected_queue_full)),
                    ("cancelled", Json::num_u64(sc.cancelled)),
                    ("snapshots", Json::num_u64(sc.snapshots)),
                    ("queue_depth", Json::num_u64(sc.queue_depth)),
                ]),
            ),
            ("stages", stage_counters_json(&self.stages)),
            (
                "cache",
                Json::obj(vec![
                    ("programs", cache_stats_json(&self.cache.programs)),
                    ("synthesis", cache_stats_json(&self.cache.synthesis)),
                    ("pulses", cache_stats_json(&self.cache.pulses)),
                    ("solver", solver_stats_json(&self.cache.solver)),
                ]),
            ),
        ];
        if let Some(st) = &self.store {
            members.push((
                "store",
                Json::obj(vec![
                    ("loaded_entries", Json::num_u64(st.loaded_entries)),
                    ("saved_entries", Json::num_u64(st.saved_entries)),
                    ("rejected", Json::num_u64(st.rejected)),
                    ("compactions", Json::num_u64(st.compactions)),
                    ("gc_dropped", Json::num_u64(st.gc_dropped)),
                ]),
            ));
        }
        if let Some(sh) = &self.shared {
            members.push((
                "shared",
                Json::obj(vec![
                    ("hits", Json::num_u64(sh.hits)),
                    ("published", Json::num_u64(sh.published)),
                    ("duplicates", Json::num_u64(sh.duplicates)),
                    ("full_rejects", Json::num_u64(sh.full_rejects)),
                    ("seeded", Json::num_u64(sh.seeded)),
                    ("entries", Json::num_u64(sh.entries)),
                    ("generation", Json::num_u64(sh.generation)),
                ]),
            ));
        }
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses a stats JSON back into counters — the inverse of
    /// [`StatsSnapshot::to_json`], used by the client's assertion flags
    /// and pinned by the round-trip test.
    ///
    /// # Errors
    ///
    /// A description of the first missing/invalid member.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let sv = v.get("service").ok_or("missing 'service'")?;
        let f = |k: &str| sv.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"));
        let service = ServiceCounters {
            submitted: f("submitted")?,
            completed: f("completed")?,
            failed: f("failed")?,
            coalesced: f("coalesced")?,
            rejected_queue_full: f("rejected_queue_full")?,
            cancelled: f("cancelled")?,
            snapshots: f("snapshots")?,
            queue_depth: f("queue_depth")?,
        };
        let stages = stage_counters_from(v.get("stages").ok_or("missing 'stages'")?)?;
        let cv = v.get("cache").ok_or("missing 'cache'")?;
        let cache = CompileCacheStats {
            programs: cache_stats_from(cv.get("programs").ok_or("missing 'programs'")?)?,
            synthesis: cache_stats_from(cv.get("synthesis").ok_or("missing 'synthesis'")?)?,
            pulses: cache_stats_from(cv.get("pulses").ok_or("missing 'pulses'")?)?,
            solver: solver_stats_from(cv.get("solver").ok_or("missing 'solver'")?)?,
        };
        let store = match v.get("store") {
            None => None,
            Some(st) => {
                let f = |k: &str| {
                    st.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"))
                };
                Some(StoreStats {
                    loaded_entries: f("loaded_entries")?,
                    saved_entries: f("saved_entries")?,
                    rejected: f("rejected")?,
                    compactions: f("compactions")?,
                    gc_dropped: f("gc_dropped")?,
                })
            }
        };
        let shared = match v.get("shared") {
            None => None,
            Some(sh) => {
                let f = |k: &str| {
                    sh.get(k).and_then(Json::as_u64).ok_or(format!("missing counter '{k}'"))
                };
                Some(SharedCounters {
                    hits: f("hits")?,
                    published: f("published")?,
                    duplicates: f("duplicates")?,
                    full_rejects: f("full_rejects")?,
                    seeded: f("seeded")?,
                    entries: f("entries")?,
                    generation: f("generation")?,
                })
            }
        };
        Ok(StatsSnapshot { service, stages, cache, store, shared })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_compile_requests() {
        let r = parse_request(
            r#"{"id":3,"op":"compile","pipeline":"reqisc-eff","qasm":"qubits 1\nh 0\n"}"#,
        )
        .expect("parse");
        assert_eq!(r.id, 3);
        match r.body {
            RequestBody::Compile { source: CompileSource::Qasm(q), pipeline, priority } => {
                assert_eq!(q, "qubits 1\nh 0\n");
                assert_eq!(pipeline, Pipeline::ReqiscEff);
                assert_eq!(priority, DEFAULT_PRIORITY);
            }
            other => panic!("wrong body {other:?}"),
        }
        let r = parse_request(
            r#"{"id":4,"op":"compile","pipeline":"qiskit","bench":"alu_v0","priority":9}"#,
        )
        .expect("parse");
        assert!(matches!(
            r.body,
            RequestBody::Compile { source: CompileSource::Bench(_), priority: 9, .. }
        ));
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            r#"{"op":"stats"}"#,                                        // no id
            r#"{"id":1}"#,                                              // no op
            r#"{"id":1,"op":"noop"}"#,                                  // unknown op
            r#"{"id":1,"op":"compile","pipeline":"nope","bench":"x"}"#, // bad pipeline
            r#"{"id":1,"op":"compile","pipeline":"qiskit"}"#,           // no source
            r#"{"id":1,"op":"compile","pipeline":"qiskit","bench":"x","qasm":"y"}"#, // both
            r#"{"id":1,"op":"compile","pipeline":"qiskit","bench":"x","priority":12}"#, // range
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn stats_snapshot_roundtrips_all_counters() {
        let snap = StatsSnapshot {
            service: ServiceCounters {
                submitted: 10,
                completed: 8,
                failed: 1,
                coalesced: 3,
                rejected_queue_full: 2,
                cancelled: 5,
                snapshots: 4,
                queue_depth: 1,
            },
            stages: StageCounters {
                submission: RingCounters { enqueued: 10, dequeued: 9, depth: 1, wait_us: 120 },
                solve: RingCounters { enqueued: 6, dequeued: 6, depth: 0, wait_us: 90 },
                completion: RingCounters { enqueued: 9, dequeued: 9, depth: 0, wait_us: 15 },
                lookup_hits: 3,
                lookup_misses: 6,
                solve_claimed: 6,
                delivered: 9,
            },
            cache: CompileCacheStats {
                programs: CacheStats { hits: 5, misses: 3, inserts: 3, evictions: 1 },
                synthesis: CacheStats { hits: 50, misses: 30, inserts: 30, evictions: 0 },
                pulses: CacheStats { hits: 7, misses: 2, inserts: 2, evictions: 0 },
                solver: SolverStats {
                    solves: 2,
                    failures: 0,
                    evals: 900,
                    verifies: 12,
                    curve_points: 40,
                    newton_starts: 6,
                    newton_iters: 55,
                    boundary_roots: 1,
                    interior_roots: 1,
                    early_rejects: 3,
                    degenerate_targets: 1,
                },
            },
            store: Some(StoreStats {
                loaded_entries: 100,
                saved_entries: 120,
                rejected: 0,
                compactions: 2,
                gc_dropped: 17,
            }),
            shared: Some(SharedCounters {
                hits: 11,
                published: 6,
                duplicates: 4,
                full_rejects: 1,
                seeded: 9,
                entries: 15,
                generation: 3,
            }),
        };
        let j = snap.to_json();
        let back = StatsSnapshot::from_json(&Json::parse(&j.emit()).expect("emit parses"))
            .expect("from_json");
        assert_eq!(back, snap, "every counter must survive the wire");
        // Store-less / segment-less snapshots round-trip too.
        let no_store = StatsSnapshot { store: None, shared: None, ..snap };
        let back = StatsSnapshot::from_json(&no_store.to_json()).expect("from_json");
        assert_eq!(back, no_store);
    }
}
