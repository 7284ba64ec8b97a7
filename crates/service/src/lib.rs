#![warn(missing_docs)]
//! # reqisc-service
//!
//! The long-running compile-service subsystem: a resident daemon
//! (`reqiscd`) that accepts jobs over a line-delimited JSON protocol on a
//! Unix domain socket (or stdio), parses QASM / resolves benchsuite
//! program names, and drives everything through the shared
//! content-addressed [`reqisc_compiler::CompileCache`] engine — so the
//! ~1000× warm-cache wins of the persistent store reach interactive
//! callers without paying process startup, template-library synthesis,
//! and store cold-load per invocation.
//!
//! The subsystem owns:
//!
//! * **admission plus one solve queue** ([`service`]): submission probes
//!   the warm tiers inline and answers a hit at once, so a warm hit never
//!   queues behind a cold solve; only misses enter the solve queue, and
//!   the solve workers deliver their results;
//! * a **bounded priority queue** with non-blocking admission control
//!   ([`queue`]) — overload rejects with `queue_full`, never stalls the
//!   accept loop;
//! * **in-flight request coalescing** keyed by `(circuit content hash,
//!   pipeline, options fingerprint)` — N identical concurrent requests
//!   cost one compile and N responses ([`service`]);
//! * a **solve worker pool** sized like [`reqisc_compiler::Compiler`]'s
//!   `block_threads` (0 = hardware parallelism);
//! * **cache lifecycle management**: store load at startup, periodic and
//!   on-shutdown snapshots, and GC/compaction
//!   ([`reqisc_compiler::CacheStore::compact`]) that ages out entries no
//!   process references anymore;
//! * a **stats** endpoint returning every cache/store/queue counter as
//!   JSON ([`protocol::StatsSnapshot`]).
//!
//! ## Quick start (in-process, stdio transport)
//!
//! ```no_run
//! use reqisc_service::{serve_lines, Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig::default());
//! let requests = "{\"id\":1,\"op\":\"compile\",\"pipeline\":\"reqisc-eff\",\"qasm\":\"qubits 2\\ncx 0 1\\n\"}\n{\"id\":2,\"op\":\"stats\"}\n";
//! let mut out = Vec::new();
//! serve_lines(&service, requests.as_bytes(), &mut out).unwrap();
//! service.shutdown();
//! println!("{}", String::from_utf8(out).unwrap());
//! ```

pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;
pub mod sync;

pub use json::{Json, JsonError};
pub use protocol::{
    parse_request, CompileSource, Request, RequestBody, RingCounters as StageRingCounters,
    ServiceCounters, SharedCounters, StageCounters, StatsSnapshot,
};
pub use queue::{JobQueue, Priority, QueueFull, RingStats, DEFAULT_PRIORITY, MAX_PRIORITY};
pub use server::{serve_lines, ServeOutcome};
#[cfg(unix)]
pub use server::serve_unix;
pub use service::{
    DebugOp, JobDone, JobResult, Service, ServiceConfig, SnapshotReport, SubmitError, Ticket,
    DEFAULT_SHM_CAPACITY_BYTES,
};

/// The cache-directory environment variable every consumer of the
/// persistent store honours (`reqiscd --cache-dir` defaults to it, and
/// the bench binaries read it through `reqisc_bench`'s delegating
/// helper) — declared once in the [`reqisc_env`] registry; this is the
/// service-local alias.
pub const CACHE_DIR_ENV: &str = reqisc_env::CACHE_DIR.name;

/// Reads [`CACHE_DIR_ENV`] through the registry knob: `None` when unset
/// or empty.
pub fn cache_dir_from_env() -> Option<std::path::PathBuf> {
    reqisc_env::CACHE_DIR.path()
}
