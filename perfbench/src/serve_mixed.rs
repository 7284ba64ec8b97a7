//! `serve_mixed`: a `reqiscd` daemon with the shared-memory segment
//! attached receives open-loop compile requests as QASM over its Unix
//! socket. Warm requests repeat programs that set-up compiled (a
//! popularity-skewed draw); cold requests are never-seen random reversible
//! networks under ReQISC-Full. Warm and cold requests travel on separate
//! connections, because the server answers in request order per connection
//! and a warm reply would otherwise wait behind a cold one on the wire
//! rather than in the service.

use crate::hostspeed::HostSpeed;
use crate::report::{
    median, peak_rss_mb, percentile, EndToEnd, PerLayer, Pools, Report, ServiceCounts,
};
use crate::trace::Tracer;
use crate::{shuffle, Args, SETUP_REPS};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use reqisc_benchsuite::generators::reversible_network;
use reqisc_benchsuite::{suite, Scale};
use reqisc_compiler::Pipeline;
use reqisc_microarch::{CacheStats, SolverStats};
use reqisc_qcircuit::{qasm, Circuit};
use reqisc_service::{Json, StatsSnapshot};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Pipelines of the warm set: every demo program under each is compiled
/// during set-up, so the measured warm requests are pool hits.
const WARM_PIPELINES: [Pipeline; 3] = [Pipeline::ReqiscEff, Pipeline::Qiskit, Pipeline::TketSu4];

/// Offered warm rate, requests per second: 3000 in a 30 s window.
const WARM_RATE: f64 = 100.0;

/// Offered cold rate, requests per second: 10 in a 30 s window, 2.7 s
/// apart. A cold ReQISC-Full compile of these programs takes ~0.5–2.3 s
/// on one core (up to ~3 s on a busy host), so the one solve worker runs
/// at about a third of its capacity and a cold request seldom waits for
/// another: queueing would make the cold latency grow faster than the
/// host's slowdown that the reference unit takes out.
const COLD_RATE: f64 = 1.0 / 3.0;

/// Share of warm requests that go to the hot set.
const HOT_SHARE: f64 = 0.8;

/// Warm entries per popularity stratum; one of each is hot.
const STRATUM: usize = 5;

/// Seed of the warm request mix (see [`warm_mix`]).
const WARM_MIX_SEED: u64 = 0x5eed_3a2d;

/// Seed of the cold corpus (see [`cold_corpus`]).
const COLD_CORPUS_SEED: u64 = 0x5eed_c01d;

/// Cold requests are due only in the first part of the window, so the
/// last of them normally completes inside it.
const COLD_WINDOW_SHARE: f64 = 0.9;

/// Compile requests kept in flight while pre-warming (well below the
/// daemon's queue capacity, so set-up is never refused).
const PREWARM_WINDOW: usize = 32;

/// How long to wait for a daemon to accept connections or exit.
const DAEMON_WAIT: Duration = Duration::from_secs(30);

/// Longest sleep of the sending thread, which also polls for cold replies.
const POLL_SLICE: Duration = Duration::from_millis(5);

/// Least time to the next due request for the sending thread to run a
/// host-speed reference chunk (~0.35 ms) first.
const REF_SLACK: Duration = Duration::from_millis(2);

/// How long after the window the generator waits for outstanding replies.
const DRAIN_WAIT: Duration = Duration::from_secs(60);

/// One running `reqiscd` process, shut down (or killed) on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
    shm: PathBuf,
}

impl Daemon {
    fn spawn(reqiscd: &Path, dir: &Path, tag: &str) -> Result<Self, String> {
        let socket = dir.join(format!("{tag}.sock"));
        let shm = dir.join(format!("{tag}.shm"));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&shm);
        let child = Command::new(reqiscd)
            .arg("--socket")
            .arg(&socket)
            .arg("--shm-path")
            .arg(&shm)
            .args(["--workers", "1", "--snapshot-secs", "0"])
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", reqiscd.display()))?;
        Ok(Self { child, socket, shm })
    }

    fn connect(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return Conn::new(s),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("daemon never accepted: {e}"))
                }
                Err(_) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        // The daemon may close the connection before its reply is written:
        // it shuts every connection down as it exits. Either way it exits.
        conn.send(
            &Json::obj(vec![
                ("id", Json::num_u64(0)),
                ("op", Json::str("shutdown")),
            ])
            .emit(),
        )?;
        let _ = conn.recv(Some(DAEMON_WAIT));
        let deadline = Instant::now() + DAEMON_WAIT;
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(&self.shm);
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: Vec<u8>,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Self, String> {
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            reader,
            writer: stream,
            line: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Reads one reply, waiting at most `timeout` (`None` = forever).
    /// `Ok(None)` means the wait ran out; a partial line is kept for the
    /// next call.
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Json>, String> {
        let timeout = timeout.map(|t| t.max(Duration::from_micros(1)));
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| e.to_string())?;
        match self.reader.read_until(b'\n', &mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) if self.line.ends_with(b"\n") => {
                let text = String::from_utf8_lossy(&self.line).into_owned();
                self.line.clear();
                Json::parse(text.trim_end())
                    .map(Some)
                    .map_err(|e| e.to_string())
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    fn call(&mut self, request: &Json) -> Result<Json, String> {
        self.send(&request.emit())?;
        loop {
            if let Some(reply) = self.recv(None)? {
                return Ok(reply);
            }
        }
    }

    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        let reply = self.call(&Json::obj(vec![
            ("id", Json::num_u64(0)),
            ("op", Json::str("stats")),
        ]))?;
        StatsSnapshot::from_json(reply.get("stats").ok_or("stats reply without 'stats'")?)
    }
}

fn compile_line(id: u64, pipeline: Pipeline, qasm_text: &str) -> String {
    Json::obj(vec![
        ("id", Json::num_u64(id)),
        ("op", Json::str("compile")),
        ("pipeline", Json::str(pipeline.name())),
        ("qasm", Json::str(qasm_text)),
    ])
    .emit()
}

fn fingerprint(reply: &Json) -> Option<String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Compiles the whole warm set through `conn`, keeping a bounded window
/// in flight, and returns each entry's fingerprint. With a tracer, each
/// request gets a span from its send to its reply.
fn prewarm(
    conn: &mut Conn,
    warm: &[(Pipeline, String)],
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<String>, String> {
    let mut prints = Vec::with_capacity(warm.len());
    let mut sent_at = Vec::with_capacity(warm.len());
    while prints.len() < warm.len() {
        let sent = sent_at.len();
        if sent < warm.len() && sent - prints.len() < PREWARM_WINDOW {
            let (p, text) = &warm[sent];
            sent_at.push(Instant::now());
            conn.send(&compile_line(sent as u64, *p, text))?;
            continue;
        }
        if let Some(reply) = conn.recv(None)? {
            let i = prints.len();
            check_id(&reply, i)?;
            if let Some(t) = tracer.as_deref_mut() {
                t.record("service.prewarm", i as u64, sent_at[i], Instant::now());
            }
            let print = fingerprint(&reply)
                .ok_or_else(|| format!("pre-warm compile failed: {}", reply.emit()))?;
            prints.push(print);
        }
    }
    Ok(prints)
}

/// A request of the open-loop schedule.
struct Planned {
    /// When it is due, from the start of the window.
    due: Duration,
    /// The request line.
    line: String,
    /// Index into the warm set, or into the cold stream.
    index: usize,
}

/// What happened to one planned request.
#[derive(Debug, Clone, Default)]
struct Outcome {
    /// How late the generator sent it.
    lag: Duration,
    /// Due time to reply; `None` when no reply came.
    latency: Option<Duration>,
    /// The reply's fingerprint when it reported success.
    fingerprint: Option<String>,
    /// The reply's error code otherwise.
    error: Option<String>,
    /// 2Q gates and XY critical-path duration (g⁻¹) of the compiled
    /// program, as the reply reports them.
    count_2q: u64,
    duration_g: f64,
    /// Reply time from the start of the window.
    done: Duration,
}

/// Fills `o` from the reply to a request that was due at `due`.
fn record(o: &mut Outcome, due: Duration, done: Duration, reply: &Json) {
    o.done = done;
    o.latency = Some(done.saturating_sub(due));
    o.fingerprint = fingerprint(reply);
    o.count_2q = reply.get("count_2q").and_then(Json::as_u64).unwrap_or(0);
    o.duration_g = reply.get("duration_g").and_then(Json::as_f64).unwrap_or(0.0);
    if o.fingerprint.is_none() {
        o.error = Some(
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
        );
    }
}

fn check_id(reply: &Json, expected: usize) -> Result<(), String> {
    if reply.get("id").and_then(Json::as_u64) == Some(expected as u64) {
        Ok(())
    } else {
        Err(format!("reply out of order: {}", reply.emit()))
    }
}

/// Runs the open loop on two threads. This thread sends every request of
/// both plans as it falls due, sleeping in between, and picks up cold
/// replies with non-blocking reads at least every [`POLL_SLICE`]; a second
/// thread blocks on the warm connection and stamps each warm reply the
/// moment it arrives. Replies arrive in request order per connection.
fn generate(
    warm: &mut Conn,
    cold: &mut Conn,
    warm_plan: &[Planned],
    cold_plan: &[Planned],
    t0: Instant,
    speed: &mut HostSpeed,
) -> Result<(Vec<Outcome>, Vec<Outcome>), String> {
    let mut warm_reader = Conn::new(warm.writer.try_clone().map_err(|e| e.to_string())?)?;
    cold.writer
        .set_nonblocking(true)
        .map_err(|e| e.to_string())?;
    let last_due = warm_plan
        .iter()
        .chain(cold_plan)
        .map(|p| p.due)
        .max()
        .unwrap_or_default();
    let deadline = t0 + last_due + DRAIN_WAIT;
    let mut warm_out = vec![Outcome::default(); warm_plan.len()];
    let mut cold_out = vec![Outcome::default(); cold_plan.len()];
    let replies = std::thread::scope(|s| {
        let reader = s.spawn(|| -> Result<Vec<(Duration, Json)>, String> {
            let mut got = Vec::with_capacity(warm_plan.len());
            while got.len() < warm_plan.len() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(format!(
                        "{} warm replies missing",
                        warm_plan.len() - got.len()
                    ));
                }
                if let Some(reply) = warm_reader.recv(Some(left))? {
                    got.push((t0.elapsed(), reply));
                }
            }
            Ok(got)
        });
        let (mut wi, mut ci, mut cold_answered) = (0, 0, 0);
        let sent = (|| -> Result<(), String> {
            loop {
                while let Some(reply) = cold.recv(None)? {
                    let i = cold_answered;
                    check_id(&reply, i)?;
                    record(&mut cold_out[i], cold_plan[i].due, t0.elapsed(), &reply);
                    cold_answered += 1;
                }
                let now = t0.elapsed();
                let next = match (warm_plan.get(wi), cold_plan.get(ci)) {
                    (Some(w), Some(c)) if c.due < w.due => Some((false, c)),
                    (Some(w), _) => Some((true, w)),
                    (None, Some(c)) => Some((false, c)),
                    (None, None) => None,
                };
                match next {
                    Some((is_warm, p)) if now >= p.due => {
                        if is_warm {
                            warm.send(&p.line)?;
                            warm_out[wi].lag = now - p.due;
                            wi += 1;
                        } else {
                            cold.send(&p.line)?;
                            cold_out[ci].lag = now - p.due;
                            ci += 1;
                        }
                    }
                    Some((_, p)) => {
                        // The reference runs only when the next request is
                        // not due for a while, so it never delays a send.
                        if p.due - now >= REF_SLACK {
                            speed.tick();
                        }
                        let now = t0.elapsed();
                        if p.due > now {
                            std::thread::sleep((p.due - now).min(POLL_SLICE));
                        }
                    }
                    None if cold_answered == cold_plan.len() => return Ok(()),
                    None if Instant::now() > deadline => {
                        return Err(format!(
                            "{} cold replies missing",
                            cold_plan.len() - cold_answered
                        ))
                    }
                    None => {
                        speed.tick();
                        std::thread::sleep(POLL_SLICE);
                    }
                }
            }
        })();
        let replies = reader
            .join()
            .unwrap_or_else(|_| Err("warm reader panicked".into()));
        sent.and(replies)
    })?;
    for (i, (done, reply)) in replies.iter().enumerate() {
        check_id(reply, i)?;
        record(&mut warm_out[i], warm_plan[i].due, *done, reply);
    }
    Ok((warm_out, cold_out))
}

/// `n` due times of a Poisson stream conditioned on its count: sorted
/// uniform draws over `[0, window)`.
fn poisson_dues(n: usize, window: Duration, rng: &mut StdRng) -> Vec<Duration> {
    let mut dues: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(0.0..window.as_secs_f64()))
        .collect();
    dues.sort_by(f64::total_cmp);
    dues.into_iter().map(Duration::from_secs_f64).collect()
}

/// The warm request mix: how often each warm entry is requested.
///
/// The skew is fixed: in every pipeline, the entries are ranked by source
/// size and one entry of every [`STRATUM`] consecutive ranks is hot, drawn
/// once from [`WARM_MIX_SEED`]. Hot entries share [`HOT_SHARE`] of the warm
/// requests evenly and the others share the rest. A warm reply's cost grows
/// with the size of the program (the daemon prices every circuit it
/// returns), so a mix drawn per seed would move the warm percentiles
/// between seeds by which large programs happened to be hot; the seed
/// instead sets the order and the arrival times.
fn warm_mix(sizes: &[(Pipeline, usize)], total: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(WARM_MIX_SEED);
    let mut hot = Vec::new();
    let mut rest = Vec::new();
    for p in WARM_PIPELINES {
        let mut ranked: Vec<usize> = (0..sizes.len()).filter(|&i| sizes[i].0 == p).collect();
        ranked.sort_by_key(|&i| (sizes[i].1, i));
        for stratum in ranked.chunks(STRATUM) {
            let pick = rng.gen_range(0..stratum.len());
            for (j, &i) in stratum.iter().enumerate() {
                if j == pick {
                    hot.push(i)
                } else {
                    rest.push(i)
                }
            }
        }
    }
    let per_hot = (HOT_SHARE * total as f64 / hot.len() as f64)
        .round()
        .max(1.0) as usize;
    let per_rest = ((1.0 - HOT_SHARE) * total as f64 / rest.len() as f64).round() as usize;
    let mut mix = Vec::new();
    for &i in &hot {
        mix.extend(std::iter::repeat_n(i, per_hot));
    }
    for &i in &rest {
        mix.extend(std::iter::repeat_n(i, per_rest));
    }
    mix
}

/// Counter deltas over the measured window.
struct Delta {
    before: StatsSnapshot,
    after: StatsSnapshot,
}

impl Delta {
    fn of(&self, f: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        f(&self.after).saturating_sub(f(&self.before))
    }
}

/// The cold requests: `n` distinct random reversible networks on 4–6
/// qubits with 20–40 gates, never seen by the daemon.
///
/// The corpus and its order are the same for every seed. One cold
/// ReQISC-Full compile takes from ~0.5 s to ~2.3 s depending on the
/// program, and a run can afford only about a dozen, so a corpus drawn per
/// seed would move the cold percentiles between seeds by more than the
/// regressions they are meant to catch. The order is fixed too, because
/// the programs share blocks through the synthesis pool: whichever comes
/// first pays for a shared block's search.
fn cold_corpus(n: usize) -> Vec<Circuit> {
    let mut rng = StdRng::seed_from_u64(COLD_CORPUS_SEED);
    let mut seen = HashSet::new();
    let mut corpus = Vec::with_capacity(n);
    while corpus.len() < n {
        let qubits = rng.gen_range(4..=6usize);
        let gates = rng.gen_range(20..=40usize);
        let c = reversible_network(qubits, gates, rng.next_u64());
        if seen.insert(c.content_hash()) {
            corpus.push(c);
        }
    }
    corpus
}

/// Everything one run measured.
struct Measured {
    setup_s: f64,
    /// Median pre-warm time of the set-ups, and of one traced pre-warm
    /// (traced runs only).
    prewarm_s: f64,
    traced_prewarm_s: Option<f64>,
    warm: Vec<Outcome>,
    cold: Vec<Outcome>,
    warm_ok: Vec<bool>,
    window: Duration,
    delta: Delta,
    peak_rss_mb: Option<f64>,
    emit_s: f64,
    /// Mean host-speed reference chunk over the window, in ms.
    ref_ms: f64,
}

fn spawn_and_prewarm(
    reqiscd: &Path,
    dir: &Path,
    tag: String,
    warm_set: &[(Pipeline, String)],
    tracer: Option<&mut Tracer>,
) -> Result<(Daemon, Conn, Vec<String>, f64), String> {
    let mut d = Daemon::spawn(reqiscd, dir, &tag)?;
    let mut conn = d.connect()?;
    let t = Instant::now();
    let prints = prewarm(&mut conn, warm_set, tracer)?;
    Ok((d, conn, prints, t.elapsed().as_secs_f64()))
}

fn measure(args: &Args, tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let reqiscd = args
        .reqiscd
        .as_deref()
        .ok_or("serve_mixed needs --reqiscd PATH")?;
    let dir = &args.work_dir;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let window = Duration::from_secs(args.seconds);

    let programs = suite(Scale::Demo);
    let cold = cold_corpus((COLD_RATE * window.as_secs_f64()).round().max(1.0) as usize);
    let t = Instant::now();
    let warm_set: Vec<(Pipeline, String)> = WARM_PIPELINES
        .iter()
        .flat_map(|&p| programs.iter().map(move |b| (p, qasm::emit(&b.circuit))))
        .collect();
    let cold_set: Vec<String> = cold.iter().map(qasm::emit).collect();
    let emit_s = t.elapsed().as_secs_f64();
    let sizes: Vec<(Pipeline, usize)> = WARM_PIPELINES
        .iter()
        .flat_map(|&p| programs.iter().map(move |b| (p, b.circuit.len())))
        .collect();

    // Set-up: start a daemon on a fresh segment and pre-warm it, several
    // times; the last daemon serves the measured window.
    let tag = |rep: &str| format!("reqiscd-{}-{rep}", std::process::id());
    let mut setups = Vec::new();
    let mut prewarms = Vec::new();
    let mut prints: Option<Vec<String>> = None;
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (d, mut conn, p, prewarm_s) =
            spawn_and_prewarm(reqiscd, dir, tag(&rep.to_string()), &warm_set, None)?;
        setups.push(t.elapsed().as_secs_f64());
        prewarms.push(prewarm_s);
        eprintln!("# serve_mixed: set-up {rep} took {:.3} s", setups[rep]);
        if prints.as_ref().is_some_and(|q| *q != p) {
            return Err("pre-warm fingerprints differ between daemons".into());
        }
        prints = Some(p);
        if rep + 1 < SETUP_REPS {
            d.shutdown(&mut conn)?;
        } else {
            daemon = Some((d, conn));
        }
    }
    let (mut daemon, mut warm_conn) = daemon.ok_or("no set-up ran")?;
    let prints = prints.ok_or("no set-up ran")?;
    // A traced run pre-warms one more fresh daemon with a span around each
    // request, for the tracing overhead.
    let traced_prewarm_s = match tracer {
        Some(t) => {
            let (d, mut conn, p, s) = spawn_and_prewarm(reqiscd, dir, tag("traced"), &warm_set, Some(t))?;
            d.shutdown(&mut conn)?;
            if p != prints {
                return Err("traced pre-warm fingerprints differ".into());
            }
            Some(s)
        }
        None => None,
    };
    let mut cold_conn = daemon.connect()?;

    let mut mix = warm_mix(&sizes, (WARM_RATE * window.as_secs_f64()).round() as usize);
    shuffle(&mut mix, &mut rng);
    let warm_plan: Vec<Planned> = poisson_dues(mix.len(), window, &mut rng)
        .into_iter()
        .zip(mix)
        .enumerate()
        .map(|(i, (due, index))| {
            let (p, text) = &warm_set[index];
            Planned {
                due,
                line: compile_line(i as u64, *p, text),
                index,
            }
        })
        .collect();
    let cold_spacing = window.mul_f64(COLD_WINDOW_SHARE / cold_set.len() as f64);
    let cold_plan: Vec<Planned> = cold_set
        .iter()
        .enumerate()
        .map(|(i, text)| Planned {
            due: cold_spacing.mul_f64(i as f64 + 0.5),
            line: compile_line(i as u64, Pipeline::ReqiscFull, text),
            index: i,
        })
        .collect();

    let before = warm_conn.stats()?;
    let mut speed = HostSpeed::new();
    let (warm, cold) = generate(
        &mut warm_conn,
        &mut cold_conn,
        &warm_plan,
        &cold_plan,
        Instant::now(),
        &mut speed,
    )?;
    let after = warm_conn.stats()?;
    let peak = peak_rss_mb(Some(daemon.child.id()));
    daemon.shutdown(&mut warm_conn)?;

    let warm_ok = warm
        .iter()
        .zip(&warm_plan)
        .map(|(o, p)| o.fingerprint.as_deref() == Some(prints[p.index].as_str()))
        .collect();
    Ok(Measured {
        setup_s: median(&setups),
        prewarm_s: median(&prewarms),
        traced_prewarm_s,
        warm,
        cold,
        warm_ok,
        window,
        delta: Delta { before, after },
        peak_rss_mb: peak,
        emit_s,
        ref_ms: speed.unit_ms(),
    })
}

/// Latencies in ms; a request without a successful reply counts as the
/// whole window, a miss of any latency limit.
fn latencies_ms(outcomes: &[Outcome], ok: impl Fn(usize) -> bool, window: Duration) -> Vec<f64> {
    outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| match o.latency {
            Some(l) if ok(i) => l.as_secs_f64() * 1e3,
            _ => window.as_secs_f64() * 1e3,
        })
        .collect()
}

/// Applies the response and conservation checks; returns the failed
/// request count.
fn check(m: &Measured, report: &mut Report) -> u64 {
    let warm_bad = m.warm_ok.iter().filter(|ok| !**ok).count() as u64;
    let cold_bad = m.cold.iter().filter(|o| o.fingerprint.is_none()).count() as u64;
    let first_error = m
        .warm
        .iter()
        .chain(&m.cold)
        .find_map(|o| o.error.as_deref());
    if warm_bad > 0 {
        report.fail_check(format!(
            "{warm_bad} warm replies failed or differ from their pre-warm fingerprint (first error: {first_error:?})"
        ));
    }
    if cold_bad > 0 {
        report.fail_check(format!(
            "{cold_bad} cold requests failed (first error: {first_error:?})"
        ));
    }
    let d = &m.delta;
    let sent = (m.warm.len() + m.cold.len()) as u64;
    let submitted = d.of(|s| s.service.submitted);
    let rejected = d.of(|s| s.service.rejected_queue_full);
    let delivered = d.of(|s| s.stages.delivered);
    let coalesced = d.of(|s| s.service.coalesced);
    let claimed = d.of(|s| s.stages.solve_claimed);
    if sent != submitted + rejected {
        report.fail_check(format!(
            "sent {sent} != submitted {submitted} + rejected {rejected}"
        ));
    }
    // A coalesced request joins a job already admitted, so it is submitted
    // but adds no delivery of its own.
    if submitted != delivered + coalesced {
        report.fail_check(format!(
            "submitted {submitted} != delivered {delivered} + coalesced {coalesced}"
        ));
    }
    if claimed != m.cold.len() as u64 {
        report.fail_check(format!(
            "solve workers claimed {claimed} jobs for {} cold requests: a warm request reached a solve",
            m.cold.len()
        ));
    }
    warm_bad + cold_bad
}

/// Service counters over the window, from the `stats` deltas.
fn service_counts(d: &Delta) -> ServiceCounts {
    ServiceCounts {
        submitted: d.of(|s| s.service.submitted),
        coalesced: d.of(|s| s.service.coalesced),
        rejected_queue_full: d.of(|s| s.service.rejected_queue_full),
        failed: d.of(|s| s.service.failed),
        delivered: d.of(|s| s.stages.delivered),
        lookup_hits: d.of(|s| s.stages.lookup_hits),
        lookup_misses: d.of(|s| s.stages.lookup_misses),
        solve_claimed: d.of(|s| s.stages.solve_claimed),
        shared_published: d.of(|s| s.shared.map_or(0, |c| c.published)),
        shared_hits: d.of(|s| s.shared.map_or(0, |c| c.hits)),
    }
}

fn pool_delta(d: &Delta, pool: impl Fn(&StatsSnapshot) -> CacheStats) -> CacheStats {
    let (a, b) = (pool(&d.after), pool(&d.before));
    CacheStats {
        hits: a.hits.saturating_sub(b.hits),
        misses: a.misses.saturating_sub(b.misses),
        inserts: a.inserts.saturating_sub(b.inserts),
        evictions: a.evictions.saturating_sub(b.evictions),
    }
}

/// The daemon's solver counters over the window (the ones reported).
fn solver_delta(d: &Delta) -> SolverStats {
    SolverStats {
        solves: d.of(|s| s.cache.solver.solves),
        evals: d.of(|s| s.cache.solver.evals),
        failures: d.of(|s| s.cache.solver.failures),
        early_rejects: d.of(|s| s.cache.solver.early_rejects),
        newton_iters: d.of(|s| s.cache.solver.newton_iters),
        ..SolverStats::default()
    }
}

/// Reports the end-to-end metrics (or, traced, the per-layer ones).
pub(crate) fn run(args: &Args) -> Report {
    let mut tracer = args.trace.then(Tracer::new);
    let m = measure(args, tracer.as_mut()).unwrap_or_else(|e| {
        eprintln!("# serve_mixed aborted: {e}");
        std::process::exit(1);
    });
    let mut report = Report::new();
    report.attempted = (m.warm.len() + m.cold.len()) as u64;
    report.failed = check(&m, &mut report);
    let warm = latencies_ms(&m.warm, |i| m.warm_ok[i], m.window);
    let cold = latencies_ms(&m.cold, |i| m.cold[i].fingerprint.is_some(), m.window);
    let lag_ms: Vec<f64> = m
        .warm
        .iter()
        .chain(&m.cold)
        .map(|o| o.lag.as_secs_f64() * 1e3)
        .collect();
    let last_done = m
        .warm
        .iter()
        .chain(&m.cold)
        .map(|o| o.done)
        .max()
        .unwrap_or_default();
    // Replies per second from the window's start to the last reply: the
    // offered rate while the daemon keeps up, less once a backlog delays
    // the last replies.
    let served = (report.attempted - report.failed) as f64 / last_done.as_secs_f64();
    let d = &m.delta;
    eprintln!(
        "# serve_mixed: {} warm, {} cold, served {served:.3} req/s, generator lag p99 {:.3} ms, \
         cold p90 {:.1} ms; cold latencies ms {:?}",
        m.warm.len(),
        m.cold.len(),
        percentile(&lag_ms, 0.99),
        percentile(&cold, 0.90),
        cold.iter().map(|c| c.round()).collect::<Vec<_>>()
    );
    eprintln!(
        "# serve_mixed stage waits: submission {} us, solve {} us, completion {} us; qasm emit {:.3} s",
        d.of(|s| s.stages.submission.wait_us),
        d.of(|s| s.stages.solve.wait_us),
        d.of(|s| s.stages.completion.wait_us),
        m.emit_s
    );
    eprintln!(
        "# serve_mixed: cold mean {:.3} ms; warm p50/p75/p90/p95/p99 {:?} ms; ref {:.6} ms",
        cold.iter().sum::<f64>() / cold.len().max(1) as f64,
        [0.50, 0.75, 0.90, 0.95, 0.99].map(|q| percentile(&warm, q)),
        m.ref_ms
    );

    if let Some(tracer) = &tracer {
        if let Some(path) = &args.trace_file {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("# could not write spans to {}: {e}", path.display());
            }
        }
        report.per_layer(&PerLayer {
            pools: Pools {
                programs: pool_delta(d, |s| s.cache.programs),
                synthesis: pool_delta(d, |s| s.cache.synthesis),
                pulses: pool_delta(d, |s| s.cache.pulses),
            },
            solver: solver_delta(d),
            service: service_counts(d),
            traced_s: m.traced_prewarm_s.unwrap_or(f64::NAN),
            untraced_s: m.prewarm_s,
        });
        return report;
    }
    let answered: Vec<&Outcome> = m.cold.iter().filter(|o| o.fingerprint.is_some()).collect();
    report.end_to_end(&EndToEnd {
        setup_s: m.setup_s,
        // The mean, not the median: the ten cold programs differ in cost,
        // and the median of ten such values jumps between the two middle
        // programs as the host's speed moves.
        cold_ref: cold.iter().sum::<f64>() / cold.len().max(1) as f64 / m.ref_ms,
        warm_p50_ref: percentile(&warm, 0.50) / m.ref_ms,
        warm_p99_ref: percentile(&warm, 0.99) / m.ref_ms,
        out_2q: answered.iter().map(|o| o.count_2q as usize).sum(),
        out_duration_g: answered.iter().map(|o| o.duration_g).sum::<f64>()
            / answered.len().max(1) as f64,
        peak_rss_mb: m.peak_rss_mb,
    });
    report
}
