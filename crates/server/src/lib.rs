//! `gwc-serve`: a crash-safe characterization daemon.
//!
//! The campaign runner (`repro campaign`) answers "run this whole table
//! overnight"; this crate answers "keep a characterization service up
//! for days and let clients throw jobs at it". It is a long-lived HTTP
//! daemon wrapping the same supervised execution machinery
//! ([`gwc_harness::Supervisor`]), with the robustness properties a
//! long-lived process actually needs:
//!
//! - **durability** — every job state transition is journaled to a
//!   CRC-guarded write-ahead log ([`wal`]) and fsynced *before* it takes
//!   effect, so a `kill -9` at any instant loses at most the acknowledgement
//!   in flight, never an acknowledged job;
//! - **recovery** — on boot the journal's valid prefix is replayed:
//!   finished jobs come back as cached results (artifact CRC-verified),
//!   unfinished ones re-enter the queue in submission order, and because
//!   execution is seeded and deterministic, the recovered daemon
//!   converges to bit-identical artifacts;
//! - **idempotency** — jobs are identified by a content hash of their
//!   full specification ([`jobspec`]); resubmitting a finished job is an
//!   O(1) cache hit, resubmitting a pending one is a no-op;
//! - **admission control** — a bounded queue sheds overload with
//!   `429 Retry-After` instead of buffering without bound, a global
//!   circuit breaker trips on consecutive job failures, and per-client
//!   breakers bounce peers that spam malformed requests ([`state`]);
//! - **graceful drain** — `SIGTERM` or `POST /shutdown` (loopback peers
//!   only) stops admission,
//!   lets in-flight jobs finish, leaves queued jobs journaled for the
//!   next boot, and exits 0.
//!
//! See DESIGN.md §4f for the journal format and the recovery state
//! machine.

#![deny(unsafe_code)] // allowed back in only inside `sig`
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobspec;
pub mod sig;
pub mod state;
pub mod wal;

use std::fs;
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gwc_harness::json::Json;
use gwc_harness::{
    demoted_entry, entry_from_report_named, read_artifact, DirLock, ManifestEntry, Supervisor,
};

pub use jobspec::{content_hash, parse_submission, JobSpec};
pub use state::{Admission, DaemonState, Phase, StatePolicy};
pub use wal::{Record, Wal, WAL_FILE};

/// File in the data directory holding the daemon's actual bound address
/// (written after bind, so `--addr 127.0.0.1:0` is discoverable).
pub const ADDR_FILE: &str = "addr";

/// How often the accept loop and idle workers poll for drain signals.
const POLL_INTERVAL: Duration = Duration::from_millis(15);

/// Concurrent connection cap; excess connections get an instant 503.
const MAX_CONNECTIONS: usize = 32;

/// Daemon configuration (the `repro serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`ADDR_FILE`]).
    pub addr: String,
    /// Data directory: journal, lock, artifacts.
    pub data_dir: PathBuf,
    /// Worker threads. `0` is admission-only: jobs queue and persist but
    /// nothing executes (useful for tests and for staging submissions).
    pub workers: usize,
    /// Queue and breaker tunables.
    pub policy: StatePolicy,
    /// Journal size that triggers compacting rotation.
    pub wal_rotate_bytes: u64,
    /// How long a graceful drain may wait on in-flight jobs before the
    /// daemon forces exit (code 3). A second SIGTERM/SIGINT forces it
    /// immediately.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7341".into(),
            data_dir: PathBuf::from("serve-data"),
            workers: 2,
            policy: StatePolicy::default(),
            wal_rotate_bytes: 256 * 1024,
            drain_timeout: Duration::from_secs(600),
        }
    }
}

/// Journal state + journal handle, guarded by one mutex so an admission
/// decision and its WAL append are a single atomic step.
struct Core {
    state: DaemonState,
    wal: Wal,
}

/// Everything the accept loop, handlers, and workers share.
struct Shared {
    core: Mutex<Core>,
    /// Signaled when work is queued or drain begins.
    work: Condvar,
    data_dir: PathBuf,
    /// Set when the journal itself fails: the daemon fail-stops (drains
    /// and exits nonzero) rather than running with durability broken.
    fatal: AtomicBool,
    /// Live connection handler count, for the shutdown grace wait.
    conns: AtomicUsize,
    /// Live worker count, so the drain loop can tell "all workers exited"
    /// from "a worker is wedged on a hung job" without blocking in
    /// `join`.
    workers_live: AtomicUsize,
}

impl Shared {
    /// Locks the core, surviving a poisoned mutex (worker panics are
    /// already isolated by the supervisor; a poisoned lock here would
    /// otherwise wedge the whole daemon).
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a journal failure and begins an emergency drain.
    fn fail_stop(&self, what: &str, err: &io::Error) {
        eprintln!("gwc-serve: FATAL: {what}: {err}; draining");
        self.fatal.store(true, Ordering::SeqCst);
        sig::request();
        self.work.notify_all();
    }
}

/// Returns a connection slot on drop, so the count stays correct even
/// when the handler panics or its thread was never spawned — a leaked
/// slot would count toward [`MAX_CONNECTIONS`] forever.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements the live-worker count however the worker exits — clean
/// return, fail-stop, or a panic that escaped the supervisor.
struct WorkerGuard<'a>(&'a Shared);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.workers_live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs the daemon until drained. Returns the process exit code:
/// `0` after a clean drain, `1` after a journal-failure fail-stop,
/// `3` after a forced drain (deadline expiry or a second signal) that
/// abandoned a wedged worker.
pub fn run(cfg: &ServeConfig, supervisor: Supervisor) -> io::Result<i32> {
    fs::create_dir_all(&cfg.data_dir)?;
    let _lock = DirLock::acquire(&cfg.data_dir, "serve")
        .map_err(|e| io::Error::new(io::ErrorKind::WouldBlock, e.to_string()))?;
    sig::install();

    let listener = TcpListener::bind(&cfg.addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    fs::write(cfg.data_dir.join(ADDR_FILE), local.to_string())?;

    // Replay the journal into fresh state before accepting anything.
    let (wal, outcome) = Wal::open(&cfg.data_dir)?;
    let mut state = DaemonState::new(cfg.policy.clone());
    let recovered = fold_records(&outcome.records);
    let (mut cached, mut requeued) = (0usize, 0usize);
    for (spec, starts, entry) in recovered {
        // A "done" whose artifact went missing or rotted is not done.
        let entry = entry.filter(|e| {
            !e.outcome.is_success()
                || e.output.is_none()
                || read_artifact(&cfg.data_dir, e).is_ok()
        });
        match &entry {
            Some(_) => cached += 1,
            None => requeued += 1,
        }
        state.recover(spec, starts, entry);
    }
    eprintln!(
        "gwc-serve: listening on {local}; journal replayed: {cached} cached, {requeued} requeued{}",
        if outcome.tail_discarded { " (torn tail repaired)" } else { "" }
    );

    let shared = Arc::new(Shared {
        core: Mutex::new(Core { state, wal }),
        work: Condvar::new(),
        data_dir: cfg.data_dir.clone(),
        fatal: AtomicBool::new(false),
        conns: AtomicUsize::new(0),
        workers_live: AtomicUsize::new(0),
    });
    let supervisor = Arc::new(supervisor);

    let mut workers = Vec::new();
    for n in 0..cfg.workers {
        let shared_w = Arc::clone(&shared);
        let supervisor = Arc::clone(&supervisor);
        let rotate = cfg.wal_rotate_bytes;
        // Count the worker before it exists; its guard decrements on any
        // exit. A failed spawn never ran the closure, so undo by hand.
        shared.workers_live.fetch_add(1, Ordering::SeqCst);
        let spawned = std::thread::Builder::new()
            .name(format!("gwc-serve-worker-{n}"))
            .spawn(move || worker_loop(&shared_w, &supervisor, rotate));
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                shared.workers_live.fetch_sub(1, Ordering::SeqCst);
                return Err(e);
            }
        }
    }
    shared.lock().state.set_ready();

    // Accept until a drain is requested. The listener is nonblocking so
    // the loop observes SIGTERM within one poll interval.
    while !sig::requested() {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.conns.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    let mut stream = stream;
                    http::Response::text(503, "connection limit reached\n")
                        .with_header("Retry-After", "1")
                        .send(&mut stream);
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                // The guard rides inside the closure: the slot frees when
                // the handler returns, panics, or — if spawn fails and
                // drops the closure unrun — immediately.
                let guard = ConnGuard(Arc::clone(&shared));
                let shared = Arc::clone(&shared);
                let peer = peer.ip().to_string();
                let _ = std::thread::Builder::new().name("gwc-serve-conn".into()).spawn(
                    move || {
                        let _guard = guard;
                        handle_connection(&shared, stream, &peer);
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
            Err(e) => {
                eprintln!("gwc-serve: accept error: {e}");
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }

    // Drain: stop admission, let running jobs finish, keep queued jobs
    // journaled for the next boot.
    {
        let mut core = shared.lock();
        core.state.begin_drain();
        let (queued, running, done) = core.state.counts();
        eprintln!(
            "gwc-serve: draining ({running} running, {queued} queued stay journaled, {done} done)"
        );
    }
    shared.work.notify_all();
    // Wait for workers without blocking in `join`: a job wedged on a hung
    // device would otherwise pin the drain forever. The deadline and a
    // second signal both force the exit; `escalate` is the signal count
    // that means "force" — one more than what started this drain (a
    // fail-stop's own request does not count as operator escalation).
    let deadline = Instant::now() + cfg.drain_timeout;
    let mut forced = false;
    while shared.workers_live.load(Ordering::SeqCst) > 0 {
        let escalate = 2 + u32::from(shared.fatal.load(Ordering::SeqCst));
        if sig::count() >= escalate {
            eprintln!("gwc-serve: second drain signal: forcing exit");
            forced = true;
            break;
        }
        if Instant::now() >= deadline {
            eprintln!(
                "gwc-serve: drain deadline ({:?}) expired with a job still running: forcing exit",
                cfg.drain_timeout
            );
            forced = true;
            break;
        }
        shared.work.notify_all();
        std::thread::sleep(POLL_INTERVAL);
    }
    if forced {
        // Abandon the wedged worker (the process is about to exit, which
        // reaps it); everything acked is journaled, so the next boot
        // re-runs the in-flight job from its `started` record.
        eprintln!("gwc-serve: forced drain, exit 3 (in-flight work stays journaled)");
        io::stderr().flush().ok();
        return Ok(3);
    }
    for worker in workers {
        let _ = worker.join();
    }
    // Give in-flight responses a moment to finish writing.
    let grace_end = Instant::now() + Duration::from_secs(2);
    while shared.conns.load(Ordering::SeqCst) > 0 && Instant::now() < grace_end {
        std::thread::sleep(Duration::from_millis(10));
    }
    let code = i32::from(shared.fatal.load(Ordering::SeqCst));
    eprintln!("gwc-serve: drained, exit {code}");
    io::stderr().flush().ok();
    Ok(code)
}

/// Folds replayed records into per-job `(spec, starts, terminal entry)`
/// tuples, in original submission order.
pub fn fold_records(records: &[Record]) -> Vec<(JobSpec, u32, Option<ManifestEntry>)> {
    let mut order: Vec<String> = Vec::new();
    let mut by_hash = std::collections::HashMap::new();
    for record in records {
        match record {
            Record::Submitted(spec) => {
                if !by_hash.contains_key(&spec.hash) {
                    order.push(spec.hash.clone());
                    by_hash.insert(spec.hash.clone(), (spec.clone(), 0u32, None));
                }
            }
            Record::Started(hash) => {
                if let Some(row) = by_hash.get_mut(hash) {
                    row.1 += 1;
                }
            }
            Record::Done { hash, entry } => {
                if let Some(row) = by_hash.get_mut(hash) {
                    row.2 = Some(entry.clone());
                }
            }
        }
    }
    order.into_iter().map(|h| by_hash.remove(&h).expect("folded hash")).collect()
}

/// One worker: pop, journal `started`, execute outside the lock, journal
/// `done`, repeat until drain.
fn worker_loop(shared: &Shared, supervisor: &Supervisor, rotate_bytes: u64) {
    let _live = WorkerGuard(shared);
    loop {
        let spec = {
            let mut core = shared.lock();
            loop {
                if core.state.is_draining() || sig::requested() {
                    return;
                }
                if let Some(spec) = core.state.next_queued() {
                    if let Err(e) = core.wal.append(&Record::Started(spec.hash.clone())) {
                        drop(core);
                        shared.fail_stop("journaling job start", &e);
                        return;
                    }
                    core.state.commit_start(&spec.hash);
                    break spec;
                }
                // Condvar + timeout: wake on notify, but also poll so a
                // SIGTERM with an empty queue drains promptly.
                let (guard, _) = shared
                    .work
                    .wait_timeout(core, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                core = guard;
            }
        };

        // The crash/hang site between the journaled `started` and the
        // job running — the torture harness aborts or wedges here to
        // prove re-run-on-restart and the forced-drain escalation.
        // Error actions are meaningless at this site (nothing has been
        // written yet), so only abort/hang have any effect.
        let _ = gwc_failpoints::check("serve.job.run");

        // The expensive part runs without the lock; the supervisor owns
        // panic isolation, watchdogs, retries, and the ladder.
        let job = spec.to_job(&shared.data_dir);
        let report = supervisor.run_job(&job);
        let entry = match entry_from_report_named(&shared.data_dir, &report, &spec.artifact_name())
        {
            Ok(entry) => entry,
            Err(e) => {
                // Typed degrade, not fail-stop: losing an artifact to
                // EIO/ENOSPC loses one result, not the daemon. The job
                // is journaled as demoted with the storage fault in its
                // detail; only WAL failures are fatal.
                eprintln!(
                    "gwc-serve: artifact for job {} not persisted, demoting: {e}",
                    spec.hash
                );
                demoted_entry(&report, "artifact", &e)
            }
        };

        let mut core = shared.lock();
        let done = Record::Done { hash: spec.hash.clone(), entry: entry.clone() };
        if let Err(e) = core.wal.append(&done) {
            drop(core);
            shared.fail_stop("journaling job completion", &e);
            return;
        }
        core.state.commit_done(&spec.hash, entry, Instant::now());
        if core.wal.len() > rotate_bytes {
            let live = core.state.snapshot();
            let before = core.wal.len();
            match core.wal.rotate(&live) {
                // Pre-rename failure is not fatal: the journal is
                // intact, merely uncompacted.
                Err(e) if e.journal_intact => {
                    eprintln!("gwc-serve: journal rotation failed (non-fatal): {e}");
                }
                // An unsynced rename is a durability hole: a crash could
                // resurface the old journal and drop every append since.
                // Same policy as a failed append — fail-stop.
                Err(e) => {
                    drop(core);
                    shared.fail_stop("making journal rotation durable", &e.error);
                    return;
                }
                Ok(()) => eprintln!(
                    "gwc-serve: journal rotated, {} -> {} bytes",
                    before,
                    core.wal.len()
                ),
            }
        }
    }
}

/// Serves one connection: client-breaker check, parse, route, respond.
fn handle_connection(shared: &Shared, mut stream: TcpStream, peer: &str) {
    let _ = stream.set_read_timeout(Some(http::SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(http::SOCKET_TIMEOUT));
    // Read the request even when the client is banned: answering before
    // consuming what the peer wrote turns the response into a TCP reset
    // on many stacks, and the read is bounded either way.
    let parsed = http::read_request(&mut stream);
    let banned = shared.lock().state.client_banned(peer, Instant::now());
    // Health probes, shutdown, and the read-only analytics views stay
    // reachable through a ban: a peer that spammed garbage must still be
    // able to see liveness, an operator on the same host must still be
    // able to drain, and a dashboard poll must not depend on the job
    // admission path at all.
    let exempt = matches!(
        &parsed,
        Ok(r) if matches!(
            (r.method.as_str(), r.path.as_str()),
            ("GET", "/healthz" | "/readyz" | "/analyze" | "/dashboard") | ("POST", "/shutdown")
        )
    );
    if let (Some(cooldown), false) = (banned, exempt) {
        http::Response::text(429, "client breaker open: too many malformed requests\n")
            .with_header("Retry-After", cooldown.as_secs().max(1).to_string())
            .send(&mut stream);
        return;
    }
    let response = match parsed {
        Err(e) => http::Response::text(e.status(), format!("{}\n", e.detail())),
        Ok(request) => route(shared, &request, peer),
    };
    // Only genuine client mistakes feed the breaker: shed load (429) and
    // unavailability (503) are the daemon's doing, not the peer's.
    let client_error = matches!(response.status, 400 | 404 | 405 | 408 | 413);
    shared.lock().state.record_client(peer, client_error, Instant::now());
    response.send(&mut stream);
}

/// Whether a peer address string (an IP, as recorded by the accept loop)
/// is loopback. Unparseable peers count as remote.
fn peer_is_loopback(peer: &str) -> bool {
    peer.parse::<std::net::IpAddr>().is_ok_and(|ip| ip.is_loopback())
}

/// Maps one request to a response.
fn route(shared: &Shared, request: &http::Request, peer: &str) -> http::Response {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => http::Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            let core = shared.lock();
            if core.state.is_draining() || sig::requested() {
                http::Response::text(503, "draining\n")
            } else if core.state.is_ready() {
                http::Response::text(200, "ready\n")
            } else {
                http::Response::text(503, "recovering\n")
            }
        }
        ("GET", "/stats") => {
            let core = shared.lock();
            let (queued, running, done) = core.state.counts();
            let doc = Json::Obj(vec![
                ("queued".into(), Json::Num(queued as u64)),
                ("running".into(), Json::Num(running as u64)),
                ("done".into(), Json::Num(done as u64)),
                ("executed".into(), Json::Num(core.state.executed)),
                ("draining".into(), Json::Bool(core.state.is_draining())),
                ("journal_bytes".into(), Json::Num(core.wal.len())),
            ]);
            http::Response::json(200, doc.to_pretty())
        }
        ("POST", "/shutdown") => {
            // Drain is an operator action. The endpoint is deliberately
            // exempt from the client breaker, so on a non-loopback bind
            // any peer that could reach the socket could drain the
            // daemon at will — restrict it to local operators (SIGTERM
            // remains the drain path for remote supervision).
            if !peer_is_loopback(peer) {
                return http::Response::text(403, "shutdown is restricted to loopback peers\n");
            }
            sig::request();
            shared.work.notify_all();
            http::Response::text(200, "draining\n")
        }
        ("GET", "/analyze") => analyze_get(shared, false),
        ("GET", "/dashboard") => analyze_get(shared, true),
        ("POST", "/jobs") => submit(shared, &request.body),
        ("GET", _) if path.starts_with("/jobs/") => job_get(shared, &path["/jobs/".len()..]),
        (_, "/healthz" | "/readyz" | "/stats" | "/shutdown" | "/jobs" | "/analyze" | "/dashboard") => {
            http::Response::text(405, "method not allowed\n")
        }
        _ => http::Response::text(404, "no such endpoint\n"),
    }
}

/// `GET /analyze` (CSV) and `GET /dashboard` (HTML): the cross-run
/// analytics report over the daemon's own data directory, rebuilt per
/// request from the GWTB traces traced jobs left behind. Read-only and
/// lock-free: the scan tolerates traces appearing or being half-written
/// mid-walk (corrupt files are skipped and listed, exactly as `repro
/// analyze` would). The dashboard is also persisted to
/// `<data-dir>/dashboard.html` through the `analyze.write` failpoint
/// site — on storage failure the daemon logs, skips the file, and still
/// serves the in-memory report: a typed degrade, never a 500 and never
/// a fail-stop.
fn analyze_get(shared: &Shared, dashboard: bool) -> http::Response {
    let index = match gwc_analyze::scan(&shared.data_dir) {
        Ok(index) => index,
        Err(e) => return http::Response::text(500, format!("cannot scan data dir: {e}\n")),
    };
    let report = gwc_analyze::aggregate(&index);
    if !dashboard {
        return http::Response::text(200, gwc_analyze::csv(&report))
            .with_header("Content-Type", "text/csv; charset=utf-8");
    }
    let page = gwc_analyze::html(&report);
    let path = shared.data_dir.join("dashboard.html");
    if let Err(e) = gwc_analyze::write_report(&path, &page) {
        eprintln!(
            "gwc-serve: dashboard not persisted to {}, serving in-memory copy: {e}",
            path.display()
        );
    }
    http::Response::text(200, page).with_header("Content-Type", "text/html; charset=utf-8")
}

/// `POST /jobs`: admission control with journal-before-acknowledge.
fn submit(shared: &Shared, body: &[u8]) -> http::Response {
    let Ok(body) = std::str::from_utf8(body) else {
        return http::Response::text(400, "body must be UTF-8 JSON\n");
    };
    let spec = match parse_submission(body) {
        Ok(spec) => spec,
        Err(detail) => return http::Response::text(400, format!("{detail}\n")),
    };
    let hash = spec.hash.clone();
    let mut core = shared.lock();
    match core.state.admit(spec, Instant::now()) {
        Admission::Cached(entry) => {
            let doc = Json::Obj(vec![
                ("hash".into(), Json::Str(hash)),
                ("phase".into(), Json::Str("done".into())),
                ("cached".into(), Json::Bool(true)),
                ("entry".into(), entry.to_json()),
            ]);
            http::Response::json(200, doc.to_pretty()).with_header("X-Gwc-Cache", "hit")
        }
        Admission::AlreadyPending(phase) => {
            let doc = Json::Obj(vec![
                ("hash".into(), Json::Str(hash)),
                ("phase".into(), Json::Str(phase.into())),
                ("cached".into(), Json::Bool(false)),
            ]);
            http::Response::json(202, doc.to_pretty())
        }
        Admission::Admit(spec) => {
            let id = spec.id;
            if let Err(e) = core.wal.append(&Record::Submitted(spec.clone())) {
                drop(core);
                shared.fail_stop("journaling submission", &e);
                return http::Response::text(503, "journal failure, daemon is fail-stopping\n");
            }
            core.state.commit_admit(spec);
            drop(core);
            shared.work.notify_all();
            let doc = Json::Obj(vec![
                ("hash".into(), Json::Str(hash)),
                ("phase".into(), Json::Str("queued".into())),
                ("cached".into(), Json::Bool(false)),
                ("id".into(), Json::Num(u64::from(id))),
            ]);
            http::Response::json(202, doc.to_pretty())
        }
        Admission::ShedQueueFull(retry_after) => {
            http::Response::text(429, "queue full, try again later\n")
                .with_header("Retry-After", retry_after.max(1).to_string())
        }
        Admission::ShedBreakerOpen(retry_after) => {
            http::Response::text(503, "circuit breaker open: recent jobs keep failing\n")
                .with_header("Retry-After", retry_after.max(1).to_string())
        }
        Admission::Draining => http::Response::text(503, "not accepting jobs (draining)\n"),
    }
}

/// `GET /jobs/<hash>` and `GET /jobs/<hash>/artifact`.
fn job_get(shared: &Shared, rest: &str) -> http::Response {
    let (hash, artifact) = match rest.strip_suffix("/artifact") {
        Some(hash) => (hash, true),
        None => (rest, false),
    };
    let core = shared.lock();
    let Some(row) = core.state.job(hash) else {
        return http::Response::text(404, "unknown job hash\n");
    };
    if !artifact {
        let mut fields = vec![
            ("hash".into(), Json::Str(row.spec.hash.clone())),
            ("phase".into(), Json::Str(row.phase.name().into())),
            ("game".into(), Json::Str(row.spec.game.clone())),
            ("starts".into(), Json::Num(u64::from(row.starts))),
        ];
        if let Phase::Done(entry) = &row.phase {
            fields.push(("entry".into(), entry.to_json()));
        }
        return http::Response::json(200, Json::Obj(fields).to_pretty());
    }
    let Phase::Done(entry) = &row.phase else {
        return http::Response::text(404, "job not finished\n");
    };
    if entry.output.is_none() {
        return http::Response::text(404, "job finished without an artifact\n");
    }
    match read_artifact(&shared.data_dir, entry) {
        Ok(text) => http::Response::text(200, text),
        Err(e) => http::Response::text(500, format!("artifact unreadable: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_core::RunConfig;
    use gwc_harness::{Experiment, Outcome, Rung};

    fn spec(seq: u32) -> JobSpec {
        JobSpec {
            hash: format!("{seq:016x}"),
            id: seq,
            game: "Doom3/trdemo2".into(),
            experiment: Experiment::Characterize,
            rung: Rung::Quick,
            config: RunConfig::quick(),
            trace: false,
        }
    }

    fn entry(seq: u32, outcome: Outcome) -> ManifestEntry {
        ManifestEntry {
            id: seq,
            game: "Doom3/trdemo2".into(),
            experiment: Experiment::Characterize,
            start_rung: Rung::Quick,
            final_rung: Rung::Quick,
            outcome,
            attempts: vec!["ok".into()],
            backoff_ms: vec![0],
            work: 1,
            detail: String::new(),
            output: None,
            output_crc: 0,
            checkpoint: None,
            trace: None,
            config: RunConfig::quick(),
        }
    }

    #[test]
    fn fold_reconstructs_lifecycle_in_submission_order() {
        let records = vec![
            Record::Submitted(spec(0)),
            Record::Submitted(spec(1)),
            Record::Started(spec(0).hash),
            Record::Done { hash: spec(0).hash, entry: entry(0, Outcome::Ok) },
            Record::Started(spec(1).hash),
            // job 1 was in flight at the crash: started, never done.
            Record::Submitted(spec(2)),
        ];
        let folded = fold_records(&records);
        assert_eq!(folded.len(), 3);
        assert_eq!(folded[0].0.hash, spec(0).hash);
        assert_eq!(folded[0].1, 1, "one start");
        assert!(folded[0].2.is_some(), "terminal");
        assert_eq!(folded[1].1, 1, "in-flight job has a start but no entry");
        assert!(folded[1].2.is_none());
        assert_eq!(folded[2].1, 0, "queued job never started");
        assert!(folded[2].2.is_none());
    }

    #[test]
    fn shutdown_gate_accepts_only_loopback_peers() {
        assert!(peer_is_loopback("127.0.0.1"));
        assert!(peer_is_loopback("::1"));
        assert!(!peer_is_loopback("10.0.0.9"));
        assert!(!peer_is_loopback("192.168.1.4"));
        assert!(!peer_is_loopback("not-an-ip"));
    }

    #[test]
    fn fold_ignores_orphan_records_and_duplicate_submissions() {
        let records = vec![
            Record::Started("feedfacefeedface".into()),
            Record::Submitted(spec(0)),
            Record::Submitted(spec(0)),
            Record::Done { hash: "feedfacefeedface".into(), entry: entry(9, Outcome::Ok) },
        ];
        let folded = fold_records(&records);
        assert_eq!(folded.len(), 1, "orphans dropped, duplicates collapsed");
        assert_eq!(folded[0].0.id, 0);
    }
}
