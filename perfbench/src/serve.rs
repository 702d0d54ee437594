//! The `serve-study` workload: a gwc-serve daemon in a child process on
//! an empty data directory, driven over HTTP by a closed loop of clients.
//!
//! Each client submits the next fresh `characterize` job (the twelve
//! Table I games in turn, one round per derived seed), polls its status
//! until it is done, fetches the artifact and checks its CRC. Then the
//! clients re-submit completed specs, which must come back from the
//! content-addressed cache unchanged.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gwc_api::GraphicsApi;
use gwc_harness::json::{parse as parse_json, Json};
use gwc_workloads::GameProfile;

use crate::digest::Digest;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::{Args, Measured, Outcome};

/// Per-job configuration. API-only jobs emit `API_FRAMES` frames, which
/// keeps them well above the daemon's 15 ms accept-poll interval; the
/// three simulated games add one frame at `JOB_WIDTH`×`JOB_HEIGHT`,
/// which is dominated by their texture build.
pub const API_FRAMES: u32 = 2000;
/// Simulated frames per job.
pub const SIM_FRAMES: u32 = 1;
/// Simulated render target per job.
pub const JOB_WIDTH: u32 = 160;
/// Simulated render target per job.
pub const JOB_HEIGHT: u32 = 120;

/// Pause between status polls of one job.
const POLL_PAUSE: Duration = Duration::from_millis(3);
/// Upper end of the think time before each fresh submission. The daemon
/// accepts connections on a fixed poll grid (15 ms); a client that
/// resubmitted the instant its artifact arrived would start every job in
/// phase with that grid, and job latencies would fall on its steps. A
/// random think time, longer than one step and excluded from the
/// latency, spreads them out.
const THINK_MAX_US: u64 = 20_000;
/// A job not done after this long counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Jobs whose artifact CRCs are pinned (the first two rounds).
const PINNED_JOBS: usize = 24;

/// How much one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds of twelve fresh jobs.
    pub rounds: u32,
    /// Cache-hit re-submissions after the fresh jobs.
    pub hits: u32,
    /// Closed-loop clients, one connection each.
    pub clients: u32,
    /// Daemon worker threads.
    pub workers: u32,
    /// Daemon launches timed for `setup_s`, the last one serving the study.
    pub launches: u32,
}

impl Plan {
    /// The plan that fills about `seconds` on the reference host (see
    /// README.md). Counts are fixed per `seconds`, so every run reports
    /// its tails at the same percentiles.
    pub fn for_seconds(seconds: u32, nproc: u32) -> Plan {
        Plan {
            rounds: (seconds / 2).max(2),
            hits: (seconds * 10).max(20),
            clients: nproc,
            workers: nproc,
            launches: 9,
        }
    }
}

/// One fresh job as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// Position in the submission order.
    pub idx: usize,
    /// Whether the game runs the simulated pass.
    pub simulated: bool,
    /// Content hash the daemon assigned.
    pub hash: String,
    /// POST to verified artifact.
    pub ms: f64,
    /// POST latency.
    pub admit_ms: f64,
    /// Each status poll's latency.
    pub poll_ms: Vec<f64>,
    /// Artifact GET latency.
    pub artifact_ms: f64,
    /// Work ticks charged by the job (manifest `work`).
    pub work: u64,
    /// Attempts the supervisor made.
    pub attempts: usize,
    /// CRC of the artifact, as journaled.
    pub output_crc: u64,
    /// The finished entry, for comparing cache hits against.
    pub entry: Option<Json>,
    /// The first check that failed, if any.
    pub failure: Option<String>,
    /// The submission body, for re-posting it as a hit.
    pub body: String,
}

/// Everything one pass of the study measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Each daemon launch until `/readyz` answered 200.
    pub setup: Vec<Duration>,
    /// Fresh jobs, in submission order.
    pub jobs: Vec<JobResult>,
    /// Wall time from the first fresh POST to the last verified artifact.
    pub fresh_wall: Duration,
    /// Cache-hit latencies, in ms.
    pub hit_ms: Vec<f64>,
    /// Cache hits that failed their check.
    pub hit_failures: Vec<String>,
    /// 429 and 503 answers.
    pub shed: u64,
    /// The daemon's peak resident memory.
    pub peak_rss_mib: f64,
    /// Daemon CPU time over the fresh-job phase.
    pub daemon_cpu: Duration,
    /// `/stats` after the study: `journal_bytes` and `executed`.
    pub journal: (u64, u64),
    /// Failures outside any one job (launch, drain, stats).
    pub failures: Vec<String>,
}

/// Entry point of the daemon child: `serve-daemon <data-dir> <workers>`,
/// configured as `repro serve` is by default. Never returns.
pub fn daemon_main(args: &[String]) -> ! {
    use gwc_harness::{JobRunner, Supervisor, SupervisorConfig};
    let (Some(dir), Some(workers)) = (args.first(), args.get(1).and_then(|w| w.parse().ok()))
    else {
        eprintln!("usage: perfbench serve-daemon <data-dir> <workers>");
        std::process::exit(2);
    };
    drain_when_parent_dies();
    let runner = Arc::new(gwc_bench::ReproRunner::new());
    // As in `repro serve`: drain the runner's collected results now and
    // then, so memory stays bounded however many jobs run.
    let janitor = Arc::clone(&runner);
    let _ = std::thread::Builder::new()
        .name("janitor".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_secs(10));
            let _ = janitor.into_study(gwc_core::RunConfig::quick());
        });
    let supervisor = Supervisor::new(SupervisorConfig::default(), runner as Arc<dyn JobRunner>);
    let cfg = gwc_server::ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: PathBuf::from(dir),
        workers,
        policy: gwc_server::StatePolicy {
            queue_capacity: 16,
            breaker_threshold: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    match gwc_server::run(&cfg, supervisor) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench serve-daemon: {e}");
            std::process::exit(1);
        }
    }
}

/// Asks the kernel to send this process SIGTERM, which the daemon
/// answers with a graceful drain, if the benchmark that started it dies
/// without shutting it down.
fn drain_when_parent_dies() {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGTERM: u64 = 15;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_PDEATHSIG takes one integer argument and changes
    // only this process's own death-signal setting.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGTERM);
    }
}

/// A running daemon child. Dropping it kills the process if it is still
/// running, so no path out of the benchmark leaves one behind.
pub struct Daemon {
    child: Child,
    /// The address it bound.
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon on the empty directory `dir` and waits until
    /// `/readyz` answers 200; returns it with the time that took.
    pub fn launch(dir: &Path, workers: u32) -> Result<(Daemon, Duration), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.with_extension("log"))
            .map_err(|e| format!("cannot create daemon log: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let start = Instant::now();
        let child = Command::new(exe)
            .arg("serve-daemon")
            .arg(dir)
            .arg(workers.to_string())
            // Jobs run single-threaded, the daemon's default.
            .env_remove("GWC_THREADS")
            .env_remove("GWC_GEOM_THREADS")
            .env_remove("GWC_FAILPOINTS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = start + Duration::from_secs(30);
        let addr_file = dir.join(gwc_server::ADDR_FILE);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if daemon.addr.is_empty() {
                let text = std::fs::read_to_string(&addr_file).unwrap_or_default();
                if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                    daemon.addr = text.trim().to_owned();
                }
            } else if call(&daemon.addr, "GET", "/readyz", None).is_ok_and(|r| r.status == 200) {
                return Ok((daemon, start.elapsed()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("daemon not ready within 30 s".into())
    }

    /// Process id, for reading its resource use.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the daemon through `POST /shutdown` and waits for it to
    /// exit; a clean drain exits 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = call(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon drained with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
        Err(format!(
            "daemon did not drain within 60 s (shutdown request: {:?})",
            asked.map(|r| r.status)
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One timed HTTP exchange.
struct Reply {
    status: u16,
    body: String,
    ms: f64,
}

fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
    let start = Instant::now();
    let r = gwc_server::client::exchange(addr, method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    Ok(Reply {
        status: r.status,
        body: r.text(),
        ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// The `i`-th fresh job: game `i mod 12` in round `i / 12`, each round
/// with its own seed derived from `seed`.
fn job_body(i: usize, seed: u64) -> (String, bool) {
    let games = GameProfile::all();
    let game = &games[i % games.len()];
    let round = (i / games.len()) as u32;
    let body = Json::Obj(vec![
        ("game".into(), Json::Str(game.name.into())),
        ("experiment".into(), Json::Str("characterize".into())),
        ("rung".into(), Json::Str("default".into())),
        (
            "config".into(),
            Json::Obj(vec![
                ("api_frames".into(), Json::Num(u64::from(API_FRAMES))),
                ("sim_frames".into(), Json::Num(u64::from(SIM_FRAMES))),
                ("width".into(), Json::Num(u64::from(JOB_WIDTH))),
                ("height".into(), Json::Num(u64::from(JOB_HEIGHT))),
                ("seed".into(), Json::Num(crate::derived_seed(seed, round))),
            ]),
        ),
        ("trace".into(), Json::Bool(false)),
    ])
    .to_pretty();
    (body, game.simulated && game.api == GraphicsApi::OpenGl)
}

/// Counts 429/503 answers and turns every other non-2xx into an error.
fn expect_ok(r: Reply, what: &str, shed: &mut u64) -> Result<Reply, String> {
    if matches!(r.status, 429 | 503) {
        *shed += 1;
    }
    if (200..300).contains(&r.status) {
        Ok(r)
    } else {
        Err(format!("{what}: HTTP {} {}", r.status, r.body.trim()))
    }
}

fn json_u64(doc: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(doc, |d, k| d.get(k))?.as_u64()
}

fn json_str<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(doc, |d, k| d.get(k))?.as_str()
}

/// Submits, polls and verifies one fresh job.
fn run_job(
    addr: &str,
    idx: usize,
    seed: u64,
    shed: &mut u64,
    mut tr: Option<&mut Tracer>,
) -> JobResult {
    let (body, simulated) = job_body(idx, seed);
    let mut job = JobResult {
        idx,
        simulated,
        body,
        ..JobResult::default()
    };
    let start = Instant::now();
    let span = tr.as_deref_mut().map(|t| t.begin("job", &idx.to_string()));
    let result = poll_to_artifact(addr, &mut job, start, shed, tr.as_deref_mut());
    job.ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(span)) = (tr, span) {
        t.end(span);
        // The hash is only known once the daemon answers.
        t.relabel(span, &job.hash);
    }
    job.failure = result.err();
    job
}

fn poll_to_artifact(
    addr: &str,
    job: &mut JobResult,
    start: Instant,
    shed: &mut u64,
    mut tr: Option<&mut Tracer>,
) -> Result<(), String> {
    let posted = Instant::now();
    let r = expect_ok(
        call(addr, "POST", "/jobs", Some(&job.body))?,
        "submit",
        shed,
    )?;
    if let Some(t) = tr.as_deref_mut() {
        t.record("server.admit", "", posted, posted.elapsed());
    }
    job.admit_ms = r.ms;
    let doc =
        parse_json(&r.body).map_err(|e| format!("submit answer is not JSON: {}", e.message))?;
    if doc.get("cached") != Some(&Json::Bool(false)) {
        return Err("a fresh job was answered from the cache".into());
    }
    job.hash = json_str(&doc, &["hash"])
        .ok_or("submit answer has no hash")?
        .to_owned();

    let status_path = format!("/jobs/{}", job.hash);
    let entry = loop {
        if start.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {} not done within {JOB_TIMEOUT:?}", job.hash));
        }
        std::thread::sleep(POLL_PAUSE);
        let polled = Instant::now();
        let r = expect_ok(call(addr, "GET", &status_path, None)?, "status", shed)?;
        if let Some(t) = tr.as_deref_mut() {
            t.record("server.poll", "", polled, polled.elapsed());
        }
        job.poll_ms.push(r.ms);
        let doc = parse_json(&r.body).map_err(|e| format!("status is not JSON: {}", e.message))?;
        if json_str(&doc, &["phase"]) == Some("done") {
            break doc.get("entry").cloned().ok_or("done job has no entry")?;
        }
    };
    job.work = json_u64(&entry, &["work"]).unwrap_or(0);
    job.output_crc = json_u64(&entry, &["output_crc"]).ok_or("entry has no output_crc")?;
    job.attempts = entry
        .get("attempts")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    let outcome = json_str(&entry, &["outcome"]).unwrap_or("").to_owned();
    job.entry = Some(entry);
    if outcome != "ok" {
        return Err(format!("job {} ended {outcome}", job.hash));
    }

    let fetched = Instant::now();
    let r = expect_ok(
        call(addr, "GET", &format!("{status_path}/artifact"), None)?,
        "artifact",
        shed,
    )?;
    if let Some(t) = tr {
        t.record("server.artifact", "", fetched, fetched.elapsed());
    }
    job.artifact_ms = r.ms;
    let crc = u64::from(gwc_harness::crc32(r.body.as_bytes()));
    if crc != job.output_crc {
        return Err(format!(
            "artifact of {} has CRC {crc:#x}, entry says {:#x}",
            job.hash, job.output_crc
        ));
    }
    Ok(())
}

/// Re-submits a completed spec; it must come back cached and unchanged.
fn run_hit(
    addr: &str,
    job: &JobResult,
    shed: &mut u64,
    tr: Option<&mut Tracer>,
) -> Result<f64, String> {
    let start = Instant::now();
    let r = expect_ok(
        call(addr, "POST", "/jobs", Some(&job.body))?,
        "re-submit",
        shed,
    )?;
    if let Some(t) = tr {
        t.record("server.hit", &job.hash, start, start.elapsed());
    }
    let doc = parse_json(&r.body).map_err(|e| format!("hit answer is not JSON: {}", e.message))?;
    if doc.get("cached") != Some(&Json::Bool(true)) {
        return Err(format!("re-submitted {} was not cached", job.hash));
    }
    if doc.get("entry") != job.entry.as_ref() {
        return Err(format!("cached entry of {} changed", job.hash));
    }
    Ok(r.ms)
}

/// Runs the study once against a daemon launched `plan.launches` times.
pub fn run_pass(plan: Plan, seed: u64, scratch: &Path, tracers: Option<&mut Vec<Tracer>>) -> Pass {
    let mut pass = Pass::default();
    let mut daemon = None;
    for i in 0..plan.launches {
        match Daemon::launch(&scratch.join(format!("data-{i}")), plan.workers) {
            Ok((d, took)) => {
                pass.setup.push(took);
                if i + 1 < plan.launches {
                    if let Err(e) = d.shutdown() {
                        pass.failures.push(e);
                    }
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                pass.failures.push(e);
                return pass;
            }
        }
    }
    let Some(daemon) = daemon else { return pass };
    let addr = daemon.addr.clone();
    let total = plan.rounds as usize * GameProfile::all().len();
    let next = AtomicUsize::new(0);
    let jobs = Mutex::new(Vec::with_capacity(total));
    let shed = AtomicUsize::new(0);
    let mut tracers = tracers;

    // Fresh jobs: each client takes the next index until none are left.
    let cpu_start = crate::host::process_cpu(daemon.pid());
    let fresh_start = Instant::now();
    std::thread::scope(|scope| {
        let mut tr_iter = tracers.as_deref_mut().map(|v| v.iter_mut());
        for client in 0..plan.clients {
            let mut tr = tr_iter.as_mut().and_then(Iterator::next);
            let (addr, next, jobs, shed) = (&addr, &next, &jobs, &shed);
            scope.spawn(move || {
                let mut my_shed = 0;
                let mut rng = crate::derived_seed(seed, client) | 1;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total {
                        break;
                    }
                    // xorshift64: the think time only needs to be spread.
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    std::thread::sleep(Duration::from_micros(rng % THINK_MAX_US));
                    let job = run_job(addr, i, seed, &mut my_shed, tr.as_deref_mut());
                    jobs.lock()
                        .expect("no client panics holding the job list")
                        .push(job);
                }
                shed.fetch_add(my_shed as usize, Ordering::SeqCst);
            });
        }
    });
    pass.fresh_wall = fresh_start.elapsed();
    if let (Some(before), Some(after)) = (cpu_start, crate::host::process_cpu(daemon.pid())) {
        pass.daemon_cpu = after.saturating_sub(before);
    }
    let mut jobs = jobs
        .into_inner()
        .expect("no client panics holding the job list");
    jobs.sort_by_key(|j| j.idx);

    // Cache hits over the completed specs, in submission order.
    let done: Vec<&JobResult> = jobs.iter().filter(|j| j.failure.is_none()).collect();
    let next = AtomicUsize::new(0);
    let hits = Mutex::new((Vec::new(), Vec::new()));
    if !done.is_empty() {
        std::thread::scope(|scope| {
            let mut tr_iter = tracers.map(|v| v.iter_mut());
            for _ in 0..plan.clients {
                let mut tr = tr_iter.as_mut().and_then(Iterator::next);
                let (addr, next, hits, shed, done) = (&addr, &next, &hits, &shed, &done);
                scope.spawn(move || {
                    let mut my_shed = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= plan.hits as usize {
                            break;
                        }
                        let r =
                            run_hit(addr, done[i % done.len()], &mut my_shed, tr.as_deref_mut());
                        let mut guard = hits.lock().expect("no client panics holding the hit list");
                        match r {
                            Ok(ms) => guard.0.push(ms),
                            Err(e) => guard.1.push(e),
                        }
                    }
                    shed.fetch_add(my_shed as usize, Ordering::SeqCst);
                });
            }
        });
    }
    (pass.hit_ms, pass.hit_failures) = hits
        .into_inner()
        .expect("no client panics holding the hit list");
    pass.shed = shed.load(Ordering::SeqCst) as u64;

    match call(&addr, "GET", "/stats", None).map(|r| parse_json(&r.body)) {
        Ok(Ok(doc)) => {
            pass.journal = (
                json_u64(&doc, &["journal_bytes"]).unwrap_or(0),
                json_u64(&doc, &["executed"]).unwrap_or(0),
            );
        }
        _ => pass.failures.push("GET /stats failed".into()),
    }
    pass.peak_rss_mib = crate::host::peak_rss_mib(&daemon.pid().to_string()).unwrap_or(0.0);
    if let Err(e) = daemon.shutdown() {
        pass.failures.push(e);
    }
    pass.jobs = jobs;
    pass
}

/// The first two rounds' content hashes, artifact CRCs and work ticks.
pub fn digest(jobs: &[JobResult]) -> Digest {
    let mut d = Digest::default();
    for j in jobs.iter().take(PINNED_JOBS) {
        d.push(
            format!("job.{:02}.hash", j.idx),
            u64::from_str_radix(&j.hash, 16).unwrap_or(0),
        );
        d.push(format!("job.{:02}.output_crc", j.idx), j.output_crc);
        d.push(format!("job.{:02}.work", j.idx), j.work);
    }
    d
}

/// End-to-end metrics of one pass.
fn end_to_end(pass: &Pass) -> Vec<Measured> {
    let ok: Vec<&JobResult> = pass.jobs.iter().filter(|j| j.failure.is_none()).collect();
    let job = Summary::of(&ok.iter().map(|j| j.ms).collect::<Vec<_>>());
    let hit = Summary::of(&pass.hit_ms);
    let setup: Vec<f64> = pass.setup.iter().map(Duration::as_secs_f64).collect();
    let wall = pass.fresh_wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let work: u64 = ok.iter().map(|j| j.work).sum();
    vec![
        Measured {
            name: "ticks_per_s",
            value: work as f64 / wall,
            detail: format!("{work} work ticks of {} jobs / {wall:.3} s", ok.len()),
        },
        Measured {
            name: "setup_s",
            value: stats::median(&setup),
            detail: format!("median of {} daemon launches to /readyz", setup.len()),
        },
        Measured {
            name: "peak_rss_mb",
            value: pass.peak_rss_mib,
            detail: "VmHWM of the daemon".into(),
        },
        Measured {
            name: "job_ms_p50",
            value: job.median,
            detail: format!("median of {} fresh jobs", job.n),
        },
        Measured {
            name: "job_ms_tail",
            value: job.tail,
            detail: format!("{} fresh jobs", job.tail_label()),
        },
        Measured {
            name: "hit_ms_p50",
            value: hit.median,
            detail: format!("median of {} cache hits", hit.n),
        },
        Measured {
            name: "hit_ms_tail",
            value: hit.tail,
            detail: format!("{} cache hits", hit.tail_label()),
        },
        Measured {
            name: "jobs_per_s",
            value: ok.len() as f64 / wall,
            detail: format!("{} fresh jobs / {wall:.3} s", ok.len()),
        },
    ]
}

/// Counts one pass's operations and failures into `outcome`.
fn account(plan: Plan, pass: &Pass, label: &str, outcome: &mut Outcome) {
    let planned_jobs = plan.rounds as u64 * GameProfile::all().len() as u64;
    let failed_jobs = pass.jobs.iter().filter(|j| j.failure.is_some()).count() as u64;
    let missing_jobs = planned_jobs.saturating_sub(pass.jobs.len() as u64);
    let missing_hits =
        u64::from(plan.hits).saturating_sub((pass.hit_ms.len() + pass.hit_failures.len()) as u64);
    outcome.attempted += planned_jobs + u64::from(plan.hits);
    outcome.failed += failed_jobs + missing_jobs + pass.hit_failures.len() as u64 + missing_hits;
    let job_failures = pass.jobs.iter().filter_map(|j| j.failure.clone());
    for f in pass
        .failures
        .iter()
        .cloned()
        .chain(job_failures)
        .chain(pass.hit_failures.iter().cloned())
        .take(10)
    {
        outcome.failures.push(format!("{label}: {f}"));
    }
    if missing_jobs + missing_hits > 0 {
        outcome.failures.push(format!(
            "{label}: {missing_jobs} jobs and {missing_hits} hits never ran"
        ));
    }
}

/// Runs `serve-study`: the untraced pass, then, with `--trace 1`, a
/// traced one on fresh daemons.
pub fn run(args: &Args, scratch: &Path) -> Outcome {
    let plan = Plan::for_seconds(args.seconds, crate::host::nproc());
    let mut outcome = Outcome {
        host: vec![
            ("workers", plan.workers.to_string()),
            ("clients", plan.clients.to_string()),
            ("job_threads", "1".into()),
        ],
        ..Outcome::default()
    };
    eprintln!(
        "perfbench: serve-study: {} launches, {} fresh jobs, {} hits",
        plan.launches,
        plan.rounds * 12,
        plan.hits
    );
    let pass = run_pass(plan, args.seed, &scratch.join("untraced"), None);
    account(plan, &pass, "untraced", &mut outcome);
    outcome.e2e = end_to_end(&pass);
    outcome.digest = digest(&pass.jobs);
    outcome.check_digest(
        "serve-study",
        args.seed,
        "every job ended ok with an artifact matching its output_crc, every hit came back cached and unchanged",
    );
    if !args.trace {
        return outcome;
    }

    eprintln!("perfbench: serve-study traced pass");
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..plan.clients).map(|_| Tracer::new(origin)).collect();
    let traced = run_pass(plan, args.seed, &scratch.join("traced"), Some(&mut tracers));
    account(plan, &traced, "traced", &mut outcome);
    if digest(&traced.jobs) != outcome.digest {
        outcome
            .failures
            .push("traced pass produced different artifacts".into());
    }
    outcome.e2e_traced = end_to_end(&traced);

    let mut all = Tracer::new(origin);
    for t in tracers {
        all.absorb(t);
    }
    let spans = all.spans();
    let rows = trace::layers(spans, &[]);
    let region: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns)
        .sum();
    let jobs = &traced.jobs;
    let class_ms = |sim: bool| {
        stats::median(
            &jobs
                .iter()
                .filter(|j| j.simulated == sim)
                .map(|j| j.ms)
                .collect::<Vec<_>>(),
        )
    };
    let polls: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.poll_ms.iter().copied())
        .collect();
    let n = jobs.len().max(1) as f64;
    let (journal_bytes, executed) = traced.journal;
    outcome.layers = vec![
        (
            "server.admit_ms_p50",
            stats::median(&jobs.iter().map(|j| j.admit_ms).collect::<Vec<_>>()),
        ),
        ("server.poll_ms_p50", stats::median(&polls)),
        (
            "server.artifact_ms_p50",
            stats::median(&jobs.iter().map(|j| j.artifact_ms).collect::<Vec<_>>()),
        ),
        ("server.api_job_ms_p50", class_ms(false)),
        ("server.sim_job_ms_p50", class_ms(true)),
        ("server.polls_per_job", polls.len() as f64 / n),
        (
            "server.journal_bytes_per_job",
            journal_bytes as f64 / executed.max(1) as f64,
        ),
        (
            "server.retried_frac",
            jobs.iter().filter(|j| j.attempts > 1).count() as f64 / n,
        ),
        ("server.shed", traced.shed as f64),
        (
            "pipeline.cpu_util",
            traced.daemon_cpu.as_secs_f64() / traced.fresh_wall.as_secs_f64().max(1e-9),
        ),
        (
            "sim.work_ticks",
            jobs.iter().map(|j| j.work).sum::<u64>() as f64,
        ),
    ];
    outcome.report = format!(
        "client spans, {} jobs and {} hits over {} clients (share of the summed request time):\n{}",
        jobs.len(),
        traced.hit_ms.len(),
        plan.clients,
        trace::layer_table(&rows, region)
    );
    outcome.spans_jsonl = trace::spans_jsonl(spans);
    outcome
}
