//! The daemon's in-memory state machine: job table, bounded admission
//! queue, and circuit breakers.
//!
//! All transitions are pure functions over [`DaemonState`] so they can
//! be unit-tested without sockets or disk. Durability ordering is the
//! caller's contract: the WAL record for a transition is appended and
//! fsynced *before* the corresponding `DaemonState` mutation is made,
//! so the journal is always ahead of (or equal to) memory, never
//! behind.
//!
//! Admission control is a bounded queue: when `queue_capacity` jobs are
//! already waiting, new work is *shed* with a retry hint rather than
//! buffered — an overloaded daemon stays alive and serves status reads;
//! it never grows without bound until the OOM killer makes the decision
//! for it.
//!
//! Two layers of circuit breaking protect the worker pool:
//!
//! - the **global breaker** watches consecutive terminal job failures;
//!   past the threshold it opens and submissions bounce with
//!   `Retry-After` until a cool-down, then a single probe job is let
//!   through (half-open) — success closes the breaker, failure reopens
//!   it;
//! - **per-client breakers** watch consecutive *request* errors (bad
//!   JSON, unknown games) per peer address; a client that spams garbage
//!   gets its requests bounced for a cool-down without costing anyone
//!   else anything.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use gwc_harness::ManifestEntry;

use crate::jobspec::JobSpec;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Journaled, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Terminal: the journaled outcome row (success or failure). Boxed —
    /// a manifest entry is an order of magnitude larger than the other
    /// variants and most rows in a live daemon are queued or running.
    Done(Box<ManifestEntry>),
}

impl Phase {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done(_) => "done",
        }
    }
}

/// One job the daemon knows about.
#[derive(Debug, Clone)]
pub struct JobRow {
    /// The journaled spec.
    pub spec: JobSpec,
    /// Current lifecycle phase.
    pub phase: Phase,
    /// How many times execution began (>1 only after crash recovery).
    pub starts: u32,
}

/// Global circuit breaker over consecutive terminal job failures.
#[derive(Debug, Clone, PartialEq)]
enum Breaker {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    /// One probe job is in flight; its hash decides the verdict.
    HalfOpen { probe: String },
}

/// Per-client request-error tracking.
#[derive(Debug, Default, Clone)]
struct ClientRecord {
    consecutive_errors: u32,
    open_until: Option<Instant>,
}

/// Admission verdict for one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Already terminal — answer from the result cache, `O(1)`.
    Cached(Box<ManifestEntry>),
    /// Already queued or running; idempotent no-op.
    AlreadyPending(&'static str),
    /// Newly admitted (journal the spec, then call [`DaemonState::commit_admit`]).
    Admit(JobSpec),
    /// Queue full — shed with `Retry-After` this many seconds.
    ShedQueueFull(u64),
    /// Global breaker open — bounce with `Retry-After` this many seconds.
    ShedBreakerOpen(u64),
    /// Draining for shutdown; nothing new is admitted.
    Draining,
}

/// How long the global breaker stays open before half-opening.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(30);

/// Consecutive request errors that open a client's breaker.
const CLIENT_ERROR_THRESHOLD: u32 = 8;

/// How long a client breaker stays open.
const CLIENT_COOLDOWN: Duration = Duration::from_secs(10);

/// Tunables for the state machine (a subset of the full server config).
#[derive(Debug, Clone)]
pub struct StatePolicy {
    /// Bounded queue depth; submissions past it are shed.
    pub queue_capacity: usize,
    /// Consecutive job failures that open the global breaker
    /// (0 disables it).
    pub breaker_threshold: u32,
}

impl Default for StatePolicy {
    fn default() -> Self {
        StatePolicy { queue_capacity: 16, breaker_threshold: 5 }
    }
}

/// The daemon's mutable core, always accessed under one mutex.
#[derive(Debug)]
pub struct DaemonState {
    policy: StatePolicy,
    jobs: HashMap<String, JobRow>,
    /// Submission order (content hashes); recovery and WAL rotation
    /// both depend on replaying it verbatim.
    order: Vec<String>,
    queue: VecDeque<String>,
    next_id: u32,
    draining: bool,
    ready: bool,
    breaker: Breaker,
    clients: HashMap<String, ClientRecord>,
    /// Jobs executed (terminal) since boot, for `/stats`.
    pub executed: u64,
}

impl DaemonState {
    /// Fresh state under `policy` (not ready until recovery finishes).
    pub fn new(policy: StatePolicy) -> DaemonState {
        DaemonState {
            policy,
            jobs: HashMap::new(),
            order: Vec::new(),
            queue: VecDeque::new(),
            next_id: 0,
            draining: false,
            ready: false,
            breaker: Breaker::Closed { consecutive_failures: 0 },
            clients: HashMap::new(),
            executed: 0,
        }
    }

    /// Marks recovery complete; `/readyz` and submissions open up.
    pub fn set_ready(&mut self) {
        self.ready = true;
    }

    /// Whether recovery finished and the pool is warm.
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Whether drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Begins drain: nothing new is admitted, workers finish their
    /// current job and exit. Queued jobs stay journaled for the next
    /// boot.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Installs a recovered job directly (no admission policy — it was
    /// already admitted in a previous life). Terminal entries go to the
    /// cache; unfinished jobs re-enter the queue in call order.
    pub fn recover(&mut self, spec: JobSpec, starts: u32, entry: Option<ManifestEntry>) {
        self.next_id = self.next_id.max(spec.id + 1);
        let hash = spec.hash.clone();
        let phase = match entry {
            Some(e) => Phase::Done(Box::new(e)),
            None => Phase::Queued,
        };
        if matches!(phase, Phase::Queued) {
            self.queue.push_back(hash.clone());
        }
        self.order.push(hash.clone());
        self.jobs.insert(hash, JobRow { spec, phase, starts });
    }

    /// Decides one submission. Pure decision: on [`Admission::Admit`]
    /// the caller journals the spec and then calls
    /// [`DaemonState::commit_admit`].
    pub fn admit(&mut self, mut spec: JobSpec, now: Instant) -> Admission {
        if let Some(row) = self.jobs.get(&spec.hash) {
            return match &row.phase {
                Phase::Done(entry) => Admission::Cached(entry.clone()),
                other => Admission::AlreadyPending(other.name()),
            };
        }
        if self.draining || !self.ready {
            return Admission::Draining;
        }
        // An expired Open only *nominates* this submission as the probe;
        // the HalfOpen transition commits on the Admit return below,
        // after the queue-capacity check. Committing it earlier would
        // wedge admission forever if the probe were then shed: HalfOpen
        // has no timeout, and its probe hash would never reach the jobs
        // map to deliver a verdict.
        let probe = match &self.breaker {
            Breaker::Open { until } if now < *until => {
                let secs = until.saturating_duration_since(now).as_secs().max(1);
                return Admission::ShedBreakerOpen(secs);
            }
            // Cool-down over: admit this one as the probe (if it fits).
            Breaker::Open { .. } => true,
            Breaker::HalfOpen { .. } => {
                // One probe at a time; everyone else waits a beat.
                return Admission::ShedBreakerOpen(1);
            }
            Breaker::Closed { .. } => false,
        };
        if self.queue.len() >= self.policy.queue_capacity {
            // Shed: hint one second per queued job (each must drain
            // through the pool before this client could be admitted).
            // An expired-Open breaker stays Open, so a later submission
            // can still become the probe once the queue has room.
            return Admission::ShedQueueFull(self.queue.len() as u64);
        }
        spec.id = self.next_id;
        if probe {
            self.breaker = Breaker::HalfOpen { probe: spec.hash.clone() };
        }
        Admission::Admit(spec)
    }

    /// Second half of admission, after the `submitted` record is
    /// durable.
    pub fn commit_admit(&mut self, spec: JobSpec) {
        self.next_id = spec.id + 1;
        let hash = spec.hash.clone();
        self.order.push(hash.clone());
        self.queue.push_back(hash.clone());
        self.jobs.insert(hash, JobRow { spec, phase: Phase::Queued, starts: 0 });
    }

    /// Pops the next queued job for a worker (`None` leaves the worker
    /// to wait or drain). The caller journals `started`, then calls
    /// [`DaemonState::commit_start`].
    pub fn next_queued(&mut self) -> Option<JobSpec> {
        let hash = self.queue.pop_front()?;
        Some(self.jobs.get(&hash).expect("queued hash has a row").spec.clone())
    }

    /// Marks a popped job running, after its `started` record is
    /// durable.
    pub fn commit_start(&mut self, hash: &str) {
        let row = self.jobs.get_mut(hash).expect("started hash has a row");
        row.phase = Phase::Running;
        row.starts += 1;
    }

    /// Marks a job terminal after its `done` record is durable, and
    /// feeds the global breaker.
    pub fn commit_done(&mut self, hash: &str, entry: ManifestEntry, now: Instant) {
        let success = entry.outcome.is_success();
        let row = self.jobs.get_mut(hash).expect("finished hash has a row");
        row.phase = Phase::Done(Box::new(entry));
        self.executed += 1;
        self.feed_breaker(hash, success, now);
    }

    fn feed_breaker(&mut self, hash: &str, success: bool, now: Instant) {
        if self.policy.breaker_threshold == 0 {
            return;
        }
        match &self.breaker {
            Breaker::HalfOpen { probe } if probe == hash => {
                self.breaker = if success {
                    Breaker::Closed { consecutive_failures: 0 }
                } else {
                    Breaker::Open { until: now + BREAKER_COOLDOWN }
                };
            }
            Breaker::HalfOpen { .. } | Breaker::Open { .. } => {}
            Breaker::Closed { consecutive_failures } => {
                let failures = if success { 0 } else { consecutive_failures + 1 };
                self.breaker = if failures >= self.policy.breaker_threshold {
                    Breaker::Open { until: now + BREAKER_COOLDOWN }
                } else {
                    Breaker::Closed { consecutive_failures: failures }
                };
            }
        }
    }

    /// Whether `client` (a peer address) is currently bounced; returns
    /// the remaining cool-down when it is.
    pub fn client_banned(&mut self, client: &str, now: Instant) -> Option<Duration> {
        let record = self.clients.get_mut(client)?;
        match record.open_until {
            Some(until) if now < until => Some(until - now),
            Some(_) => {
                // Cool-down elapsed: forgive, half-open style.
                record.open_until = None;
                record.consecutive_errors = 0;
                None
            }
            None => None,
        }
    }

    /// Feeds one request verdict into `client`'s breaker.
    pub fn record_client(&mut self, client: &str, error: bool, now: Instant) {
        let record = self.clients.entry(client.to_owned()).or_default();
        if !error {
            record.consecutive_errors = 0;
            return;
        }
        record.consecutive_errors += 1;
        if record.consecutive_errors >= CLIENT_ERROR_THRESHOLD {
            record.open_until = Some(now + CLIENT_COOLDOWN);
        }
    }

    /// The row for a content hash.
    pub fn job(&self, hash: &str) -> Option<&JobRow> {
        self.jobs.get(hash)
    }

    /// `(queued, running, done)` counts for `/stats` and `/readyz`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for row in self.jobs.values() {
            match row.phase {
                Phase::Queued => c.0 += 1,
                Phase::Running => c.1 += 1,
                Phase::Done(_) => c.2 += 1,
            }
        }
        c
    }

    /// Whether any job is running (drain waits on this).
    pub fn any_running(&self) -> bool {
        self.jobs.values().any(|r| matches!(r.phase, Phase::Running))
    }

    /// Live journal state in submission order, for WAL rotation: one
    /// `submitted` per job, plus its `done` entry when terminal.
    pub fn snapshot(&self) -> Vec<crate::wal::Record> {
        let mut records = Vec::new();
        for hash in &self.order {
            let row = &self.jobs[hash];
            records.push(crate::wal::Record::Submitted(row.spec.clone()));
            if let Phase::Done(entry) = &row.phase {
                records
                    .push(crate::wal::Record::Done { hash: hash.clone(), entry: *entry.clone() });
            }
        }
        records
    }

    /// All rows in submission order (status listing).
    pub fn rows(&self) -> impl Iterator<Item = &JobRow> {
        self.order.iter().map(|h| &self.jobs[h])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_core::RunConfig;
    use gwc_harness::{Experiment, Outcome, Rung};

    fn spec(game: &str, seed: u64) -> JobSpec {
        JobSpec::new(
            game.into(),
            Experiment::Characterize,
            Rung::Quick,
            RunConfig { seed, ..RunConfig::quick() },
            false,
        )
    }

    fn entry_for(spec: &JobSpec, outcome: Outcome) -> ManifestEntry {
        ManifestEntry {
            id: spec.id,
            game: spec.game.clone(),
            experiment: spec.experiment,
            start_rung: spec.rung,
            final_rung: spec.rung,
            outcome,
            attempts: vec!["ok".into()],
            backoff_ms: vec![0],
            work: 1,
            detail: String::new(),
            output: None,
            output_crc: 0,
            checkpoint: None,
            trace: None,
            config: spec.config,
        }
    }

    fn ready_state(policy: StatePolicy) -> DaemonState {
        let mut s = DaemonState::new(policy);
        s.set_ready();
        s
    }

    /// Drives one job through admit → start → done.
    fn run_one(s: &mut DaemonState, sp: JobSpec, outcome: Outcome, now: Instant) -> String {
        let admitted = match s.admit(sp, now) {
            Admission::Admit(sp) => sp,
            other => panic!("expected Admit, got {other:?}"),
        };
        let hash = admitted.hash.clone();
        s.commit_admit(admitted);
        let popped = s.next_queued().expect("queued");
        assert_eq!(popped.hash, hash);
        s.commit_start(&hash);
        let row_spec = s.job(&hash).expect("row").spec.clone();
        s.commit_done(&hash, entry_for(&row_spec, outcome), now);
        hash
    }

    #[test]
    fn duplicate_submission_hits_cache_without_requeue() {
        let now = Instant::now();
        let mut s = ready_state(StatePolicy::default());
        let hash = run_one(&mut s, spec("Doom3/trdemo2", 1), Outcome::Ok, now);
        match s.admit(spec("Doom3/trdemo2", 1), now) {
            Admission::Cached(entry) => assert_eq!(entry.outcome, Outcome::Ok),
            other => panic!("expected Cached, got {other:?}"),
        }
        assert_eq!(s.counts(), (0, 0, 1));
        assert_eq!(s.job(&hash).expect("row").starts, 1, "cache hit must not re-run");
    }

    #[test]
    fn queue_overflow_sheds_instead_of_growing() {
        let now = Instant::now();
        let mut s = ready_state(StatePolicy { queue_capacity: 2, ..StatePolicy::default() });
        for seed in 0..2 {
            match s.admit(spec("Doom3/trdemo2", seed), now) {
                Admission::Admit(sp) => s.commit_admit(sp),
                other => panic!("expected Admit, got {other:?}"),
            }
        }
        match s.admit(spec("Doom3/trdemo2", 99), now) {
            Admission::ShedQueueFull(retry) => assert!(retry >= 2),
            other => panic!("expected ShedQueueFull, got {other:?}"),
        }
        // Idempotent resubmission of a *queued* job is not shedding.
        match s.admit(spec("Doom3/trdemo2", 0), now) {
            Admission::AlreadyPending("queued") => {}
            other => panic!("expected AlreadyPending, got {other:?}"),
        }
    }

    #[test]
    fn global_breaker_opens_half_opens_and_recloses() {
        let now = Instant::now();
        let policy = StatePolicy { breaker_threshold: 2, ..StatePolicy::default() };
        let mut s = ready_state(policy);
        run_one(&mut s, spec("Doom3/trdemo2", 1), Outcome::Panicked, now);
        run_one(&mut s, spec("Doom3/trdemo2", 2), Outcome::TimedOut, now);
        // Two consecutive failures: open.
        match s.admit(spec("Doom3/trdemo2", 3), now) {
            Admission::ShedBreakerOpen(secs) => assert!(secs >= 1),
            other => panic!("expected ShedBreakerOpen, got {other:?}"),
        }
        // After the cool-down, exactly one probe is admitted...
        let later = now + BREAKER_COOLDOWN + Duration::from_secs(1);
        let probe = match s.admit(spec("Doom3/trdemo2", 3), later) {
            Admission::Admit(sp) => sp,
            other => panic!("expected probe Admit, got {other:?}"),
        };
        let probe_hash = probe.hash.clone();
        s.commit_admit(probe);
        // ...and the next submission still bounces while it runs.
        match s.admit(spec("Doom3/trdemo2", 4), later) {
            Admission::ShedBreakerOpen(_) => {}
            other => panic!("expected shed during half-open, got {other:?}"),
        }
        s.next_queued().expect("probe queued");
        s.commit_start(&probe_hash);
        let e = entry_for(&s.job(&probe_hash).expect("row").spec.clone(), Outcome::Ok);
        s.commit_done(&probe_hash, e, later);
        // Probe success recloses the breaker.
        match s.admit(spec("Doom3/trdemo2", 4), later) {
            Admission::Admit(_) => {}
            other => panic!("expected Admit after reclose, got {other:?}"),
        }
    }

    #[test]
    fn probe_shed_by_full_queue_does_not_wedge_admission() {
        // Regression: the HalfOpen transition used to commit before the
        // queue-capacity check, so an expired-Open breaker meeting a full
        // queue left a probe hash that was never admitted — and HalfOpen
        // has no timeout, so every later submission shed forever.
        let now = Instant::now();
        let policy = StatePolicy { queue_capacity: 1, breaker_threshold: 1 };
        let mut s = ready_state(policy);
        // Open the breaker with one failure, while another job sits
        // queued (admitted before the failure) filling the queue.
        let failing = match s.admit(spec("Doom3/trdemo2", 1), now) {
            Admission::Admit(sp) => sp,
            other => panic!("expected Admit, got {other:?}"),
        };
        let failing_hash = failing.hash.clone();
        s.commit_admit(failing);
        s.next_queued().expect("pop the failing job");
        match s.admit(spec("Doom3/trdemo2", 2), now) {
            Admission::Admit(sp) => s.commit_admit(sp),
            other => panic!("expected Admit, got {other:?}"),
        }
        let e = entry_for(&s.job(&failing_hash).expect("row").spec.clone(), Outcome::Panicked);
        s.commit_start(&failing_hash);
        s.commit_done(&failing_hash, e, now);
        // Cool-down over, queue full: the probe candidate is shed on
        // queue capacity, not on the breaker...
        let later = now + BREAKER_COOLDOWN + Duration::from_secs(1);
        match s.admit(spec("Doom3/trdemo2", 3), later) {
            Admission::ShedQueueFull(_) => {}
            other => panic!("expected ShedQueueFull, got {other:?}"),
        }
        // ...and once the queue drains, the same submission becomes the
        // probe instead of bouncing off a wedged HalfOpen forever.
        let queued = s.next_queued().expect("drain the queued job");
        s.commit_start(&queued.hash);
        let e = entry_for(&s.job(&queued.hash).expect("row").spec.clone(), Outcome::Ok);
        s.commit_done(&queued.hash, e, later);
        match s.admit(spec("Doom3/trdemo2", 3), later) {
            Admission::Admit(_) => {}
            other => panic!("expected probe Admit after queue drained, got {other:?}"),
        }
    }

    #[test]
    fn draining_state_admits_nothing_but_serves_cache() {
        let now = Instant::now();
        let mut s = ready_state(StatePolicy::default());
        run_one(&mut s, spec("Doom3/trdemo2", 1), Outcome::Ok, now);
        s.begin_drain();
        match s.admit(spec("Doom3/trdemo2", 2), now) {
            Admission::Draining => {}
            other => panic!("expected Draining, got {other:?}"),
        }
        match s.admit(spec("Doom3/trdemo2", 1), now) {
            Admission::Cached(_) => {}
            other => panic!("cache must answer during drain, got {other:?}"),
        }
    }

    #[test]
    fn client_breaker_bounces_spammers_then_forgives() {
        let now = Instant::now();
        let mut s = ready_state(StatePolicy::default());
        for _ in 0..CLIENT_ERROR_THRESHOLD {
            assert!(s.client_banned("10.0.0.9", now).is_none());
            s.record_client("10.0.0.9", true, now);
        }
        assert!(s.client_banned("10.0.0.9", now).is_some(), "the last strike bans");
        assert!(s.client_banned("10.0.0.8", now).is_none(), "other clients unaffected");
        let later = now + CLIENT_COOLDOWN + Duration::from_secs(1);
        assert!(s.client_banned("10.0.0.9", later).is_none(), "cool-down forgives");
        // A success resets the strike counter: one strike short of a ban
        // after it, whatever came before.
        s.record_client("10.0.0.9", true, later);
        s.record_client("10.0.0.9", false, later);
        for _ in 1..CLIENT_ERROR_THRESHOLD {
            s.record_client("10.0.0.9", true, later);
        }
        assert!(s.client_banned("10.0.0.9", later).is_none());
    }

    #[test]
    fn recovery_requeues_unfinished_in_submission_order() {
        let now = Instant::now();
        let mut s = DaemonState::new(StatePolicy::default());
        let mut a = spec("Doom3/trdemo2", 1);
        a.id = 0;
        let mut b = spec("Quake4/demo4", 2);
        b.id = 1;
        let mut c = spec("Doom3/trdemo2", 3);
        c.id = 2;
        let done = entry_for(&a, Outcome::Ok);
        s.recover(a.clone(), 1, Some(done));
        s.recover(b.clone(), 1, None); // was running at the kill
        s.recover(c.clone(), 0, None); // was queued at the kill
        s.set_ready();
        assert_eq!(s.counts(), (2, 0, 1));
        assert_eq!(s.next_queued().expect("first").hash, b.hash);
        assert_eq!(s.next_queued().expect("second").hash, c.hash);
        // Fresh ids continue past the recovered ones.
        match s.admit(spec("Doom3/trdemo2", 4), now) {
            Admission::Admit(sp) => assert_eq!(sp.id, 3),
            other => panic!("expected Admit, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_holds_one_submitted_per_job_plus_terminal_entries() {
        let now = Instant::now();
        let mut s = ready_state(StatePolicy::default());
        run_one(&mut s, spec("Doom3/trdemo2", 1), Outcome::Ok, now);
        match s.admit(spec("Quake4/demo4", 2), now) {
            Admission::Admit(sp) => s.commit_admit(sp),
            other => panic!("expected Admit, got {other:?}"),
        }
        let snap = s.snapshot();
        assert_eq!(snap.len(), 3, "submitted+done for job 1, submitted for job 2");
        assert!(matches!(&snap[0], crate::wal::Record::Submitted(sp) if sp.id == 0));
        assert!(matches!(&snap[1], crate::wal::Record::Done { .. }));
        assert!(matches!(&snap[2], crate::wal::Record::Submitted(sp) if sp.id == 1));
    }
}
