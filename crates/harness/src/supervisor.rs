//! The job supervisor: panic isolation, watchdog deadlines, bounded
//! retry with seeded backoff, per-game circuit breakers, and the
//! degradation ladder.
//!
//! Every attempt runs on its own thread behind `catch_unwind`, with a
//! [`CancelToken`] shared between the watchdog and the pipeline loops.
//! The watchdog enforces two independent limits: a wall-clock deadline
//! (checked here, via `recv_timeout`) and a simulated-work budget
//! (checked *inside* the pipeline, which charges ticks per command,
//! triangle, and quad batch). A cancelled attempt's partial results are
//! discarded — they never reach a table, a checkpoint, or the manifest.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gwc_pipeline::{CancelCause, CancelToken};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::job::{
    AttemptRecord, AttemptResult, Job, JobError, JobProduct, JobReport, Outcome, Rung,
};

/// Knobs for the supervisor. All schedules derived from `seed` are
/// deterministic, so two campaigns with the same configuration and jobs
/// observe identical backoff sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Seed for the backoff jitter PRNG.
    pub seed: u64,
    /// Extra attempts allowed per rung (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Wall-clock deadline per attempt.
    pub deadline: Duration,
    /// After the deadline cancels the token, how long to wait for the
    /// attempt to acknowledge before abandoning its thread.
    pub grace: Duration,
    /// Simulated-work budget per attempt, in pipeline ticks (`None` for
    /// unlimited).
    pub work_budget: Option<u64>,
    /// Base backoff delay (attempt 0 → up to this, doubling after).
    pub backoff_base_ms: u64,
    /// Ceiling for the exponential backoff window.
    pub backoff_cap_ms: u64,
    /// Consecutive failed jobs on one game before its breaker opens and
    /// later jobs for that game are skipped (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Stop admitting any further jobs after the first failed one.
    pub fail_fast: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            seed: 0x5EED,
            max_retries: 2,
            deadline: Duration::from_secs(300),
            grace: Duration::from_secs(2),
            work_budget: None,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            breaker_threshold: 3,
            fail_fast: false,
        }
    }
}

/// Executes one attempt of a job. Implementations must poll `token`
/// (directly or by handing it to the pipeline) so the watchdog can
/// interrupt them cooperatively, and should return
/// [`JobError::Cancelled`] when they observe it tripped.
///
/// Runners are shared across attempt threads, so they must be
/// `Send + Sync`; per-attempt state belongs in the attempt itself.
pub trait JobRunner: Send + Sync {
    /// Runs `job` at `rung` (attempt index `attempt` within that rung).
    fn run(
        &self,
        job: &Job,
        rung: Rung,
        attempt: u32,
        token: &CancelToken,
    ) -> Result<JobProduct, JobError>;
}

/// Per-campaign admission state: circuit breakers and the fail-fast
/// latch. Kept separate from [`Supervisor`] so a resumed campaign can
/// replay previously completed outcomes through the *same* state machine
/// and make bit-identical admission decisions.
#[derive(Debug, Default, Clone)]
pub struct FleetState {
    consecutive_failures: HashMap<String, u32>,
    open_breakers: Vec<String>,
    fail_fast_tripped: bool,
}

impl FleetState {
    /// Fresh state: all breakers closed, fail-fast untripped.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `job` may run. `Err(reason)` means it must be recorded as
    /// [`Outcome::Skipped`] with that detail instead.
    pub fn admit(&self, job: &Job) -> Result<(), String> {
        if self.fail_fast_tripped {
            return Err("fail-fast: an earlier job failed".to_owned());
        }
        if self.open_breakers.iter().any(|g| g == &job.game) {
            return Err(format!("circuit breaker open for {}", job.game));
        }
        Ok(())
    }

    /// Feeds one terminal outcome back into the breakers and the
    /// fail-fast latch. `ran` is false for admission skips (breaker open,
    /// fail-fast latched): a job that never ran says nothing new about
    /// its game, so it advances no counters. A job that *ran* and
    /// exhausted its retries counts as a failure even though its outcome
    /// is also [`Outcome::Skipped`].
    pub fn record(&mut self, config: &SupervisorConfig, game: &str, outcome: Outcome, ran: bool) {
        if !ran {
            return;
        }
        if outcome.is_success() {
            self.consecutive_failures.insert(game.to_owned(), 0);
            return;
        }
        if config.fail_fast {
            self.fail_fast_tripped = true;
        }
        if config.breaker_threshold > 0 {
            let count = self.consecutive_failures.entry(game.to_owned()).or_insert(0);
            *count += 1;
            if *count >= config.breaker_threshold && !self.open_breakers.iter().any(|g| g == game)
            {
                self.open_breakers.push(game.to_owned());
            }
        }
    }

    /// Games whose breakers are open, in trip order.
    pub fn open_breakers(&self) -> &[String] {
        &self.open_breakers
    }

    /// Whether fail-fast has latched.
    pub fn fail_fast_tripped(&self) -> bool {
        self.fail_fast_tripped
    }
}

/// The supervisor: owns the policy knobs and a shared runner.
pub struct Supervisor {
    config: SupervisorConfig,
    runner: Arc<dyn JobRunner>,
}

impl Supervisor {
    /// Builds a supervisor over `runner`.
    pub fn new(config: SupervisorConfig, runner: Arc<dyn JobRunner>) -> Self {
        Supervisor { config, runner }
    }

    /// The policy in force.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Deterministic full-jitter backoff for the given attempt: a
    /// seeded `StdRng` draw over `[0, min(cap, base * 2^attempt)]`.
    pub fn backoff_ms(&self, job_id: u32, rung: Rung, attempt: u32) -> u64 {
        let window = self
            .config
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.config.backoff_cap_ms);
        if window == 0 {
            return 0;
        }
        let key = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(job_id) << 32)
            .wrapping_add(u64::from(rung as u8) << 16)
            .wrapping_add(u64::from(attempt));
        // The first draw of a generator keyed per (seed, job, rung,
        // attempt): reproducible and independent of execution order.
        StdRng::seed_from_u64(key).next_u64() % (window + 1)
    }

    /// Runs one job through the retry/ladder state machine (no breaker
    /// or fail-fast — those are fleet-level, see [`Supervisor::run_jobs`]).
    pub fn run_job(&self, job: &Job) -> JobReport {
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut rung = job.start_rung;
        loop {
            for attempt in 0..=self.config.max_retries {
                let (result, work, product) = self.run_attempt(job, rung, attempt);
                let ok = matches!(result, AttemptResult::Ok);
                let last_of_rung = attempt == self.config.max_retries;
                let will_degrade = rung.degrade().is_some();
                let more_to_come = !ok && (!last_of_rung || will_degrade);
                let backoff_ms =
                    if more_to_come { self.backoff_ms(job.id, rung, attempt) } else { 0 };
                attempts.push(AttemptRecord {
                    rung,
                    attempt,
                    result: result.clone(),
                    backoff_ms,
                    work,
                });
                if ok {
                    let product = product.unwrap_or(JobProduct { text: String::new(), checkpoint: None, trace: None });
                    let outcome = if rung != job.start_rung {
                        Outcome::Degraded
                    } else if attempts.len() > 1 {
                        Outcome::Retried
                    } else {
                        Outcome::Ok
                    };
                    let detail = if outcome == Outcome::Ok {
                        String::new()
                    } else {
                        format!("succeeded on attempt {} at rung {}", attempts.len(), rung.name())
                    };
                    return JobReport {
                        job: job.clone(),
                        outcome,
                        final_rung: rung,
                        attempts,
                        product: Some(product),
                        detail,
                    };
                }
                if backoff_ms > 0 {
                    thread::sleep(Duration::from_millis(backoff_ms));
                }
            }
            match rung.degrade() {
                Some(next) => rung = next,
                None => break,
            }
        }
        // Exhausted: classify by the final attempt (the last word wins).
        let last = attempts.last().expect("at least one attempt ran");
        let (outcome, detail) = match &last.result {
            AttemptResult::Panicked(msg) => (Outcome::Panicked, format!("panic: {msg}")),
            AttemptResult::TimedOut { cause, abandoned } => (
                Outcome::TimedOut,
                format!(
                    "{} exceeded{}",
                    match cause {
                        CancelCause::Deadline => "wall-clock deadline",
                        CancelCause::Budget => "work budget",
                        CancelCause::Shutdown => "shutdown requested",
                    },
                    if *abandoned { " (thread abandoned)" } else { "" }
                ),
            ),
            AttemptResult::Failed(msg) => (Outcome::Skipped, format!("failed: {msg}")),
            AttemptResult::Ok => unreachable!("successful attempts return above"),
        };
        JobReport {
            job: job.clone(),
            outcome,
            final_rung: last.rung,
            attempts,
            product: None,
            detail,
        }
    }

    /// Runs jobs in order under the fleet-level policy (circuit breakers,
    /// fail-fast). Every job gets a report; skipped jobs get
    /// [`Outcome::Skipped`] with the reason.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<JobReport> {
        let mut state = FleetState::new();
        jobs.iter().map(|job| self.admit_and_run(job, &mut state)).collect()
    }

    /// One step of [`Supervisor::run_jobs`], with caller-owned state —
    /// the campaign driver uses this so resumed runs share the exact
    /// admission state machine.
    pub fn admit_and_run(&self, job: &Job, state: &mut FleetState) -> JobReport {
        match state.admit(job) {
            Ok(()) => {
                let report = self.run_job(job);
                state.record(&self.config, &job.game, report.outcome, true);
                report
            }
            Err(reason) => {
                state.record(&self.config, &job.game, Outcome::Skipped, false);
                JobReport {
                    job: job.clone(),
                    outcome: Outcome::Skipped,
                    final_rung: job.start_rung,
                    attempts: Vec::new(),
                    product: None,
                    detail: reason,
                }
            }
        }
    }

    /// Runs one attempt on an isolated thread under the watchdog.
    fn run_attempt(
        &self,
        job: &Job,
        rung: Rung,
        attempt: u32,
    ) -> (AttemptResult, u64, Option<JobProduct>) {
        let token = match self.config.work_budget {
            Some(limit) => CancelToken::with_work_limit(limit),
            None => CancelToken::new(),
        };
        let (tx, rx) = mpsc::channel();
        let runner = Arc::clone(&self.runner);
        let job_for_thread = job.clone();
        let token_for_thread = token.clone();
        let spawned = thread::Builder::new()
            .name(format!("job-{}-{}-a{}", job.id, rung.name(), attempt))
            .stack_size(8 << 20)
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    runner.run(&job_for_thread, rung, attempt, &token_for_thread)
                }));
                // The receiver may have abandoned us; ignore send failure.
                let _ = tx.send(result);
            });
        let _handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                return (AttemptResult::Failed(format!("spawn failed: {e}")), 0, None);
            }
        };
        let received = match rx.recv_timeout(self.config.deadline) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => {
                // Wall-clock deadline: trip the token and give the
                // attempt a grace period to notice.
                token.cancel(CancelCause::Deadline);
                rx.recv_timeout(self.config.grace).ok()
            }
            Err(RecvTimeoutError::Disconnected) => {
                // catch_unwind means the thread always sends; a vanished
                // sender is a crashed thread.
                return (
                    AttemptResult::Panicked("job thread terminated without reporting".to_owned()),
                    token.work(),
                    None,
                );
            }
        };
        let work = token.work();
        let Some(received) = received else {
            // Grace expired: the thread ignores its token (stuck in a
            // non-polling region). Abandon it — `_handle` is dropped, the
            // thread detaches, and its eventual result is discarded
            // because the channel sender fails.
            return (
                AttemptResult::TimedOut { cause: CancelCause::Deadline, abandoned: true },
                work,
                None,
            );
        };
        match received {
            Ok(Ok(product)) => {
                if token.is_cancelled() {
                    // The attempt "finished" only because cancellation
                    // made the pipeline skip work — the product is
                    // partial and must not be surfaced.
                    let cause = token.cause().unwrap_or(CancelCause::Deadline);
                    (AttemptResult::TimedOut { cause, abandoned: false }, work, None)
                } else {
                    (AttemptResult::Ok, work, Some(product))
                }
            }
            Ok(Err(JobError::Cancelled(cause))) => {
                (AttemptResult::TimedOut { cause, abandoned: false }, work, None)
            }
            Ok(Err(JobError::Failed(msg))) => (AttemptResult::Failed(msg), work, None),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                (AttemptResult::Panicked(msg), work, None)
            }
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Experiment;
    use gwc_core::RunConfig;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn job(id: u32, game: &str) -> Job {
        Job {
            id,
            game: game.to_owned(),
            experiment: Experiment::Characterize,
            config: RunConfig::quick(),
            start_rung: Rung::Default,
            checkpoint: None,
            trace: None,
        }
    }

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig {
            deadline: Duration::from_millis(250),
            grace: Duration::from_millis(100),
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..SupervisorConfig::default()
        }
    }

    struct Const(&'static str);
    impl JobRunner for Const {
        fn run(&self, _: &Job, _: Rung, _: u32, _: &CancelToken) -> Result<JobProduct, JobError> {
            Ok(JobProduct { text: self.0.to_owned(), checkpoint: None, trace: None })
        }
    }

    #[test]
    fn first_try_success_is_ok() {
        let sup = Supervisor::new(fast_config(), Arc::new(Const("hello")));
        let report = sup.run_job(&job(0, "Doom3/trdemo2"));
        assert_eq!(report.outcome, Outcome::Ok);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.product.as_ref().map(|p| p.text.as_str()), Some("hello"));
    }

    struct PanicOnce(AtomicU32);
    impl JobRunner for PanicOnce {
        fn run(&self, _: &Job, _: Rung, attempt: u32, _: &CancelToken) -> Result<JobProduct, JobError> {
            if attempt == 0 {
                self.0.fetch_add(1, Ordering::Relaxed);
                panic!("injected first-attempt panic");
            }
            Ok(JobProduct { text: "recovered".to_owned(), checkpoint: None, trace: None })
        }
    }

    #[test]
    fn panic_is_isolated_and_retried() {
        let runner = Arc::new(PanicOnce(AtomicU32::new(0)));
        let sup = Supervisor::new(fast_config(), Arc::clone(&runner) as Arc<dyn JobRunner>);
        let report = sup.run_job(&job(1, "Quake4/demo4"));
        assert_eq!(report.outcome, Outcome::Retried);
        assert_eq!(report.attempts.len(), 2);
        assert!(matches!(report.attempts[0].result, AttemptResult::Panicked(_)));
        assert_eq!(runner.0.load(Ordering::Relaxed), 1, "panicked exactly once");
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let sup = Supervisor::new(fast_config(), Arc::new(Const("x")));
        let a = sup.backoff_ms(3, Rung::Default, 1);
        let b = sup.backoff_ms(3, Rung::Default, 1);
        assert_eq!(a, b, "same key, same delay");
        assert!(a <= 2, "attempt-1 window is min(cap, base*2) = 2ms");
        // Different keys diverge somewhere in a small sample.
        let draws: Vec<u64> =
            (0..32).map(|id| sup.backoff_ms(id, Rung::Default, 2)).collect();
        assert!(draws.iter().any(|&d| d != draws[0]), "jitter varies across jobs");
    }
}
