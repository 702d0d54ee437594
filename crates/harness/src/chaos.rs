//! Deterministic chaos injection for supervision tests.
//!
//! [`ChaosRunner`] wraps a real [`JobRunner`] and misbehaves on a
//! deterministic schedule keyed by `(seed, job id, rung, attempt)`, so a
//! chaotic campaign — interrupted or not, resumed or not — always takes
//! the same path. Behaviors are spread uniformly over job ids
//! (`(id + seed) % 6`) so every campaign with six or more jobs exercises
//! the full outcome taxonomy.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gwc_pipeline::CancelToken;

use crate::job::{Job, JobError, JobProduct, Rung};
use crate::supervisor::JobRunner;

/// What the chaos schedule assigns to one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosBehavior {
    /// Pass straight through to the wrapped runner.
    Healthy,
    /// Panic on the first attempt, then behave (→ `Retried`).
    PanicOnce,
    /// Fail with a typed error unless the attempt runs at the `quick`
    /// rung (→ `Degraded`).
    FailAboveQuick,
    /// Spin charging work ticks until cancelled (→ `TimedOut`).
    Hang,
    /// Panic on every attempt (→ `Panicked`).
    PanicAlways,
    /// Fail with a typed error on every attempt (→ `Skipped`, and breaker
    /// pressure for the job's game).
    FailAlways,
}

impl ChaosBehavior {
    /// The behavior for a job id under `seed`.
    pub fn for_job(seed: u64, job_id: u32) -> ChaosBehavior {
        match (u64::from(job_id) + seed) % 6 {
            0 => ChaosBehavior::Healthy,
            1 => ChaosBehavior::PanicOnce,
            2 => ChaosBehavior::FailAboveQuick,
            3 => ChaosBehavior::Hang,
            4 => ChaosBehavior::PanicAlways,
            _ => ChaosBehavior::FailAlways,
        }
    }
}

/// A [`JobRunner`] decorator that injects the scheduled misbehavior.
pub struct ChaosRunner {
    inner: Arc<dyn JobRunner>,
    seed: u64,
}

impl ChaosRunner {
    /// Wraps `inner`, misbehaving per the schedule derived from `seed`.
    pub fn new(inner: Arc<dyn JobRunner>, seed: u64) -> Self {
        ChaosRunner { inner, seed }
    }
}

impl JobRunner for ChaosRunner {
    fn run(
        &self,
        job: &Job,
        rung: Rung,
        attempt: u32,
        token: &CancelToken,
    ) -> Result<JobProduct, JobError> {
        match ChaosBehavior::for_job(self.seed, job.id) {
            ChaosBehavior::Healthy => self.inner.run(job, rung, attempt, token),
            ChaosBehavior::PanicOnce => {
                if attempt == 0 && rung == job.start_rung {
                    panic!("chaos: injected panic (job {}, first attempt)", job.id);
                }
                self.inner.run(job, rung, attempt, token)
            }
            ChaosBehavior::FailAboveQuick => {
                if rung == Rung::Quick {
                    self.inner.run(job, rung, attempt, token)
                } else {
                    Err(JobError::Failed(format!(
                        "chaos: injected failure at rung {} (job {})",
                        rung.name(),
                        job.id
                    )))
                }
            }
            ChaosBehavior::Hang => {
                // A cooperative hang: burns the work budget (or waits for
                // the wall-clock deadline) while staying cancellable.
                loop {
                    token.charge(65_536);
                    if let Some(cause) = token.cause() {
                        return Err(JobError::Cancelled(cause));
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            }
            ChaosBehavior::PanicAlways => {
                panic!("chaos: injected panic (job {}, every attempt)", job.id)
            }
            ChaosBehavior::FailAlways => Err(JobError::Failed(format!(
                "chaos: injected persistent failure (job {})",
                job.id
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_uniform_and_deterministic() {
        for seed in [0u64, 7, 1234] {
            for id in 0..12u32 {
                assert_eq!(
                    ChaosBehavior::for_job(seed, id),
                    ChaosBehavior::for_job(seed, id),
                    "schedule must be pure"
                );
            }
            // Six consecutive ids cover all six behaviors.
            let behaviors: Vec<ChaosBehavior> =
                (0..6).map(|id| ChaosBehavior::for_job(seed, id)).collect();
            for expect in [
                ChaosBehavior::Healthy,
                ChaosBehavior::PanicOnce,
                ChaosBehavior::FailAboveQuick,
                ChaosBehavior::Hang,
                ChaosBehavior::PanicAlways,
                ChaosBehavior::FailAlways,
            ] {
                assert!(behaviors.contains(&expect), "{expect:?} missing under seed {seed}");
            }
        }
    }
}
