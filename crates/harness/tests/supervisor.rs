//! Supervisor integration tests: injected panicking, hanging, and flaky
//! jobs (all deterministically seeded) driving the retry, backoff,
//! circuit-breaker, and degradation-ladder machinery — plus campaign
//! persistence: a mid-campaign kill followed by `--resume` must re-run
//! only unfinished jobs and converge on bit-identical outputs.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use gwc_core::RunConfig;
use gwc_harness::{
    run_campaign, AttemptResult, CampaignOptions, Experiment, Job, JobError, JobProduct,
    JobReport, JobRunner, Outcome, Rung, Supervisor, SupervisorConfig, MANIFEST_FILE,
};
use gwc_pipeline::{CancelCause, CancelToken};

type Behavior =
    Box<dyn Fn(&Job, Rung, u32, &CancelToken) -> Result<JobProduct, JobError> + Send + Sync>;

/// A runner driven by a closure, logging every invocation.
struct Scripted {
    calls: Mutex<Vec<(u32, Rung, u32)>>,
    behavior: Behavior,
}

impl Scripted {
    fn new(behavior: Behavior) -> Arc<Self> {
        Arc::new(Scripted { calls: Mutex::new(Vec::new()), behavior })
    }

    fn calls(&self) -> Vec<(u32, Rung, u32)> {
        self.calls.lock().expect("calls lock").clone()
    }
}

impl JobRunner for Scripted {
    fn run(
        &self,
        job: &Job,
        rung: Rung,
        attempt: u32,
        token: &CancelToken,
    ) -> Result<JobProduct, JobError> {
        self.calls.lock().expect("calls lock").push((job.id, rung, attempt));
        (self.behavior)(job, rung, attempt, token)
    }
}

fn product(text: &str) -> JobProduct {
    JobProduct { text: text.to_owned(), checkpoint: None, trace: None }
}

fn job(id: u32, game: &str) -> Job {
    Job {
        id,
        game: game.to_owned(),
        experiment: Experiment::Characterize,
        config: RunConfig { api_frames: 2, sim_frames: 0, width: 64, height: 48, seed: 7 },
        start_rung: Rung::Default,
        checkpoint: None,
        trace: None,
    }
}

/// [`job`] admitted at the bottom rung of the ladder, where there is
/// nothing to degrade to: exhausting its retries ends it.
fn quick_job(id: u32, game: &str) -> Job {
    Job { start_rung: Rung::Quick, ..job(id, game) }
}

fn fast_config() -> SupervisorConfig {
    SupervisorConfig {
        seed: 0xFEE7,
        max_retries: 2,
        deadline: Duration::from_secs(30),
        grace: Duration::from_millis(200),
        work_budget: None,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        breaker_threshold: 3,
        fail_fast: false,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gwc-supervisor-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn flaky_job_records_retry_count_and_backoff_schedule() {
    // Fails twice, then succeeds: attempts [failed, failed, ok], with the
    // recorded backoff matching the supervisor's published schedule.
    let runner = Scripted::new(Box::new(|_, _, attempt, _| {
        if attempt < 2 {
            Err(JobError::Failed(format!("flake {attempt}")))
        } else {
            Ok(product("finally"))
        }
    }));
    let sup = Supervisor::new(fast_config(), runner.clone() as Arc<dyn JobRunner>);
    let report = sup.run_job(&job(5, "FEAR/interval2"));
    assert_eq!(report.outcome, Outcome::Retried);
    assert_eq!(report.final_rung, Rung::Default);
    let labels: Vec<&str> = report.attempts.iter().map(|a| a.result.label()).collect();
    assert_eq!(labels, ["failed", "failed", "ok"]);
    // Backoff after attempts 0 and 1 follows the deterministic schedule;
    // no backoff after the success.
    assert_eq!(report.attempts[0].backoff_ms, sup.backoff_ms(5, Rung::Default, 0));
    assert_eq!(report.attempts[1].backoff_ms, sup.backoff_ms(5, Rung::Default, 1));
    assert_eq!(report.attempts[2].backoff_ms, 0);
    assert_eq!(runner.calls().len(), 3);

    // Determinism: an identical supervisor replays the identical schedule.
    let runner2 = Scripted::new(Box::new(|_, _, attempt, _| {
        if attempt < 2 {
            Err(JobError::Failed(format!("flake {attempt}")))
        } else {
            Ok(product("finally"))
        }
    }));
    let sup2 = Supervisor::new(fast_config(), runner2 as Arc<dyn JobRunner>);
    let report2 = sup2.run_job(&job(5, "FEAR/interval2"));
    let schedule = |r: &JobReport| -> Vec<u64> { r.attempts.iter().map(|a| a.backoff_ms).collect() };
    assert_eq!(schedule(&report), schedule(&report2), "same seed, same schedule");
}

#[test]
fn work_budget_trips_a_hanging_job() {
    // The job spins charging ticks and polling its token — the budget
    // watchdog, not wall-clock, must cut it off at every rung.
    let runner = Scripted::new(Box::new(|_, _, _, token: &CancelToken| loop {
        token.charge(512);
        if let Some(cause) = token.cause() {
            return Err(JobError::Cancelled(cause));
        }
    }));
    let config = SupervisorConfig {
        work_budget: Some(10_000),
        max_retries: 1,
        ..fast_config()
    };
    let sup = Supervisor::new(config, runner.clone() as Arc<dyn JobRunner>);
    let report = sup.run_job(&job(2, "Doom3/trdemo2"));
    assert_eq!(report.outcome, Outcome::TimedOut);
    assert!(report.detail.contains("work budget"), "detail: {}", report.detail);
    // 2 attempts at Default, then the ladder re-admits at Quick: 4 total.
    assert_eq!(report.attempts.len(), 4);
    for a in &report.attempts {
        assert!(
            matches!(a.result, AttemptResult::TimedOut { cause: CancelCause::Budget, abandoned: false }),
            "unexpected attempt result {:?}",
            a.result
        );
        assert!(a.work > 10_000, "the tripping charge is recorded");
    }
}

#[test]
fn wall_clock_deadline_abandons_a_non_polling_thread() {
    // The job ignores its token entirely (sleeps); the watchdog must
    // cancel at the deadline, wait out the grace period, and abandon it.
    let runner = Scripted::new(Box::new(|_, _, _, _| {
        thread::sleep(Duration::from_secs(5));
        Ok(product("too late"))
    }));
    let config = SupervisorConfig {
        deadline: Duration::from_millis(50),
        grace: Duration::from_millis(30),
        max_retries: 0,
        ..fast_config()
    };
    let sup = Supervisor::new(config, runner as Arc<dyn JobRunner>);
    let report = sup.run_job(&quick_job(3, "Quake4/demo4"));
    assert_eq!(report.outcome, Outcome::TimedOut);
    assert_eq!(report.attempts.len(), 1);
    assert!(
        matches!(
            report.attempts[0].result,
            AttemptResult::TimedOut { cause: CancelCause::Deadline, abandoned: true }
        ),
        "unexpected attempt result {:?}",
        report.attempts[0].result
    );
    assert!(report.detail.contains("deadline"), "detail: {}", report.detail);
}

#[test]
fn panicking_job_is_contained_and_classified() {
    let runner = Scripted::new(Box::new(|job: &Job, _, _, _| {
        panic!("injected panic for job {}", job.id)
    }));
    let config = SupervisorConfig { max_retries: 0, ..fast_config() };
    let sup = Supervisor::new(config, runner as Arc<dyn JobRunner>);
    let report = sup.run_job(&quick_job(9, "Half Life 2 LC/built-in"));
    assert_eq!(report.outcome, Outcome::Panicked);
    assert!(report.detail.contains("injected panic for job 9"), "detail: {}", report.detail);
    assert!(report.product.is_none());
}

#[test]
fn degradation_ladder_readmits_at_quick() {
    // Fails at every rung above Quick: Default exhausts its retries, the
    // ladder re-admits at Quick, and the first Quick attempt succeeds.
    let runner = Scripted::new(Box::new(|_, rung, _, _| {
        if rung == Rung::Quick {
            Ok(product("degraded result"))
        } else {
            Err(JobError::Failed(format!("needs cheaper settings than {}", rung.name())))
        }
    }));
    let config = SupervisorConfig { max_retries: 1, ..fast_config() };
    let sup = Supervisor::new(config, runner.clone() as Arc<dyn JobRunner>);
    let report = sup.run_job(&job(1, "Doom3/trdemo1"));
    assert_eq!(report.outcome, Outcome::Degraded);
    assert_eq!(report.final_rung, Rung::Quick);
    let rungs: Vec<Rung> = report.attempts.iter().map(|a| a.rung).collect();
    assert_eq!(rungs, [Rung::Default, Rung::Default, Rung::Quick]);
    assert_eq!(report.product.as_ref().map(|p| p.text.as_str()), Some("degraded result"));
}

#[test]
fn circuit_breaker_trips_per_game_after_threshold() {
    // Two exhausted failures on one game open its breaker; the third job
    // for that game is skipped unrun, while other games are unaffected.
    let runner = Scripted::new(Box::new(|job: &Job, _, _, _| {
        if job.game == "Oblivion/Anvil Castle" {
            Err(JobError::Failed("always broken".into()))
        } else {
            Ok(product("fine"))
        }
    }));
    let config = SupervisorConfig {
        breaker_threshold: 2,
        max_retries: 0,
        ..fast_config()
    };
    let sup = Supervisor::new(config, runner.clone() as Arc<dyn JobRunner>);
    let jobs = [
        quick_job(0, "Oblivion/Anvil Castle"),
        quick_job(1, "Riddick/MainFrame"),
        quick_job(2, "Oblivion/Anvil Castle"),
        quick_job(3, "Oblivion/Anvil Castle"), // breaker is open by now
        quick_job(4, "Riddick/MainFrame"),
    ];
    let reports = sup.run_jobs(&jobs);
    let outcomes: Vec<Outcome> = reports.iter().map(|r| r.outcome).collect();
    assert_eq!(
        outcomes,
        [Outcome::Skipped, Outcome::Ok, Outcome::Skipped, Outcome::Skipped, Outcome::Ok]
    );
    assert!(reports[3].attempts.is_empty(), "breaker-skipped jobs never run");
    assert!(reports[3].detail.contains("circuit breaker"), "detail: {}", reports[3].detail);
    // Jobs 0 and 2 actually ran (their failures are what tripped it).
    let ran: Vec<u32> = runner.calls().iter().map(|(id, _, _)| *id).collect();
    assert_eq!(ran, [0, 1, 2, 4]);
}

#[test]
fn fail_fast_stops_admitting_after_first_failure() {
    let runner = Scripted::new(Box::new(|job: &Job, _, _, _| {
        if job.id == 1 {
            Err(JobError::Failed("boom".into()))
        } else {
            Ok(product("fine"))
        }
    }));
    let config = SupervisorConfig {
        fail_fast: true,
        max_retries: 0,
        ..fast_config()
    };
    let sup = Supervisor::new(config, runner.clone() as Arc<dyn JobRunner>);
    let jobs = [quick_job(0, "A/a"), quick_job(1, "B/b"), quick_job(2, "C/c"), quick_job(3, "D/d")];
    let reports = sup.run_jobs(&jobs);
    assert_eq!(reports[0].outcome, Outcome::Ok);
    assert_eq!(reports[1].outcome, Outcome::Skipped); // exhausted typed failure
    assert_eq!(reports[2].outcome, Outcome::Skipped);
    assert_eq!(reports[3].outcome, Outcome::Skipped);
    assert!(reports[2].detail.contains("fail-fast"), "detail: {}", reports[2].detail);
    assert!(reports[2].attempts.is_empty() && reports[3].attempts.is_empty());
    assert_eq!(runner.calls().len(), 2, "only jobs 0 and 1 ever ran");
}

/// A deterministic mixed-behavior runner for campaign tests: job id picks
/// the behavior, products are pure functions of (job, rung).
fn campaign_behavior() -> Behavior {
    Box::new(|job: &Job, rung, attempt, _| match job.id % 4 {
        // Healthy.
        0 => Ok(product(&format!("result for job {} at {}", job.id, rung.name()))),
        // Flaky: first attempt of the starting rung panics.
        1 => {
            if attempt == 0 && rung == job.start_rung {
                panic!("first-attempt crash (job {})", job.id);
            }
            Ok(product(&format!("recovered job {} at {}", job.id, rung.name())))
        }
        // Needs degradation.
        2 => {
            if rung == Rung::Quick {
                Ok(product(&format!("degraded job {}", job.id)))
            } else {
                Err(JobError::Failed("too expensive".into()))
            }
        }
        // Hopeless.
        _ => Err(JobError::Failed(format!("persistent failure (job {})", job.id))),
    })
}

fn campaign_jobs() -> Vec<Job> {
    (0..8).map(|i| job(i, &format!("Game{}/demo", i % 6))).collect()
}

#[test]
fn interrupted_campaign_resumes_bit_identically() {
    let config = SupervisorConfig { max_retries: 1, ..fast_config() };

    // Reference: one uninterrupted run.
    let dir_a = temp_dir("uninterrupted");
    let sup = Supervisor::new(config.clone(), Scripted::new(campaign_behavior()) as Arc<dyn JobRunner>);
    let opts_a = CampaignOptions { dir: dir_a.clone(), resume: false, stop_after: None };
    let full = run_campaign(&sup, &campaign_jobs(), &opts_a).expect("uninterrupted campaign");
    assert!(!full.interrupted);
    assert_eq!(full.entries.len(), 8);

    // Killed after 3 executed jobs, then resumed.
    let dir_b = temp_dir("interrupted");
    let runner_b = Scripted::new(campaign_behavior());
    let sup_b = Supervisor::new(config.clone(), runner_b.clone() as Arc<dyn JobRunner>);
    let opts_kill =
        CampaignOptions { dir: dir_b.clone(), resume: false, stop_after: Some(3) };
    let partial = run_campaign(&sup_b, &campaign_jobs(), &opts_kill).expect("interrupted campaign");
    assert!(partial.interrupted);
    assert_eq!(partial.entries.len(), 3, "exactly the executed jobs persisted");
    let executed_before_kill = runner_b.calls().len();

    let runner_c = Scripted::new(campaign_behavior());
    let sup_c = Supervisor::new(config, runner_c.clone() as Arc<dyn JobRunner>);
    let opts_resume = CampaignOptions { dir: dir_b.clone(), resume: true, stop_after: None };
    let resumed = run_campaign(&sup_c, &campaign_jobs(), &opts_resume).expect("resumed campaign");
    assert!(!resumed.interrupted);

    // Only unfinished jobs ran in the resume leg.
    let resumed_ids: Vec<u32> = runner_c.calls().iter().map(|(id, _, _)| *id).collect();
    assert!(resumed_ids.iter().all(|&id| id >= 3), "resume re-ran a finished job: {resumed_ids:?}");
    assert!(executed_before_kill > 0);

    // Bit-identical convergence: entries, manifest bytes, report bytes.
    assert_eq!(resumed.entries, full.entries);
    assert_eq!(
        fs::read(dir_a.join(MANIFEST_FILE)).expect("manifest a"),
        fs::read(dir_b.join(MANIFEST_FILE)).expect("manifest b"),
        "manifests must converge byte-for-byte"
    );
    assert_eq!(resumed.report, full.report, "assembled reports must be bit-identical");

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn resume_reruns_jobs_with_damaged_artifacts() {
    let config = SupervisorConfig { max_retries: 0, ..fast_config() };
    let dir = temp_dir("damaged-artifact");
    let healthy: Behavior = Box::new(|job: &Job, rung, _, _| {
        Ok(product(&format!("result for job {} at {}", job.id, rung.name())))
    });
    let sup = Supervisor::new(config.clone(), Scripted::new(healthy) as Arc<dyn JobRunner>);
    let jobs: Vec<Job> = (0..3).map(|i| job(i, "Game/demo")).collect();
    let opts = CampaignOptions { dir: dir.clone(), resume: false, stop_after: None };
    let first = run_campaign(&sup, &jobs, &opts).expect("first run");
    assert_eq!(first.failed(), 0);

    // Flip a byte in job 1's artifact: its CRC no longer matches, so a
    // resume must treat the job as unfinished and re-run exactly it.
    let artifact = dir.join("job-001.out");
    let mut bytes = fs::read(&artifact).expect("artifact");
    bytes[0] ^= 0x40;
    fs::write(&artifact, &bytes).expect("rewrite artifact");

    let healthy2: Behavior = Box::new(|job: &Job, rung, _, _| {
        Ok(product(&format!("result for job {} at {}", job.id, rung.name())))
    });
    let runner = Scripted::new(healthy2);
    let sup2 = Supervisor::new(config, runner.clone() as Arc<dyn JobRunner>);
    let opts_resume = CampaignOptions { dir: dir.clone(), resume: true, stop_after: None };
    let second = run_campaign(&sup2, &jobs, &opts_resume).expect("resume");
    let reran: Vec<u32> = runner.calls().iter().map(|(id, _, _)| *id).collect();
    assert_eq!(reran, [1], "only the damaged job re-runs");
    assert_eq!(second.failed(), 0);
    assert_eq!(second.report, first.report, "repaired campaign converges");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_mismatched_seed_is_refused() {
    let dir = temp_dir("seed-mismatch");
    let healthy: Behavior = Box::new(|_, _, _, _| Ok(product("x")));
    let sup = Supervisor::new(fast_config(), Scripted::new(healthy) as Arc<dyn JobRunner>);
    let jobs = vec![job(0, "Game/demo")];
    let opts = CampaignOptions { dir: dir.clone(), resume: false, stop_after: None };
    run_campaign(&sup, &jobs, &opts).expect("first run");

    let healthy2: Behavior = Box::new(|_, _, _, _| Ok(product("x")));
    let other = Supervisor::new(
        SupervisorConfig { seed: 999, ..fast_config() },
        Scripted::new(healthy2) as Arc<dyn JobRunner>,
    );
    let opts_resume = CampaignOptions { dir: dir.clone(), resume: true, stop_after: None };
    let err = run_campaign(&other, &jobs, &opts_resume).expect_err("seed mismatch must refuse");
    assert!(err.to_string().contains("seed"), "error: {err}");

    let _ = fs::remove_dir_all(&dir);
}
