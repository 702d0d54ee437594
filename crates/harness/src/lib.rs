//! Supervised campaign runner for multi-game characterization runs.
//!
//! A full reproduction of the paper's evaluation is a long, multi-game
//! campaign: twelve timedemos through the API collector, three through
//! the cycle-level pipeline, plus replay verification and ablation
//! sweeps. One wedged simulation or one panicking experiment must not
//! take the night's results with it. This crate turns every run into a
//! supervised [`Job`] and executes campaigns with:
//!
//! - **panic isolation** — each attempt runs on its own thread behind
//!   `catch_unwind`; a crash is recorded, never propagated;
//! - **watchdog deadlines** — a wall-clock deadline *and* a
//!   simulated-work budget, enforced cooperatively inside the pipeline
//!   loops through a shared [`CancelToken`](gwc_pipeline::CancelToken);
//! - **bounded retry** — exponential backoff with seeded full jitter, so
//!   schedules are reproducible run to run;
//! - **circuit breakers** — consecutive failures on one game stop later
//!   jobs for that game from burning the campaign's time;
//! - **a degradation ladder** — jobs that exhaust their retries are
//!   re-admitted one rung down (`--paper` → default → `--quick`): a
//!   degraded result beats none;
//! - **durable progress** — a versioned `campaign.json` manifest and
//!   per-job artifacts, rewritten atomically after every job, so
//!   `--resume` re-runs only unfinished jobs and an interrupted campaign
//!   converges to the bit-identical result of an uninterrupted one.
//!
//! See DESIGN.md §4d for the job lifecycle state machine and the
//! manifest format.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use gwc_harness::{
//!     run_campaign, CampaignOptions, Experiment, Job, Rung, Supervisor, SupervisorConfig,
//! };
//! # struct MyRunner;
//! # impl gwc_harness::JobRunner for MyRunner {
//! #     fn run(&self, _: &gwc_harness::Job, _: Rung, _: u32, _: &gwc_pipeline::CancelToken)
//! #         -> Result<gwc_harness::JobProduct, gwc_harness::JobError> { unimplemented!() }
//! # }
//!
//! let jobs = vec![Job {
//!     id: 0,
//!     game: "Doom3/trdemo2".into(),
//!     experiment: Experiment::Characterize,
//!     config: gwc_core::RunConfig::quick(),
//!     start_rung: Rung::Default,
//!     checkpoint: None,
//!     trace: None,
//! }];
//! let supervisor = Supervisor::new(SupervisorConfig::default(), Arc::new(MyRunner));
//! let opts = CampaignOptions { dir: "campaign".into(), resume: false, stop_after: None };
//! let outcome = run_campaign(&supervisor, &jobs, &opts).unwrap();
//! println!("{}", outcome.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod chaos;
mod job;
pub mod json;
pub mod lock;
mod supervisor;

pub use campaign::{
    demoted_entry, entry_from_report, entry_from_report_named, load_manifest,
    read_artifact, run_campaign, run_config_from_json, run_config_to_json, write_manifest,
    CampaignOptions, CampaignOutcome, ManifestEntry, MANIFEST_FILE, MANIFEST_VERSION, REPORT_FILE,
};
pub use chaos::{ChaosBehavior, ChaosRunner};
/// IEEE CRC-32, the checksum of every GWCK section, GWTB trace, WAL frame
/// and manifest artifact.
pub use gwc_telemetry::export::crc32;
pub use lock::{DirLock, LockError, LOCK_FILE};
pub use job::{
    AttemptRecord, AttemptResult, Experiment, Job, JobError, JobProduct, JobReport, Outcome, Rung,
};
pub use supervisor::{FleetState, JobRunner, Supervisor, SupervisorConfig};
