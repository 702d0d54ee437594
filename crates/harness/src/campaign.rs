//! Campaign persistence: the versioned `campaign.json` manifest,
//! per-job artifacts, and `--resume`.
//!
//! The manifest is rewritten atomically (temp file + rename) after every
//! job, so a campaign killed at any point loses at most the job in
//! flight. On `--resume`, entries whose job spec still matches are
//! replayed through the same admission state machine (circuit breakers,
//! fail-fast) in job order, and only jobs without a terminal entry run —
//! which makes an interrupted-then-resumed campaign bit-identical to an
//! uninterrupted one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gwc_core::RunConfig;
use gwc_telemetry::export::crc32;

use crate::job::{Experiment, Job, JobReport, Outcome, Rung};
use crate::json::{self, Json};
use crate::supervisor::{FleetState, Supervisor};

/// Manifest format version; bump on any incompatible schema change.
/// Version 2 added the per-job `trace` artifact pointer.
pub const MANIFEST_VERSION: u64 = 2;

/// Manifest file name inside the campaign directory.
pub const MANIFEST_FILE: &str = "campaign.json";

/// Assembled report file name inside the campaign directory.
pub const REPORT_FILE: &str = "campaign-report.txt";

/// Options for one campaign invocation.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Directory for the manifest and per-job artifacts.
    pub dir: PathBuf,
    /// Reuse terminal entries from an existing manifest.
    pub resume: bool,
    /// Stop (as if killed) after executing this many jobs — a test hook
    /// for exercising mid-campaign interruption deterministically.
    pub stop_after: Option<usize>,
}

/// One terminal row of the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Job id (position in the campaign).
    pub id: u32,
    /// Table I profile name.
    pub game: String,
    /// Experiment kind.
    pub experiment: Experiment,
    /// Rung the job was admitted at.
    pub start_rung: Rung,
    /// Rung of the final attempt.
    pub final_rung: Rung,
    /// Terminal classification.
    pub outcome: Outcome,
    /// Attempt labels in execution order (e.g. `["panicked", "ok"]`).
    pub attempts: Vec<String>,
    /// Backoff slept after each attempt, milliseconds.
    pub backoff_ms: Vec<u64>,
    /// Total pipeline work ticks charged across attempts.
    pub work: u64,
    /// Failure/skip detail, empty for clean successes.
    pub detail: String,
    /// Artifact file name (relative to the campaign dir), if the job
    /// produced output.
    pub output: Option<String>,
    /// CRC-32 of the artifact file.
    pub output_crc: u32,
    /// GWCK checkpoint pointer reported by the runner, if any.
    pub checkpoint: Option<String>,
    /// Perfetto/Chrome trace pointer reported by the runner, if any.
    pub trace: Option<String>,
    /// The job's base configuration (rungs derive from it).
    pub config: RunConfig,
}

impl ManifestEntry {
    /// Whether this entry describes `job` (so a resume may reuse it).
    pub fn matches(&self, job: &Job) -> bool {
        self.id == job.id
            && self.game == job.game
            && self.experiment == job.experiment
            && self.start_rung == job.start_rung
            && self.config == job.config
    }

    /// Serializes the entry as a manifest/journal JSON object. Public
    /// because the `gwc-serve` write-ahead journal records completed jobs
    /// in exactly this shape (one schema, one replayer).
    pub fn to_json(&self) -> Json {
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Json::Str(s.clone()),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("id".into(), Json::Num(u64::from(self.id))),
            ("game".into(), Json::Str(self.game.clone())),
            ("experiment".into(), Json::Str(self.experiment.name().into())),
            ("start_rung".into(), Json::Str(self.start_rung.name().into())),
            ("final_rung".into(), Json::Str(self.final_rung.name().into())),
            ("outcome".into(), Json::Str(self.outcome.name().into())),
            (
                "attempts".into(),
                Json::Arr(self.attempts.iter().map(|a| Json::Str(a.clone())).collect()),
            ),
            (
                "backoff_ms".into(),
                Json::Arr(self.backoff_ms.iter().map(|&ms| Json::Num(ms)).collect()),
            ),
            ("work".into(), Json::Num(self.work)),
            ("detail".into(), Json::Str(self.detail.clone())),
            ("output".into(), opt_str(&self.output)),
            ("output_crc".into(), Json::Num(u64::from(self.output_crc))),
            ("checkpoint".into(), opt_str(&self.checkpoint)),
            ("trace".into(), opt_str(&self.trace)),
            (
                "config".into(),
                Json::Obj(vec![
                    ("api_frames".into(), Json::Num(u64::from(self.config.api_frames))),
                    ("sim_frames".into(), Json::Num(u64::from(self.config.sim_frames))),
                    ("width".into(), Json::Num(u64::from(self.config.width))),
                    ("height".into(), Json::Num(u64::from(self.config.height))),
                    ("seed".into(), Json::Num(self.config.seed)),
                ]),
            ),
        ])
    }

    /// Parses an entry back out of [`ManifestEntry::to_json`] output;
    /// `None` for any structural mismatch (the caller decides whether
    /// that is corruption or a version skew).
    pub fn from_json(v: &Json) -> Option<ManifestEntry> {
        let strings = |key: &str| -> Option<Vec<String>> {
            v.get(key)?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_owned))
                .collect()
        };
        let opt_str = |key: &str| -> Option<Option<String>> {
            match v.get(key)? {
                Json::Null => Some(None),
                Json::Str(s) => Some(Some(s.clone())),
                _ => None,
            }
        };
        let config = v.get("config")?;
        let cfg_u32 = |key: &str| -> Option<u32> {
            u32::try_from(config.get(key)?.as_u64()?).ok()
        };
        Some(ManifestEntry {
            id: u32::try_from(v.get("id")?.as_u64()?).ok()?,
            game: v.get("game")?.as_str()?.to_owned(),
            experiment: Experiment::from_name(v.get("experiment")?.as_str()?)?,
            start_rung: Rung::from_name(v.get("start_rung")?.as_str()?)?,
            final_rung: Rung::from_name(v.get("final_rung")?.as_str()?)?,
            outcome: Outcome::from_name(v.get("outcome")?.as_str()?)?,
            attempts: strings("attempts")?,
            backoff_ms: v.get("backoff_ms")?.as_arr()?.iter().map(Json::as_u64).collect::<Option<_>>()?,
            work: v.get("work")?.as_u64()?,
            detail: v.get("detail")?.as_str()?.to_owned(),
            output: opt_str("output")?,
            output_crc: u32::try_from(v.get("output_crc")?.as_u64()?).ok()?,
            checkpoint: opt_str("checkpoint")?,
            trace: opt_str("trace")?,
            config: RunConfig {
                api_frames: cfg_u32("api_frames")?,
                sim_frames: cfg_u32("sim_frames")?,
                width: cfg_u32("width")?,
                height: cfg_u32("height")?,
                seed: config.get("seed")?.as_u64()?,
            },
        })
    }

    /// One summary line for the campaign report.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "job {:>3}  {:<26} {:<12} {:<8} {:<9} attempts={}",
            self.id,
            self.game,
            self.experiment.name(),
            self.final_rung.name(),
            self.outcome.name(),
            self.attempts.len(),
        );
        if !self.detail.is_empty() {
            line.push_str("  ");
            line.push_str(&self.detail);
        }
        line
    }
}

/// The result of a campaign invocation.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Terminal entries, in job order (shorter than the job list only
    /// when interrupted).
    pub entries: Vec<ManifestEntry>,
    /// Whether the `stop_after` hook cut the run short.
    pub interrupted: bool,
    /// The assembled report (summary + artifacts), empty when
    /// interrupted.
    pub report: String,
}

impl CampaignOutcome {
    /// Entries that did not produce a usable result.
    pub fn failed(&self) -> usize {
        self.entries.iter().filter(|e| !e.outcome.is_success()).count()
    }

    /// The one-line-per-job summary block.
    pub fn summary(&self) -> String {
        summary_text(&self.entries)
    }
}

fn summary_text(entries: &[ManifestEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&e.summary_line());
        out.push('\n');
    }
    let count = |o: Outcome| entries.iter().filter(|e| e.outcome == o).count();
    out.push_str(&format!(
        "campaign: {} jobs: {} ok, {} retried, {} degraded, {} timed-out, {} panicked, {} skipped\n",
        entries.len(),
        count(Outcome::Ok),
        count(Outcome::Retried),
        count(Outcome::Degraded),
        count(Outcome::TimedOut),
        count(Outcome::Panicked),
        count(Outcome::Skipped),
    ));
    out
}

fn io_invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Serializes and atomically writes the manifest: temp file, fsync,
/// rename, directory fsync. The temp-file fsync *before* the rename is
/// load-bearing — renaming first would publish a directory entry whose
/// bytes are still only in the page cache, and a crash right after could
/// surface an empty or partial `campaign.json` where a good one used to
/// be. On any failure the previous manifest is untouched.
pub fn write_manifest(dir: &Path, seed: u64, entries: &[ManifestEntry]) -> io::Result<()> {
    let doc = Json::Obj(vec![
        ("format".into(), Json::Str("gwc-campaign".into())),
        ("version".into(), Json::Num(MANIFEST_VERSION)),
        ("seed".into(), Json::Num(seed)),
        ("jobs".into(), Json::Arr(entries.iter().map(ManifestEntry::to_json).collect())),
    ]);
    let tmp = dir.join(".campaign.json.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        gwc_failpoints::write_all("manifest.write", &mut f, doc.to_pretty().as_bytes())?;
        gwc_failpoints::check("manifest.fsync")?;
        f.sync_all()?;
    }
    gwc_failpoints::check("manifest.rename")?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    // And make the rename itself durable.
    gwc_failpoints::check("manifest.dirsync")?;
    fs::File::open(dir)?.sync_all()
}

/// Loads and validates a manifest. `expect_seed` guards against resuming
/// a campaign with a different supervision seed (which would silently
/// change backoff schedules and chaos decisions mid-stream).
pub fn load_manifest(dir: &Path, expect_seed: u64) -> io::Result<Vec<ManifestEntry>> {
    let path = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&path)?;
    let doc = json::parse(&text)
        .map_err(|e| io_invalid(format!("{}: {e}", path.display())))?;
    if doc.get("format").and_then(Json::as_str) != Some("gwc-campaign") {
        return Err(io_invalid(format!("{}: not a campaign manifest", path.display())));
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(MANIFEST_VERSION) => {}
        v => {
            return Err(io_invalid(format!(
                "{}: unsupported manifest version {v:?} (expected {MANIFEST_VERSION})",
                path.display()
            )))
        }
    }
    match doc.get("seed").and_then(Json::as_u64) {
        Some(s) if s == expect_seed => {}
        s => {
            return Err(io_invalid(format!(
                "{}: manifest seed {s:?} does not match supervision seed {expect_seed}",
                path.display()
            )))
        }
    }
    let jobs = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| io_invalid(format!("{}: missing jobs array", path.display())))?;
    jobs.iter()
        .map(|j| {
            ManifestEntry::from_json(j)
                .ok_or_else(|| io_invalid(format!("{}: malformed job entry", path.display())))
        })
        .collect()
}

fn artifact_name(id: u32) -> String {
    format!("job-{id:03}.out")
}

/// Reads the artifact text of an entry, verifying its CRC.
pub fn read_artifact(dir: &Path, entry: &ManifestEntry) -> io::Result<String> {
    let Some(name) = &entry.output else {
        return Err(io_invalid(format!("job {} has no artifact", entry.id)));
    };
    let path = dir.join(name);
    let bytes = fs::read(&path)?;
    if crc32(&bytes) != entry.output_crc {
        return Err(io_invalid(format!("{}: artifact CRC mismatch", path.display())));
    }
    String::from_utf8(bytes)
        .map_err(|_| io_invalid(format!("{}: artifact is not UTF-8", path.display())))
}

/// Persists a report's artifact into `dir` and converts the report into
/// its durable manifest/journal row. Public for the same reason as
/// [`ManifestEntry::to_json`]: the daemon journals completed jobs
/// through this exact path.
pub fn entry_from_report(dir: &Path, report: &JobReport) -> io::Result<ManifestEntry> {
    entry_from_report_named(dir, report, &artifact_name(report.job.id))
}

/// [`entry_from_report`] with a caller-chosen artifact file name — the
/// daemon names artifacts by content hash (`art-<hash>.out`) instead of
/// by job id, so cached results survive id reassignment across restarts.
pub fn entry_from_report_named(
    dir: &Path,
    report: &JobReport,
    artifact: &str,
) -> io::Result<ManifestEntry> {
    let (output, output_crc, checkpoint, trace) = match &report.product {
        Some(product) => {
            gwc_failpoints::write_file("artifact.write", &dir.join(artifact), product.text.as_bytes())?;
            (
                Some(artifact.to_owned()),
                crc32(product.text.as_bytes()),
                product.checkpoint.clone(),
                product.trace.clone(),
            )
        }
        None => (None, 0, None, None),
    };
    Ok(ManifestEntry {
        id: report.job.id,
        game: report.job.game.clone(),
        experiment: report.job.experiment,
        start_rung: report.job.start_rung,
        final_rung: report.final_rung,
        outcome: report.outcome,
        attempts: report.attempts.iter().map(|a| a.result.label().to_owned()).collect(),
        backoff_ms: report.attempts.iter().map(|a| a.backoff_ms).collect(),
        work: report.total_work(),
        detail: report.detail.clone(),
        output,
        output_crc,
        checkpoint,
        trace,
        config: report.job.config,
    })
}

/// The durable row for a job whose result could not be persisted: the
/// storage degrade policy. A success without its artifact is not a
/// success, so the outcome demotes to [`Outcome::Skipped`] and the
/// detail carries the typed fault ([`gwc_pipeline::SimError::Storage`])
/// — the caller records the loss and keeps running instead of dying
/// (fail-stop is reserved for the write-ahead journal itself).
pub fn demoted_entry(report: &JobReport, what: &'static str, error: &io::Error) -> ManifestEntry {
    let fault =
        gwc_pipeline::SimError::Storage { what, detail: error.to_string() };
    ManifestEntry {
        id: report.job.id,
        game: report.job.game.clone(),
        experiment: report.job.experiment,
        start_rung: report.job.start_rung,
        final_rung: report.final_rung,
        outcome: Outcome::Skipped,
        attempts: report.attempts.iter().map(|a| a.result.label().to_owned()).collect(),
        backoff_ms: report.attempts.iter().map(|a| a.backoff_ms).collect(),
        work: report.total_work(),
        detail: fault.to_string(),
        output: None,
        output_crc: 0,
        checkpoint: None,
        trace: None,
        config: report.job.config,
    }
}

/// Whether a prior entry can stand in for running `job` again. Terminal
/// failures are reusable (the job *finished* — policy was exhausted);
/// successes additionally require their artifact to still be intact.
fn reusable(dir: &Path, entry: &ManifestEntry, job: &Job) -> bool {
    if !entry.matches(job) {
        return false;
    }
    if entry.outcome.is_success() {
        return read_artifact(dir, entry).is_ok();
    }
    true
}

/// Runs (or resumes) a campaign of `jobs` under `supervisor`.
///
/// The manifest is rewritten after every job. When the run completes
/// uninterrupted, the assembled report (summary + every artifact, in job
/// order) is written to [`REPORT_FILE`] and returned.
pub fn run_campaign(
    supervisor: &Supervisor,
    jobs: &[Job],
    opts: &CampaignOptions,
) -> io::Result<CampaignOutcome> {
    fs::create_dir_all(&opts.dir)?;
    // One owner per directory: a campaign and a daemon (or two
    // campaigns) sharing a manifest would corrupt each other's renames.
    // The claim lives for the whole run and is released on return.
    let _lock = crate::lock::DirLock::acquire(&opts.dir, "campaign")
        .map_err(|e| io::Error::new(io::ErrorKind::WouldBlock, e.to_string()))?;
    let seed = supervisor.config().seed;
    let prior: Vec<ManifestEntry> = if opts.resume {
        load_manifest(&opts.dir, seed)?
    } else {
        Vec::new()
    };

    let mut state = FleetState::new();
    let mut entries: Vec<ManifestEntry> = Vec::new();
    let mut executed = 0usize;
    let mut interrupted = false;

    for job in jobs {
        // Reuse a terminal entry from the prior run if it still matches.
        if let Some(prev) = prior.iter().find(|e| reusable(&opts.dir, e, job)) {
            // An entry with no attempts was an admission skip; anything
            // else actually ran and must feed the breakers again.
            state.record(supervisor.config(), &job.game, prev.outcome, !prev.attempts.is_empty());
            entries.push(prev.clone());
            write_manifest(&opts.dir, seed, &entries)?;
            continue;
        }
        if opts.stop_after.is_some_and(|n| executed >= n) {
            interrupted = true;
            break;
        }
        let report = supervisor.admit_and_run(job, &mut state);
        executed += 1;
        entries.push(entry_from_report(&opts.dir, &report)?);
        write_manifest(&opts.dir, seed, &entries)?;
    }

    let report = if interrupted {
        String::new()
    } else {
        let mut text = summary_text(&entries);
        for entry in &entries {
            if entry.output.is_some() {
                text.push('\n');
                text.push_str(&format!("---- job {:>3}: {} ({}) ----\n", entry.id, entry.game,
                                       entry.experiment.name()));
                text.push_str(&read_artifact(&opts.dir, entry)?);
            }
        }
        fs::write(opts.dir.join(REPORT_FILE), text.as_bytes())?;
        text
    };

    Ok(CampaignOutcome { entries, interrupted, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_json_round_trips() {
        let entry = ManifestEntry {
            id: 7,
            game: "Doom3/trdemo2".into(),
            experiment: Experiment::Replay,
            start_rung: Rung::Default,
            final_rung: Rung::Quick,
            outcome: Outcome::Degraded,
            attempts: vec!["failed".into(), "ok".into()],
            backoff_ms: vec![12, 0],
            work: 99_000,
            detail: "succeeded on attempt 2 at rung quick".into(),
            output: Some("job-007.out".into()),
            output_crc: 0xDEAD_BEEF,
            checkpoint: Some("job-007.gwck".into()),
            trace: Some("job-007.trace.json".into()),
            config: RunConfig { api_frames: 3, sim_frames: 1, width: 64, height: 48, seed: 5 },
        };
        let parsed = ManifestEntry::from_json(&entry.to_json()).expect("round trip");
        assert_eq!(parsed, entry);
    }

    #[test]
    fn manifest_rejects_bad_seed_and_version() {
        let dir = std::env::temp_dir().join(format!("gwc-harness-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        write_manifest(&dir, 42, &[]).expect("write");
        assert!(load_manifest(&dir, 42).expect("load").is_empty());
        assert!(load_manifest(&dir, 43).is_err(), "seed mismatch must fail");
        fs::write(dir.join(MANIFEST_FILE), "{\"format\": \"gwc-campaign\", \"version\": 99}")
            .expect("write");
        assert!(load_manifest(&dir, 42).is_err(), "future version must fail");
        fs::write(dir.join(MANIFEST_FILE), "not json").expect("write");
        assert!(load_manifest(&dir, 42).is_err(), "garbage must fail");
        let _ = fs::remove_dir_all(&dir);
    }
}
