//! The daemon's unit of admission: a fully-specified characterization
//! job plus its content hash.
//!
//! The hash is computed over the canonical key of everything that
//! determines the job's output — game, experiment, rung, the full
//! [`RunConfig`] (including the workload seed), and whether telemetry
//! artifacts are exported. Two submissions with the same key are the
//! same job: the second is answered from the content-addressed result
//! cache without re-execution, which is both the idempotency story
//! (retrying clients are harmless) and the O(1) repeat-request story.

use std::path::Path;

use gwc_core::RunConfig;
use gwc_harness::json::Json;
use gwc_harness::{run_config_from_json, run_config_to_json, Experiment, Job, Rung};

/// FNV-1a (64-bit) over the canonical key. A keyed cryptographic hash is
/// unnecessary: the key space is tiny (twelve games × three experiments
/// × three rungs × config grid) and collisions would only ever conflate
/// two *submitted* jobs, which the status endpoint would surface
/// immediately.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Computes the content hash for a job key.
pub fn content_hash(
    game: &str,
    experiment: Experiment,
    rung: Rung,
    config: &RunConfig,
    trace: bool,
) -> String {
    let key = format!(
        "game={game};exp={};rung={};{};trace={trace}",
        experiment.name(),
        rung.name(),
        config.cache_key(),
    );
    format!("{:016x}", fnv1a64(key.as_bytes()))
}

/// A fully-resolved submission, as journaled in the `submitted` record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Content hash (16 lowercase hex chars) — the job's identity.
    pub hash: String,
    /// Daemon-assigned id (submission sequence number); stable across
    /// recovery because it is journaled with the spec.
    pub id: u32,
    /// Exact Table I profile name.
    pub game: String,
    /// What to run.
    pub experiment: Experiment,
    /// Degradation-ladder rung the job is admitted at.
    pub rung: Rung,
    /// Base run configuration.
    pub config: RunConfig,
    /// Whether to export telemetry artifacts for the job.
    pub trace: bool,
}

impl JobSpec {
    /// Builds a spec (and its content hash) from submission fields.
    pub fn new(
        game: String,
        experiment: Experiment,
        rung: Rung,
        config: RunConfig,
        trace: bool,
    ) -> JobSpec {
        let hash = content_hash(&game, experiment, rung, &config, trace);
        JobSpec { hash, id: 0, game, experiment, rung, config, trace }
    }

    /// The artifact file name for this job (content-addressed, relative
    /// to the data directory).
    pub fn artifact_name(&self) -> String {
        format!("art-{}.out", self.hash)
    }

    /// The stem for content-addressed side artifacts (GWCK checkpoint,
    /// telemetry traces) inside `dir`.
    pub fn artifact_stem(&self, dir: &Path) -> String {
        dir.join(format!("art-{}", self.hash)).to_string_lossy().into_owned()
    }

    /// Converts to the supervisor's [`Job`], wiring content-addressed
    /// checkpoint and trace paths under `dir`.
    pub fn to_job(&self, dir: &Path) -> Job {
        let stem = self.artifact_stem(dir);
        Job {
            id: self.id,
            game: self.game.clone(),
            experiment: self.experiment,
            config: self.config,
            start_rung: self.rung,
            checkpoint: matches!(self.experiment, Experiment::Replay)
                .then(|| format!("{stem}.gwck")),
            trace: self.trace.then(|| stem.clone()),
        }
    }

    /// Serializes for the `submitted` journal record.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hash".into(), Json::Str(self.hash.clone())),
            ("id".into(), Json::Num(u64::from(self.id))),
            ("game".into(), Json::Str(self.game.clone())),
            ("experiment".into(), Json::Str(self.experiment.name().into())),
            ("rung".into(), Json::Str(self.rung.name().into())),
            ("config".into(), run_config_to_json(&self.config)),
            ("trace".into(), Json::Bool(self.trace)),
        ])
    }

    /// Parses a journaled spec; `None` for structural mismatches.
    pub fn from_json(v: &Json) -> Option<JobSpec> {
        Some(JobSpec {
            hash: v.get("hash")?.as_str()?.to_owned(),
            id: u32::try_from(v.get("id")?.as_u64()?).ok()?,
            game: v.get("game")?.as_str()?.to_owned(),
            experiment: Experiment::from_name(v.get("experiment")?.as_str()?)?,
            rung: Rung::from_name(v.get("rung")?.as_str()?)?,
            config: run_config_from_json(v.get("config")?)?,
            trace: match v.get("trace")? {
                Json::Bool(b) => *b,
                _ => return None,
            },
        })
    }
}

/// Parses a `POST /jobs` submission body into a spec.
///
/// ```json
/// {"game": "Doom3/trdemo2", "experiment": "characterize",
///  "rung": "quick", "config": {"seed": 7}, "trace": false}
/// ```
///
/// `game` is required and must name a Table I profile. Everything else
/// is optional: `experiment` defaults to `characterize`, `rung` to
/// `default`, `trace` to `false`, and `config` fields override a base of
/// [`RunConfig::quick`] for the quick rung and [`RunConfig::paper`]
/// otherwise. Errors are client errors (a 400), phrased for the response
/// body.
pub fn parse_submission(body: &str) -> Result<JobSpec, String> {
    let doc = gwc_harness::json::parse(body)
        .map_err(|e| format!("bad JSON: {} at byte {}", e.message, e.offset))?;
    let game = doc
        .get("game")
        .and_then(Json::as_str)
        .ok_or("missing required string field \"game\"")?
        .to_owned();
    if gwc_workloads::GameProfile::by_name(&game).is_none() {
        return Err(format!("unknown game {game:?} (want a Table I profile name)"));
    }
    let experiment = match doc.get("experiment").map(Json::as_str) {
        None => Experiment::Characterize,
        Some(name) => name
            .and_then(Experiment::from_name)
            .ok_or("\"experiment\" must be characterize|replay|ablations")?,
    };
    let rung = match doc.get("rung").map(Json::as_str) {
        None => Rung::Default,
        Some(name) => name.and_then(Rung::from_name).ok_or("\"rung\" must be paper|default|quick")?,
    };
    let mut config = match rung {
        Rung::Quick => RunConfig::quick(),
        _ => RunConfig::paper(),
    };
    if let Some(overrides) = doc.get("config") {
        let field = |key: &str| -> Result<Option<u64>, String> {
            match overrides.get(key) {
                None => Ok(None),
                Some(v) => {
                    v.as_u64().map(Some).ok_or(format!("config field {key:?} must be a number"))
                }
            }
        };
        let u32_field = |key: &str, slot: &mut u32| -> Result<(), String> {
            if let Some(v) = field(key)? {
                *slot = u32::try_from(v).map_err(|_| format!("config field {key:?} too large"))?;
            }
            Ok(())
        };
        u32_field("api_frames", &mut config.api_frames)?;
        u32_field("sim_frames", &mut config.sim_frames)?;
        u32_field("width", &mut config.width)?;
        u32_field("height", &mut config.height)?;
        if let Some(seed) = field("seed")? {
            config.seed = seed;
        }
    }
    let trace = match doc.get("trace") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("\"trace\" must be a boolean".into()),
    };
    Ok(JobSpec::new(game, experiment, rung, config, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_defaults_and_overrides_parse() {
        let spec = parse_submission(r#"{"game": "Doom3/trdemo2"}"#).expect("minimal");
        assert_eq!(spec.experiment, Experiment::Characterize);
        assert_eq!(spec.rung, Rung::Default);
        assert_eq!(spec.config, RunConfig::paper());
        assert!(!spec.trace);
        let spec = parse_submission(
            r#"{"game": "UT2004/Primeval", "experiment": "replay", "rung": "quick",
                "config": {"seed": 7, "sim_frames": 2}, "trace": true}"#,
        )
        .expect("full");
        assert_eq!(spec.rung, Rung::Quick);
        assert_eq!(spec.config.seed, 7);
        assert_eq!(spec.config.sim_frames, 2);
        assert_eq!(spec.config.width, RunConfig::quick().width, "quick rung base");
        assert!(spec.trace);
    }

    #[test]
    fn submission_rejections_are_client_errors() {
        for (body, needle) in [
            ("not json", "bad JSON"),
            (r#"{"experiment": "replay"}"#, "\"game\""),
            (r#"{"game": "NoSuch/demo"}"#, "unknown game"),
            (r#"{"game": "Doom3/trdemo2", "rung": "turbo"}"#, "rung"),
            (r#"{"game": "Doom3/trdemo2", "config": {"seed": "x"}}"#, "seed"),
            (r#"{"game": "Doom3/trdemo2", "trace": 1}"#, "boolean"),
        ] {
            let err = parse_submission(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err} should mention {needle}");
        }
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let config = RunConfig::quick();
        let a = content_hash("Doom3/trdemo2", Experiment::Characterize, Rung::Quick, &config, false);
        let b = content_hash("Doom3/trdemo2", Experiment::Characterize, Rung::Quick, &config, false);
        assert_eq!(a, b, "same key, same hash");
        assert_eq!(a.len(), 16);
        // Every dimension of the key must perturb the hash.
        let mut seen = vec![a.clone()];
        for other in [
            content_hash("Quake4/demo4", Experiment::Characterize, Rung::Quick, &config, false),
            content_hash("Doom3/trdemo2", Experiment::Replay, Rung::Quick, &config, false),
            content_hash("Doom3/trdemo2", Experiment::Characterize, Rung::Default, &config, false),
            content_hash("Doom3/trdemo2", Experiment::Characterize, Rung::Quick, &config, true),
            content_hash(
                "Doom3/trdemo2",
                Experiment::Characterize,
                Rung::Quick,
                &RunConfig { seed: 999, ..config },
                false,
            ),
        ] {
            assert!(!seen.contains(&other), "key dimension failed to perturb the hash");
            seen.push(other);
        }
    }

    #[test]
    fn spec_round_trips_through_journal_json() {
        let mut spec = JobSpec::new(
            "Quake4/demo4".into(),
            Experiment::Replay,
            Rung::Default,
            RunConfig { api_frames: 7, sim_frames: 2, width: 96, height: 72, seed: 42 },
            true,
        );
        spec.id = 9;
        let parsed = JobSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn replay_jobs_get_content_addressed_checkpoints() {
        let spec = JobSpec::new(
            "Doom3/trdemo2".into(),
            Experiment::Replay,
            Rung::Quick,
            RunConfig::quick(),
            true,
        );
        let job = spec.to_job(Path::new("data"));
        let checkpoint = job.checkpoint.expect("replay jobs checkpoint");
        assert!(checkpoint.contains(&spec.hash), "checkpoint is content-addressed");
        assert!(checkpoint.ends_with(".gwck"));
        assert_eq!(job.trace.as_deref(), Some(spec.artifact_stem(Path::new("data")).as_str()));
    }
}
