//! Shared helpers for the benchmark harness and the `repro` binary:
//! simulation entry points (plain and cancellable), per-experiment report
//! builders, and the [`ReproRunner`] that executes supervised campaign
//! jobs (see `gwc_harness`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;

use std::fmt::Write as _;
use std::sync::Mutex;

use gwc_api::CommandSink;
use gwc_core::{characterize_traced, GameCharacterization, RunConfig, Study};
use gwc_harness::{Experiment, Job, JobError, JobProduct, JobRunner, Rung};
use gwc_pipeline::{CancelCause, CancelToken, Gpu, GpuConfig};
use gwc_stats::Table;
use gwc_telemetry::{Collector, Level};
use gwc_workloads::{GameProfile, Timedemo, TimedemoConfig};

/// Simulates `frames` frames of a named timedemo at the given resolution
/// with an optionally customized GPU configuration.
///
/// # Panics
///
/// Panics if `name` is not a Table I timedemo.
pub fn simulate_with(
    name: &str,
    frames: u32,
    width: u32,
    height: u32,
    tweak: impl FnOnce(&mut GpuConfig),
) -> Gpu {
    simulate_cancellable(name, frames, width, height, None, tweak)
        .expect("uncancellable simulation cannot be cancelled")
}

/// [`simulate_with`], under supervision: the optional token is handed to
/// the GPU, which charges work ticks and bails out cooperatively when it
/// trips. Returns `None` when the run was cancelled — partial statistics
/// are never surfaced.
///
/// # Panics
///
/// Panics if `name` is not a Table I timedemo.
pub fn simulate_cancellable(
    name: &str,
    frames: u32,
    width: u32,
    height: u32,
    cancel: Option<&CancelToken>,
    tweak: impl FnOnce(&mut GpuConfig),
) -> Option<Gpu> {
    let profile = GameProfile::by_name(name).unwrap_or_else(|| panic!("unknown demo {name}"));
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames, seed: 0x5EED });
    let mut config = GpuConfig::r520(width, height);
    tweak(&mut config);
    let mut gpu = Gpu::new(config);
    if let Some(token) = cancel {
        gpu.set_cancel_token(token.clone());
    }
    demo.emit_all(&mut gpu);
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return None;
    }
    Some(gpu)
}

/// Simulates with the default R520 configuration.
pub fn simulate(name: &str, frames: u32, width: u32, height: u32) -> Gpu {
    simulate_with(name, frames, width, height, |_| {})
}

/// [`simulate_with`] with a telemetry collector attached at `level`.
/// Returns the GPU and the collector (which is `None` when `level` is
/// [`Level::Off`] — nothing was observed, nothing to export).
///
/// # Panics
///
/// Panics if `name` is not a Table I timedemo.
pub fn simulate_traced(
    name: &str,
    frames: u32,
    width: u32,
    height: u32,
    level: Level,
    tweak: impl FnOnce(&mut GpuConfig),
) -> (Gpu, Option<Collector>) {
    let profile = GameProfile::by_name(name).unwrap_or_else(|| panic!("unknown demo {name}"));
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames, seed: 0x5EED });
    let mut config = GpuConfig::r520(width, height);
    tweak(&mut config);
    let mut gpu = Gpu::new(config);
    if level != Level::Off {
        gpu.enable_telemetry(level, name, gwc_telemetry::DEFAULT_SPAN_CAPACITY);
    }
    demo.emit_all(&mut gpu);
    let collector = gpu.take_telemetry();
    (gpu, collector)
}

/// Runs a procedural scenario with a telemetry collector attached at
/// `level`, mirroring [`simulate_traced`] for `scn:` workloads. The
/// trace's embedded game name is the scenario's canonical name, so the
/// analytics layer groups scenario runs exactly like game runs. Returns
/// the GPU and the collector (`None` at [`Level::Off`]).
pub fn simulate_scenario_traced(
    spec: gwc_scenarios::ScenarioSpec,
    frames: u32,
    width: u32,
    height: u32,
    seed: u64,
    level: Level,
) -> (Gpu, Option<Collector>) {
    let name = spec.name();
    let mut demo =
        gwc_scenarios::ScenarioDemo::new(spec, gwc_scenarios::ScenarioConfig { frames, seed });
    let mut gpu = Gpu::new(GpuConfig::r520(width, height));
    if level != Level::Off {
        gpu.enable_telemetry(level, &name, gwc_telemetry::DEFAULT_SPAN_CAPACITY);
    }
    demo.emit_all(&mut gpu);
    let collector = gpu.take_telemetry();
    (gpu, collector)
}

/// The `scn:` name grammar, for error messages next to the game list.
pub fn scenario_grammar() -> String {
    use gwc_scenarios::{ApiStyle, Archetype, RenderStyle};
    let join = |names: Vec<&str>| names.join(", ");
    format!(
        "a procedural scenario 'scn:<archetype>+<style>+<api>' with\n  archetype: {}\n  style: {}\n  api: {}",
        join(Archetype::ALL.iter().map(|a| a.name()).collect()),
        join(RenderStyle::ALL.iter().map(|s| s.name()).collect()),
        join(ApiStyle::ALL.iter().map(|s| s.name()).collect()),
    )
}

/// Resolves a `--game` argument to a workload name: a `scn:` scenario
/// (canonicalized through [`gwc_scenarios::ScenarioSpec::parse`]) or a
/// Table I timedemo via [`resolve_game`]. Unknown names list both the
/// valid games and the scenario grammar.
pub fn resolve_workload(input: &str) -> Result<String, String> {
    match gwc_scenarios::ScenarioSpec::parse(input) {
        Some(Ok(spec)) => Ok(spec.name()),
        Some(Err(e)) => Err(format!("{e}\nvalid names form {}", scenario_grammar())),
        None => match resolve_game(input) {
            Ok(name) => Ok(name.to_owned()),
            Err(e) => Err(format!("{e}\nor {}", scenario_grammar())),
        },
    }
}

/// File paths of one exported trace set (all derived from one stem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArtifacts {
    /// Perfetto/Chrome `trace_event` JSON (`<stem>.trace.json`).
    pub chrome: String,
    /// Per-frame time-series CSV (`<stem>.frames.csv`).
    pub csv: String,
    /// Compact GWTB binary with CRC trailer (`<stem>.trace.bin`).
    pub binary: String,
}

/// Exports a collector's three trace artifacts next to `stem`, all
/// rendered from one [`Collector::trace`] snapshot: `<stem>.trace.json`,
/// `<stem>.frames.csv`, and `<stem>.trace.bin`.
pub fn export_trace(collector: &Collector, stem: &str) -> std::io::Result<TraceArtifacts> {
    let artifacts = TraceArtifacts {
        chrome: format!("{stem}.trace.json"),
        csv: format!("{stem}.frames.csv"),
        binary: format!("{stem}.trace.bin"),
    };
    let trace = collector.trace();
    std::fs::write(&artifacts.chrome, gwc_telemetry::export::chrome_json(&trace))?;
    std::fs::write(&artifacts.csv, gwc_telemetry::export::frames_csv(&trace))?;
    std::fs::write(&artifacts.binary, trace.to_binary())?;
    Ok(artifacts)
}

/// Resolves a `--game` argument to a Table I profile name. An exact name
/// wins; otherwise a case-insensitive substring is accepted when it
/// matches one profile, or — since several demos of one game share the
/// title — exactly one *simulated* profile (`doom3` → `Doom3/trdemo2`).
pub fn resolve_game(input: &str) -> Result<&'static str, String> {
    if let Some(p) = GameProfile::by_name(input) {
        return Ok(p.name);
    }
    let needle = input.to_ascii_lowercase();
    let matches: Vec<&'static GameProfile> = GameProfile::all()
        .iter()
        .filter(|p| p.name.to_ascii_lowercase().contains(&needle))
        .collect();
    let simulated: Vec<&'static GameProfile> =
        matches.iter().copied().filter(|p| p.simulated).collect();
    match (matches.as_slice(), simulated.as_slice()) {
        ([one], _) | (_, [one]) => Ok(one.name),
        ([], _) => Err(format!(
            "unknown game '{input}'; valid Table I timedemos:\n{}",
            game_name_list()
        )),
        (many, _) => Err(format!(
            "ambiguous game '{input}' (matches {}); valid Table I timedemos:\n{}",
            many.iter().map(|p| p.name).collect::<Vec<_>>().join(", "),
            game_name_list()
        )),
    }
}

/// Emits a timedemo into an arbitrary sink (API-level runs).
pub fn emit_demo<S: CommandSink>(name: &str, frames: u32, sink: &mut S) {
    let profile = GameProfile::by_name(name).unwrap_or_else(|| panic!("unknown demo {name}"));
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames, seed: 0x5EED });
    demo.emit_all(sink);
}

/// Records a named timedemo into a replayable [`gwc_api::Trace`].
///
/// # Panics
///
/// Panics if `name` is not a Table I timedemo.
pub fn record_trace(name: &str, frames: u32) -> gwc_api::Trace {
    struct Rec(gwc_api::Device);
    impl CommandSink for Rec {
        fn consume(&mut self, c: &gwc_api::Command) {
            self.0.submit(c.clone()).unwrap_or_else(|e| panic!("generator emitted invalid stream: {e}"));
        }
    }
    let mut rec = Rec(gwc_api::Device::new());
    emit_demo(name, frames, &mut rec);
    rec.0.into_trace()
}

/// The valid `--game` values, one per line, for error messages.
pub fn game_name_list() -> String {
    GameProfile::all()
        .iter()
        .map(|p| format!("  {}", p.name))
        .collect::<Vec<_>>()
        .join("\n")
}

fn cancelled_err(token: &CancelToken) -> JobError {
    JobError::Cancelled(token.cause().unwrap_or(CancelCause::Deadline))
}

/// Renders the deterministic per-game characterization digest that a
/// campaign persists as the job's artifact. (Full cross-game tables need
/// the whole study; the digest is self-contained so resumed campaigns
/// reassemble bit-identical reports from artifacts alone.)
pub fn characterize_report(c: &GameCharacterization, config: &RunConfig) -> String {
    let mut out = String::new();
    let t = c.api.totals();
    let _ = writeln!(
        out,
        "characterize {}: {} API frames, {} sim frames at {}x{}, seed {:#x}",
        c.profile.name, config.api_frames, config.sim_frames, config.width, config.height,
        config.seed
    );
    let _ = writeln!(
        out,
        "api: frames={} batches={} indices={} primitives={} state_calls={} indices/batch={:.2}",
        c.api.frames(),
        t.batches,
        t.indices,
        t.primitives,
        t.state_calls,
        c.api.avg_indices_per_batch()
    );
    match &c.sim {
        Some(sim) => {
            let s = sim.stats.totals();
            let _ = writeln!(
                out,
                "sim: indices={} shaded_vertices={} frags_raster={} mem_bytes={}",
                s.indices,
                s.shaded_vertices,
                s.frags_raster,
                sim.total_traffic().total()
            );
        }
        None => {
            let _ = writeln!(out, "sim: not simulated (outside the paper's ATTILA subset)");
        }
    }
    out
}

/// Replays one simulated timedemo under supervision, writes a final
/// GWCK checkpoint (when `checkpoint` names a path) and verifies it
/// restores, exports span-level telemetry (when `trace` names a stem),
/// and returns the deterministic replay digest.
pub fn replay_job(
    game: &str,
    config: &RunConfig,
    checkpoint: Option<&str>,
    trace_stem: Option<&str>,
    token: &CancelToken,
) -> Result<JobProduct, JobError> {
    let frames = config.sim_frames.max(1);
    let trace = record_trace(game, frames);
    let gpu_config = GpuConfig::r520(config.width, config.height);
    let mut gpu = Gpu::new(gpu_config);
    gpu.set_cancel_token(token.clone());
    if trace_stem.is_some() {
        gpu.enable_telemetry(Level::Spans, game, gwc_telemetry::DEFAULT_SPAN_CAPACITY);
    }
    for c in trace.commands() {
        gpu.consume(c);
        if token.is_cancelled() {
            return Err(cancelled_err(token));
        }
    }
    let t = gpu.stats().totals();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replay {game}: {frames} frames at {}x{}, seed {:#x}",
        config.width, config.height, config.seed
    );
    let _ = writeln!(
        out,
        "sim: frames={} indices={} frags_raster={} faults={} fb_crc={:#010x}",
        gpu.stats().frames().len(),
        t.indices,
        t.frags_raster,
        gpu.stats().total_faults(),
        gpu.framebuffer_crc()
    );
    let saved = match checkpoint {
        Some(path) => {
            let blob = gpu.save_checkpoint();
            // A checkpoint nobody can restore is worse than none: verify
            // the round trip before advertising the pointer.
            Gpu::restore_checkpoint(gpu_config, &blob)
                .map_err(|e| JobError::Failed(format!("checkpoint verify failed: {e}")))?;
            gwc_failpoints::write_file("gwck.write", std::path::Path::new(path), &blob)
                .map_err(|e| JobError::Failed(format!("cannot write checkpoint {path}: {e}")))?;
            let _ = writeln!(out, "checkpoint: {} bytes, restore verified", blob.len());
            Some(path.to_owned())
        }
        None => None,
    };
    let traced = match trace_stem {
        Some(stem) => {
            let collector = gpu
                .take_telemetry()
                .ok_or_else(|| JobError::Failed("telemetry collector vanished".into()))?;
            let artifacts = export_trace(&collector, stem)
                .map_err(|e| JobError::Failed(format!("cannot write trace {stem}: {e}")))?;
            let _ = writeln!(
                out,
                "trace: {} spans over {} frames -> {}",
                collector.spans_recorded(),
                collector.frames().len(),
                artifacts.chrome
            );
            Some(artifacts.chrome)
        }
        None => None,
    };
    Ok(JobProduct { text: out, checkpoint: saved, trace: traced })
}

/// Renders the design-choice ablation report (HZ, compression, vertex
/// cache size, filtering level). Returns `None` if the token trips
/// mid-sweep.
pub fn ablations_report(config: &RunConfig, cancel: Option<&CancelToken>) -> Option<String> {
    let (w, h, frames) = (config.width, config.height, config.sim_frames.max(2));
    let mut out = String::new();
    let _ = writeln!(out, "== Ablations (Doom3/trdemo2, {frames} frames at {w}x{h}) ==\n");

    // 1. Hierarchical Z on/off: fragments reaching the z&stencil stage.
    let stats = |gpu: &Gpu| {
        let t = *gpu.stats().totals();
        let mem = gpu.memory().total();
        (t, mem)
    };
    let (base_t, base_m) =
        stats(&simulate_cancellable("Doom3/trdemo2", frames, w, h, cancel, |_| {})?);
    let (nohz_t, nohz_m) = stats(&simulate_cancellable("Doom3/trdemo2", frames, w, h, cancel, |c| {
        c.hierarchical_z = false;
    })?);
    let mut t = Table::new("HZ ablation", &["configuration", "frags @ z&stencil", "z&stencil MB", "total MB"]);
    t.numeric();
    let mb = |b: u64| format!("{:.1}", b as f64 / (1024.0 * 1024.0));
    t.row(vec![
        "HZ enabled".into(),
        base_t.frags_zst.to_string(),
        mb(base_m.client(gwc_mem::MemClient::ZStencil).total()),
        mb(base_m.total()),
    ]);
    t.row(vec![
        "HZ disabled".into(),
        nohz_t.frags_zst.to_string(),
        mb(nohz_m.client(gwc_mem::MemClient::ZStencil).total()),
        mb(nohz_m.total()),
    ]);
    let _ = writeln!(out, "{}", t.to_ascii());

    // 2. Z/color compression on/off.
    let (_nocomp_t, nocomp_m) =
        stats(&simulate_cancellable("Doom3/trdemo2", frames, w, h, cancel, |c| {
            c.z_compression = false;
            c.color_compression = false;
        })?);
    let mut t = Table::new("Framebuffer compression ablation", &["configuration", "z&stencil MB", "color MB", "total MB"]);
    t.numeric();
    t.row(vec![
        "fast clear + compression".into(),
        mb(base_m.client(gwc_mem::MemClient::ZStencil).total()),
        mb(base_m.client(gwc_mem::MemClient::Color).total()),
        mb(base_m.total()),
    ]);
    t.row(vec![
        "uncompressed".into(),
        mb(nocomp_m.client(gwc_mem::MemClient::ZStencil).total()),
        mb(nocomp_m.client(gwc_mem::MemClient::Color).total()),
        mb(nocomp_m.total()),
    ]);
    let _ = writeln!(out, "{}", t.to_ascii());

    // 3. Post-transform vertex cache size sweep (Section III.B / Fig 5).
    let mut t = Table::new("Vertex cache size sweep", &["entries", "hit rate", "vertices shaded"]);
    t.numeric();
    for entries in [4usize, 8, 16, 32, 64] {
        let gpu = simulate_cancellable("Doom3/trdemo2", frames, w, h, cancel, |c| {
            c.vertex_cache_entries = entries;
        })?;
        let s = gpu.stats().totals();
        t.row(vec![
            entries.to_string(),
            format!("{:.1}%", 100.0 * s.vertex_cache_hit_rate()),
            s.shaded_vertices.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.to_ascii());

    // 4. Filtering level sweep: dynamic cost per texture request
    // (Table XIII's key trade-off), measured on a glancing footprint mix.
    use gwc_math::{Vec2, Vec4};
    use gwc_texture::{FilterMode, Image, NoopTracker, SampleStats, SamplerState, TexFormat,
                      Texture, WrapMode};
    let mut vram = gwc_mem::AddressSpace::new();
    let texture = Texture::from_image(&Image::noise(512, 512, 7), TexFormat::Dxt1, true, &mut vram);
    let mut t = Table::new(
        "Texture filtering sweep (glancing + oblique footprints)",
        &["filter", "bilinears/request"],
    );
    t.numeric();
    let filters = [
        ("bilinear", FilterMode::Bilinear),
        ("trilinear", FilterMode::Trilinear),
        ("aniso 2x", FilterMode::Anisotropic(2)),
        ("aniso 4x", FilterMode::Anisotropic(4)),
        ("aniso 8x", FilterMode::Anisotropic(8)),
        ("aniso 16x", FilterMode::Anisotropic(16)),
    ];
    for (name, filter) in filters {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        let sampler = SamplerState { wrap: WrapMode::Repeat, filter, lod_bias: 0.0 };
        let mut stats = SampleStats::default();
        for i in 0..256 {
            // A mix of isotropic and up-to-24:1 anisotropic footprints.
            let ratio = 1.0 + (i % 16) as f32 * 1.5;
            let base = Vec2::new(0.003 * i as f32, 0.002 * i as f32);
            let du = ratio * 2.0 / 512.0;
            let dv = 2.0 / 512.0;
            let coords = [
                Vec4::new(base.x, base.y, 0.0, 1.0),
                Vec4::new(base.x + du, base.y, 0.0, 1.0),
                Vec4::new(base.x, base.y + dv, 0.0, 1.0),
                Vec4::new(base.x + du, base.y + dv, 0.0, 1.0),
            ];
            sampler.sample_quad(&texture, &coords, false, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        }
        t.row(vec![name.into(), format!("{:.2}", stats.bilinears_per_request())]);
    }
    let _ = writeln!(out, "{}", t.to_ascii());
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return None;
    }
    Some(out)
}

/// Executes supervised campaign jobs against the real simulator.
///
/// Successful characterizations are also collected in memory so
/// `repro all` can assemble cross-game tables from the surviving games
/// after supervision finishes.
#[derive(Default)]
pub struct ReproRunner {
    collected: Mutex<Vec<(u32, GameCharacterization)>>,
}

impl ReproRunner {
    /// A fresh runner with an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the collected characterizations into a [`Study`] (games in
    /// job-id order, i.e. Table I order; failed games are absent).
    pub fn into_study(&self, config: RunConfig) -> Study {
        let mut collected = match self.collected.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut games: Vec<(u32, GameCharacterization)> = collected.drain(..).collect();
        games.sort_by_key(|(id, _)| *id);
        games.dedup_by_key(|(id, _)| *id);
        Study { games: games.into_iter().map(|(_, c)| c).collect(), config }
    }
}

impl JobRunner for ReproRunner {
    fn run(
        &self,
        job: &Job,
        rung: Rung,
        _attempt: u32,
        token: &CancelToken,
    ) -> Result<JobProduct, JobError> {
        let config = rung.apply(&job.config);
        match job.experiment {
            Experiment::Characterize => {
                let profile = GameProfile::by_name(&job.game)
                    .ok_or_else(|| JobError::Failed(format!("unknown game '{}'", job.game)))?;
                let level = if job.trace.is_some() { Level::Spans } else { Level::Off };
                let (c, collector) = characterize_traced(profile, &config, Some(token), level)
                    .ok_or_else(|| cancelled_err(token))?;
                let mut text = characterize_report(&c, &config);
                let traced = match (&job.trace, collector) {
                    (Some(stem), Some(collector)) => {
                        let artifacts = export_trace(&collector, stem).map_err(|e| {
                            JobError::Failed(format!("cannot write trace {stem}: {e}"))
                        })?;
                        let _ = writeln!(
                            text,
                            "trace: {} spans over {} frames -> {}",
                            collector.spans_recorded(),
                            collector.frames().len(),
                            artifacts.chrome
                        );
                        Some(artifacts.chrome)
                    }
                    // The game has no simulated pass: nothing to trace.
                    _ => None,
                };
                match self.collected.lock() {
                    Ok(mut guard) => guard.push((job.id, c)),
                    Err(poisoned) => poisoned.into_inner().push((job.id, c)),
                }
                Ok(JobProduct { text, checkpoint: None, trace: traced })
            }
            Experiment::Replay => {
                replay_job(&job.game, &config, job.checkpoint.as_deref(), job.trace.as_deref(), token)
            }
            Experiment::Ablations => ablations_report(&config, Some(token))
                .map(|text| JobProduct { text, checkpoint: None, trace: None })
                .ok_or_else(|| cancelled_err(token)),
            Experiment::Scenario => scenario_job(&job.game, &config, token),
        }
    }
}

/// Runs one sweep job: a `scn:` scenario cell, or a Table I reference
/// game simulated through the same pipeline so the sweep can rank cells
/// by feature-space distance from the paper games. The artifact carries
/// the feature-vector CSV row plus one verdict line per declared
/// characteristic; any violated characteristic fails the job.
fn scenario_job(game: &str, config: &RunConfig, token: &CancelToken) -> Result<JobProduct, JobError> {
    use gwc_scenarios::{run_scenario_supervised, ScenarioConfig, ScenarioSpec};
    let frames = config.sim_frames.max(1);
    let mut text = format!(
        "scenario: {game} seed={} frames={frames} {}x{}\n",
        config.seed, config.width, config.height
    );
    match ScenarioSpec::parse(game) {
        Some(Ok(spec)) => {
            let scn = ScenarioConfig { frames, seed: config.seed };
            let run = run_scenario_supervised(spec, scn, config.width, config.height, Some(token))
                .ok_or_else(|| cancelled_err(token))?;
            let _ = writeln!(text, "features: {}", run.vector.to_csv_row());
            let mut failures = Vec::new();
            for (e, r) in &run.verdicts {
                match r {
                    Ok(v) => {
                        let _ = writeln!(text, "expect: {} ok measured={v:.4}", e.describe());
                    }
                    Err(m) => {
                        let _ = writeln!(text, "expect: {} FAIL {m}", e.describe());
                        failures.push(m.clone());
                    }
                }
            }
            let _ = writeln!(text, "fb_crc: {:#010x}", run.fb_crc);
            if !failures.is_empty() {
                return Err(JobError::Failed(format!(
                    "declared characteristics violated: {}",
                    failures.join("; ")
                )));
            }
        }
        Some(Err(e)) => return Err(JobError::Failed(e)),
        None => {
            // Reference game: one emission pass through ApiStats + Gpu.
            // The characterize gate (`profile.simulated`) is deliberately
            // bypassed — distance ranking needs microarchitectural
            // vectors for all twelve games.
            let profile = GameProfile::by_name(game)
                .ok_or_else(|| JobError::Failed(format!("unknown game '{game}'")))?;
            let mut demo =
                Timedemo::new(profile, TimedemoConfig { frames, seed: config.seed });
            let mut api = gwc_api::ApiStats::new();
            let mut gpu = Gpu::new(GpuConfig::r520(config.width, config.height));
            gpu.set_cancel_token(token.clone());
            demo.emit_all(&mut gwc_api::Tee { a: &mut api, b: &mut gpu });
            if token.is_cancelled() {
                return Err(cancelled_err(token));
            }
            let vector = gwc_scenarios::reduce(game, &api, &gpu, config.width, config.height);
            let _ = writeln!(text, "features: {}", vector.to_csv_row());
            let _ = writeln!(text, "fb_crc: {:#010x}", gpu.framebuffer_crc());
        }
    }
    Ok(JobProduct { text, checkpoint: None, trace: None })
}

/// The trace stem a traced campaign/study job uses (artifact file names
/// derive from it: `job-007.trace.json`, `job-007.frames.csv`, ...).
fn job_trace_stem(dir: &std::path::Path, id: u32) -> String {
    dir.join(format!("job-{id:03}")).to_string_lossy().into_owned()
}

/// Builds the full campaign job list: one characterize job per Table I
/// game, a checkpointed replay per simulated demo, and the ablation
/// sweep. Job ids are stable (manifest compatibility depends on it).
/// With `trace`, the characterize and replay jobs also export telemetry
/// artifacts into the campaign directory.
pub fn campaign_jobs(base: RunConfig, start_rung: Rung, dir: &std::path::Path, trace: bool) -> Vec<Job> {
    let mut jobs = Vec::new();
    for p in GameProfile::all() {
        let id = jobs.len() as u32;
        jobs.push(Job {
            id,
            game: p.name.to_owned(),
            experiment: Experiment::Characterize,
            config: base,
            start_rung,
            checkpoint: None,
            trace: trace.then(|| job_trace_stem(dir, id)),
        });
    }
    for p in GameProfile::all().iter().filter(|p| p.simulated) {
        let id = jobs.len() as u32;
        jobs.push(Job {
            id,
            game: p.name.to_owned(),
            experiment: Experiment::Replay,
            config: base,
            start_rung,
            checkpoint: Some(dir.join(format!("job-{id:03}.gwck")).to_string_lossy().into_owned()),
            trace: trace.then(|| job_trace_stem(dir, id)),
        });
    }
    jobs.push(Job {
        id: jobs.len() as u32,
        game: "Doom3/trdemo2".to_owned(),
        experiment: Experiment::Ablations,
        config: base,
        start_rung,
        checkpoint: None,
        trace: None,
    });
    jobs
}

/// One characterize job per Table I game — the supervised form of
/// [`gwc_core::run_study`], used by `repro all` and table/figure
/// experiments. With `trace_dir`, each simulated game's job also exports
/// telemetry artifacts into that directory.
pub fn study_jobs(base: RunConfig, start_rung: Rung, trace_dir: Option<&std::path::Path>) -> Vec<Job> {
    GameProfile::all()
        .iter()
        .enumerate()
        .map(|(i, p)| Job {
            id: i as u32,
            game: p.name.to_owned(),
            experiment: Experiment::Characterize,
            config: base,
            start_rung,
            checkpoint: None,
            trace: trace_dir.map(|dir| job_trace_stem(dir, i as u32)),
        })
        .collect()
}
