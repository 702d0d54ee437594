//! The two simulated-replay workloads: `shadow-replay` (Doom3/trdemo2,
//! recorded through `gwc_api::Device`, ending in a GWCK checkpoint) and
//! `crowd-trace-mt` (`scn:crowd+prepass+tiny` with span telemetry,
//! exported and validated).
//!
//! One repetition generates the seeded stream, builds the GPU and uploads
//! the assets (set-up, up to the first `Clear`), then replays the frames
//! and finishes with the checkpoint or the trace export (the timed
//! region). Each repetition replays its own world; the last replays the
//! first again and must reproduce its digest.

use std::path::Path;
use std::time::{Duration, Instant};

use gwc_api::{Command, CommandSink, Device, StateCommand, Trace};
use gwc_mem::MemClient;
use gwc_pipeline::{FrameSimStats, Gpu, GpuConfig};
use gwc_scenarios::{ScenarioConfig, ScenarioDemo, ScenarioSpec};
use gwc_telemetry::Level;
use gwc_workloads::{GameProfile, Timedemo, TimedemoConfig};

use crate::digest::Digest;
use crate::host::Usage;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::{Args, Measured, Outcome};

/// Render target of both workloads.
pub const WIDTH: u32 = 640;
/// Render target of both workloads.
pub const HEIGHT: u32 = 480;

const SHADOW_GAME: &str = "Doom3/trdemo2";
const CROWD_SCENARIO: &str = "scn:crowd+prepass+tiny";

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Doom3 stencil shadows, big shaded draws, GWCK at the end.
    Shadow,
    /// Crowd prepass, hundreds of tiny draws, span telemetry exported.
    Crowd,
}

impl Kind {
    /// Frames replayed per repetition: one Doom3 frame at 640×480 costs
    /// seconds; crowd frames are cheap, so each world gets several.
    pub fn frames(self) -> u32 {
        match self {
            Kind::Shadow => 1,
            Kind::Crowd => 3,
        }
    }

    /// Repetitions that fill about `seconds` on the reference host (see
    /// README.md); a fixed count keeps sample counts, and so the tail
    /// percentile reported, the same from run to run.
    pub fn reps(self, seconds: u32) -> u32 {
        let rep_seconds = match self {
            Kind::Shadow => 3.4,
            Kind::Crowd => 0.75,
        };
        ((f64::from(seconds) / rep_seconds).round() as u32).max(2)
    }
}

/// The stream seed of repetition `rep` out of `reps`. Each repetition
/// replays a different world derived from `seed`, so a run's medians
/// average over content as well as over time; the last one replays
/// the first world again, which must reproduce its digest exactly.
pub fn rep_seed(seed: u64, rep: u32, reps: u32) -> u64 {
    if rep + 1 == reps {
        seed
    } else {
        crate::derived_seed(seed, rep)
    }
}

/// One repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Stream generation through asset upload.
    pub setup: Duration,
    /// The timed region: replay plus checkpoint or export.
    pub timed: Duration,
    /// Work ticks inside the timed region.
    pub ticks: u64,
    /// Wall time of each replayed frame, in ms.
    pub frame_ms: Vec<f64>,
    /// Reading the stored result back (GWCK restore or GWTB decode), ms.
    pub hit_ms: f64,
    /// CPU time and context switches over the timed region.
    pub usage: Usage,
    /// Draw calls replayed.
    pub draws: u64,
    /// Commands generated.
    pub commands: u64,
    /// Size of the stored result (GWCK or GWTB bytes).
    pub stored_bytes: u64,
    /// Telemetry spans held and dropped (crowd only).
    pub telemetry_spans: (u64, u64),
    /// Deterministic outputs.
    pub digest: Digest,
    /// Work done per modelled layer.
    pub counters: Vec<(&'static str, f64)>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Per-draw measurements (traced repetitions only).
    pub draw: DrawTrace,
}

/// Per-draw measurements a traced repetition adds.
#[derive(Debug, Clone, Default)]
pub struct DrawTrace {
    /// Work ticks of draws with color writes on / off.
    pub ticks: [u64; 2],
    /// Latency of each draw, in µs.
    pub draw_us: Vec<f64>,
}

/// `FrameSimStats` counters in declaration order (`to_counters` order).
const FRAME_FIELDS: [&str; FrameSimStats::FIELD_COUNT] = [
    "indices",
    "shaded_vertices",
    "vcache_hits",
    "assembled",
    "clipped",
    "culled",
    "traversed",
    "vs_instructions",
    "frags_raster",
    "frags_zst",
    "frags_shaded",
    "frags_blended",
    "quads_raster",
    "quads_complete_raster",
    "quads_hz_removed",
    "quads_zst_removed",
    "quads_alpha_removed",
    "quads_colormask",
    "quads_blended",
    "quads_zst_survived",
    "quads_zst_complete",
    "fs_instructions",
    "fs_tex_instructions",
    "tex_requests",
    "bilinear_samples",
    "dropped_batches",
    "dropped_frames",
];

/// Records the emitted stream. Doom3 goes through `gwc_api::Device`
/// (validation + trace record), as `repro replay` does, with each submit
/// timed when traced; the scenario is collected as emitted, as `repro
/// trace` feeds it to the GPU without a `Device`.
struct Recorder {
    device: Option<Device>,
    collected: Trace,
    error: Option<String>,
    time_submits: bool,
    /// First submit, summed duration and count since the last take.
    timed: Option<(Instant, Duration, u64)>,
}

impl CommandSink for Recorder {
    fn consume(&mut self, c: &Command) {
        let Some(device) = &mut self.device else {
            self.collected.push(c.clone());
            return;
        };
        let start = self.time_submits.then(Instant::now);
        let result = device.submit(c.clone());
        if let Some(start) = start {
            let (_, sum, n) = self.timed.get_or_insert((start, Duration::ZERO, 0));
            *sum += start.elapsed();
            *n += 1;
        }
        if let (Err(e), None) = (result, &self.error) {
            self.error = Some(format!("Device::submit rejected the generated stream: {e}"));
        }
    }
}

fn crowd_spec() -> Result<ScenarioSpec, String> {
    match ScenarioSpec::parse(CROWD_SCENARIO) {
        Some(Ok(spec)) => Ok(spec),
        _ => Err(format!("{CROWD_SCENARIO} does not parse")),
    }
}

/// Generates the seeded command stream, frame by frame.
fn generate(kind: Kind, seed: u64, mut tr: Option<&mut Tracer>) -> Result<Trace, String> {
    let frames = kind.frames();
    let (mut doom3, mut scenario) = match kind {
        Kind::Shadow => {
            let profile =
                GameProfile::by_name(SHADOW_GAME).ok_or("Doom3/trdemo2 profile missing")?;
            (
                Some(Timedemo::new(profile, TimedemoConfig { frames, seed })),
                None,
            )
        }
        Kind::Crowd => {
            let config = ScenarioConfig { frames, seed };
            (None, Some(ScenarioDemo::new(crowd_spec()?, config)))
        }
    };
    let mut rec = Recorder {
        device: (kind == Kind::Shadow).then(Device::new),
        collected: Trace::new(),
        error: None,
        time_submits: tr.is_some(),
        timed: None,
    };
    for f in 0..frames {
        let span = tr
            .as_deref_mut()
            .map(|t| t.begin("workloads.emit", &f.to_string()));
        if let Some(demo) = &mut doom3 {
            demo.emit_frame(f, &mut rec);
        }
        if let Some(demo) = &mut scenario {
            demo.emit_frame(f, &mut rec);
        }
        if let (Some(t), Some(span)) = (tr.as_deref_mut(), span) {
            if let Some((first, sum, n)) = rec.timed.take() {
                t.aggregate("api.submit", &f.to_string(), first, sum, n);
            }
            t.end(span);
        }
    }
    match (rec.error, rec.device) {
        (Some(e), _) => Err(e),
        (None, Some(device)) => Ok(device.into_trace()),
        (None, None) => Ok(rec.collected),
    }
}

/// Feeds commands to the GPU, timing each call by kind when traced.
#[derive(Default)]
struct Feeder {
    request: String,
    color_off: bool,
    draws: u64,
    errors: Vec<String>,
    state: Option<(Instant, Duration, u64)>,
    draw: DrawTrace,
}

impl Feeder {
    fn feed(&mut self, gpu: &mut Gpu, c: &Command, tr: Option<&mut Tracer>) {
        if let Command::State(StateCommand::ColorMask(on)) = c {
            self.color_off = !*on;
        }
        if matches!(c, Command::Draw { .. }) {
            self.draws += 1;
        }
        let Some(tr) = tr else {
            if let Err(e) = gpu.try_consume(c) {
                self.errors.push(format!("replay fault: {e}"));
            }
            return;
        };
        let ticks_before = gpu.work_tick();
        let start = Instant::now();
        let result = gpu.try_consume(c);
        let dur = start.elapsed();
        if let Err(e) = result {
            self.errors.push(format!("replay fault: {e}"));
        }
        let name = match c {
            Command::State(_) => {
                let (_, sum, n) = self.state.get_or_insert((start, Duration::ZERO, 0));
                *sum += dur;
                *n += 1;
                return;
            }
            Command::Draw { .. } => {
                let slot = usize::from(self.color_off);
                self.draw.ticks[slot] += gpu.work_tick() - ticks_before;
                self.draw.draw_us.push(dur.as_secs_f64() * 1e6);
                ["pipeline.draw_color", "pipeline.draw_nocolor"][slot]
            }
            Command::Clear { .. } => "pipeline.clear",
            Command::EndFrame => "pipeline.end_frame",
            _ => "pipeline.create",
        };
        tr.record(name, &self.request, start, dur);
    }

    /// Records the state commands fed since the last flush as one span,
    /// before the enclosing frame span ends so that it nests inside it.
    fn flush_state(&mut self, tr: Option<&mut Tracer>) {
        if let (Some(tr), Some((first, sum, n))) = (tr, self.state.take()) {
            tr.aggregate("pipeline.state", &self.request, first, sum, n);
        }
    }
}

fn gpu_config(threads: u32) -> GpuConfig {
    let mut config = GpuConfig::r520(WIDTH, HEIGHT);
    config.threads = threads;
    config.geometry_threads = threads;
    config
}

/// Runs one repetition. `scratch` receives the exported trace files.
pub fn run_rep(
    kind: Kind,
    seed: u64,
    threads: u32,
    scratch: &Path,
    mut tr: Option<&mut Tracer>,
) -> Rep {
    let mut failures = Vec::new();

    // ---- set-up: stream, GPU, asset upload up to the first Clear ----
    let setup_start = Instant::now();
    let setup_span = tr.as_deref_mut().map(|t| t.begin("setup", "setup"));
    let trace = generate(kind, seed, tr.as_deref_mut()).unwrap_or_else(|e| {
        failures.push(e);
        Trace::new()
    });
    let commands = trace.commands();
    let config = gpu_config(threads);
    let new_start = Instant::now();
    let mut gpu = Gpu::new(config);
    if let Some(t) = tr.as_deref_mut() {
        t.record("pipeline.new", "setup", new_start, new_start.elapsed());
    }
    if let (Kind::Crowd, Ok(spec)) = (kind, crowd_spec()) {
        gpu.enable_telemetry(
            Level::Spans,
            &spec.name(),
            gwc_telemetry::DEFAULT_SPAN_CAPACITY,
        );
    }
    let first_clear = commands
        .iter()
        .position(|c| matches!(c, Command::Clear { .. }))
        .unwrap_or(commands.len());
    let mut feeder = Feeder {
        request: "setup".into(),
        ..Feeder::default()
    };
    for c in &commands[..first_clear] {
        feeder.feed(&mut gpu, c, tr.as_deref_mut());
    }
    feeder.flush_state(tr.as_deref_mut());
    if let (Some(t), Some(span)) = (tr.as_deref_mut(), setup_span) {
        t.end(span);
    }
    let setup = setup_start.elapsed();

    // ---- timed region: replay, then checkpoint or export ----
    let usage_start = Usage::now();
    let timed_start = Instant::now();
    let tick_start = gpu.work_tick();
    let mut frame_ms = Vec::new();
    let mut frame = 0u32;
    let mut frame_start = timed_start;
    let mut frame_span = None;
    for c in &commands[first_clear..] {
        if frame_span.is_none() {
            feeder.request = frame.to_string();
            frame_span = tr
                .as_deref_mut()
                .map(|t| t.begin("frame", &frame.to_string()));
        }
        feeder.feed(&mut gpu, c, tr.as_deref_mut());
        if matches!(c, Command::EndFrame) {
            feeder.flush_state(tr.as_deref_mut());
            if let (Some(t), Some(span)) = (tr.as_deref_mut(), frame_span.take()) {
                t.end(span);
            }
            frame_ms.push(frame_start.elapsed().as_secs_f64() * 1e3);
            frame_start = Instant::now();
            frame += 1;
        }
    }
    feeder.flush_state(tr.as_deref_mut());
    let ticks = gpu.work_tick() - tick_start;
    let finish_span = tr.as_deref_mut().map(|t| t.begin("finish", "finish"));
    let finished = match kind {
        Kind::Shadow => finish_checkpoint(&gpu, config, tr.as_deref_mut()),
        Kind::Crowd => finish_export(&mut gpu, scratch, tr.as_deref_mut()),
    };
    if let (Some(t), Some(span)) = (tr, finish_span) {
        t.end(span);
    }
    let timed = timed_start.elapsed();
    let usage = Usage::now().since(usage_start);

    // ---- output checks, outside the timed region ----
    feeder.errors.truncate(3);
    failures.extend(feeder.errors);
    if let Some(e) = gpu.first_error() {
        failures.push(format!("replay classified a fault: {e}"));
    }
    if frame != kind.frames() {
        failures.push(format!(
            "replayed {frame} frames, expected {}",
            kind.frames()
        ));
    }
    let mut digest = sim_digest(&gpu);
    let (hit_ms, stored_bytes, telemetry_spans) = match finished {
        Ok(f) => {
            failures.extend(f.failures);
            let bytes = f.stored.len() as u64;
            match kind {
                Kind::Shadow => {
                    if let Some(restored) = &f.restored {
                        failures.extend(check_restore(&gpu, restored, &f.stored));
                    }
                    digest.push("gwck_bytes", bytes);
                    digest.push("gwck_crc", u64::from(gwc_harness::crc32(&f.stored)));
                }
                Kind::Crowd => {
                    digest.push("gwtb_bytes", bytes);
                    digest.push(
                        "gwtb_crc",
                        u64::from(gwc_telemetry::export::crc32(&f.stored)),
                    );
                    digest.push("telemetry_spans", f.telemetry_spans.0);
                    digest.push("telemetry_dropped", f.telemetry_spans.1);
                }
            }
            (f.hit_ms, bytes, f.telemetry_spans)
        }
        Err(e) => {
            failures.push(e);
            (0.0, 0, (0, 0))
        }
    };
    Rep {
        setup,
        timed,
        ticks,
        frame_ms,
        hit_ms,
        usage,
        draws: feeder.draws,
        commands: commands.len() as u64,
        stored_bytes,
        telemetry_spans,
        digest,
        counters: sim_counters(&gpu),
        failures,
        draw: feeder.draw,
    }
}

/// What the end of the timed region produced.
struct Finished {
    hit_ms: f64,
    /// The stored result: the GWCK or GWTB bytes.
    stored: Vec<u8>,
    telemetry_spans: (u64, u64),
    failures: Vec<String>,
    /// The GPU restored from `stored`, checked after the timed region.
    restored: Option<Gpu>,
}

/// GWCK save plus restore, as gwc-serve's replay job does; the restored
/// GPU must equal the original.
fn finish_checkpoint(
    gpu: &Gpu,
    config: GpuConfig,
    mut tr: Option<&mut Tracer>,
) -> Result<Finished, String> {
    let start = Instant::now();
    let blob = gpu.save_checkpoint();
    if let Some(t) = tr.as_deref_mut() {
        t.record("pipeline.checkpoint_save", "finish", start, start.elapsed());
    }
    let start = Instant::now();
    let restored = Gpu::restore_checkpoint(config, &blob);
    let restore = start.elapsed();
    if let Some(t) = tr {
        t.record("pipeline.checkpoint_restore", "finish", start, restore);
    }
    let restored = restored.map_err(|e| format!("GWCK restore failed: {e}"))?;
    Ok(Finished {
        hit_ms: restore.as_secs_f64() * 1e3,
        stored: blob,
        telemetry_spans: (0, 0),
        failures: Vec::new(),
        restored: Some(restored),
    })
}

/// The checks on a restored checkpoint, made after the timed region: it
/// re-saves to the same bytes and equals the GPU it was saved from.
fn check_restore(gpu: &Gpu, restored: &Gpu, blob: &[u8]) -> Vec<String> {
    let mut failures = Vec::new();
    if restored.save_checkpoint() != blob {
        failures.push("GWCK restore does not re-save to the same bytes".into());
    }
    if restored.stats() != gpu.stats()
        || restored.framebuffer_crc() != gpu.framebuffer_crc()
        || restored.work_tick() != gpu.work_tick()
    {
        failures.push("GWCK restore differs from the original GPU".into());
    }
    failures
}

/// GWTB, Chrome and CSV export, then validation of what was written, as
/// `repro trace` does.
fn finish_export(
    gpu: &mut Gpu,
    scratch: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<Finished, String> {
    let collector = gpu.take_telemetry().ok_or("telemetry collector missing")?;
    let stem = scratch.join("crowd").to_string_lossy().into_owned();
    let start = Instant::now();
    let artifacts = gwc_bench::export_trace(&collector, &stem)
        .map_err(|e| format!("cannot write trace {stem}: {e}"))?;
    if let Some(t) = tr.as_deref_mut() {
        t.record("telemetry.export", "finish", start, start.elapsed());
    }

    let start = Instant::now();
    let chrome_text = std::fs::read_to_string(&artifacts.chrome)
        .map_err(|e| format!("cannot re-read {}: {e}", artifacts.chrome))?;
    let chrome = gwc_telemetry::validate::validate_chrome(&chrome_text);
    let bin = std::fs::read(&artifacts.binary)
        .map_err(|e| format!("cannot re-read {}: {e}", artifacts.binary))?;
    let decode_start = Instant::now();
    let decoded = gwc_telemetry::reader::read_trace(&bin);
    let decode = decode_start.elapsed();
    let csv = std::fs::read_to_string(&artifacts.csv)
        .map_err(|e| format!("cannot re-read {}: {e}", artifacts.csv))?;
    if let Some(t) = tr {
        t.record("telemetry.validate", "finish", start, start.elapsed());
    }

    let mut failures = Vec::new();
    let held = collector.spans_recorded() as u64;
    let dropped = collector.spans_dropped();
    if let Err(e) = chrome {
        failures.push(format!("Chrome trace failed validation: {e}"));
    }
    match decoded {
        Ok(trace) if trace.spans() == held && trace.dropped() == dropped => {}
        Ok(trace) => failures.push(format!(
            "GWTB decodes to {} spans ({} dropped), collector held {held} ({dropped})",
            trace.spans(),
            trace.dropped()
        )),
        Err(e) => failures.push(format!("GWTB failed to decode: {e}")),
    }
    if csv.lines().count() != collector.frames().len() + 1 {
        failures.push("frame CSV row count differs from the frames traced".into());
    }
    Ok(Finished {
        hit_ms: decode.as_secs_f64() * 1e3,
        stored: bin,
        telemetry_spans: (held, dropped),
        failures,
        restored: None,
    })
}

/// Work ticks, every `FrameSimStats` total, cache and memory totals and
/// the framebuffer CRC.
fn sim_digest(gpu: &Gpu) -> Digest {
    let mut d = Digest::default();
    d.push("work_ticks", gpu.work_tick());
    d.push("frames", gpu.stats().frames().len() as u64);
    for (name, value) in FRAME_FIELDS.iter().zip(gpu.stats().totals().to_counters()) {
        d.push(format!("stats.{name}"), value);
    }
    d.push("faults", gpu.stats().total_faults());
    for (cache, s) in [
        ("z_cache", gpu.z_cache_stats()),
        ("color_cache", gpu.color_cache_stats()),
        ("tex_l0", gpu.tex_l0_stats()),
        ("tex_l1", gpu.tex_l1_stats()),
    ] {
        d.push(format!("{cache}.accesses"), s.accesses);
        d.push(format!("{cache}.hits"), s.hits);
        d.push(format!("{cache}.fills"), s.fills);
        d.push(format!("{cache}.writebacks"), s.writebacks);
    }
    let mem = gpu.memory().total();
    for client in MemClient::ALL {
        let t = mem.client(client);
        d.push(format!("mem.{}.read", client.name()), t.read);
        d.push(format!("mem.{}.written", client.name()), t.written);
    }
    d.push("fb_crc", u64::from(gpu.framebuffer_crc()));
    d
}

/// The `sim.*` per-layer counters: the work each modelled layer did.
fn sim_counters(gpu: &Gpu) -> Vec<(&'static str, f64)> {
    let t = gpu.stats().totals();
    let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    vec![
        ("sim.work_ticks", gpu.work_tick() as f64),
        ("sim.indices", t.indices as f64),
        ("sim.vcache_hit_rate", t.vertex_cache_hit_rate()),
        ("sim.triangles_traversed", t.traversed as f64),
        ("sim.frags_raster", t.frags_raster as f64),
        (
            "sim.hz_removed_frac",
            frac(t.quads_hz_removed, t.quads_raster),
        ),
        (
            "sim.zst_removed_frac",
            frac(t.quads_zst_removed, t.quads_raster),
        ),
        ("sim.fs_instructions", t.fs_instructions as f64),
        ("sim.bilinear_samples", t.bilinear_samples as f64),
        ("sim.tex_l0_hit_rate", gpu.tex_l0_stats().hit_rate()),
        ("sim.tex_l1_hit_rate", gpu.tex_l1_stats().hit_rate()),
        ("sim.z_hit_rate", gpu.z_cache_stats().hit_rate()),
        ("sim.color_hit_rate", gpu.color_cache_stats().hit_rate()),
        ("sim.mem_bytes", gpu.memory().total().total() as f64),
    ]
}

/// End-to-end metrics of a set of repetitions.
fn end_to_end(reps: &[Rep]) -> Vec<Measured> {
    let n = reps.len();
    let tps: Vec<f64> = reps
        .iter()
        .map(|r| r.ticks as f64 / r.timed.as_secs_f64())
        .collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();
    let frames: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.frame_ms.iter().copied())
        .collect();
    let hits: Vec<f64> = reps.iter().map(|r| r.hit_ms).collect();
    let job = Summary::of(&frames);
    let hit = Summary::of(&hits);
    let frame_s: f64 = frames.iter().sum::<f64>() / 1e3;
    vec![
        Measured {
            name: "ticks_per_s",
            value: stats::median(&tps),
            detail: format!("median of {n} replays"),
        },
        Measured {
            name: "setup_s",
            value: stats::median(&setup),
            detail: format!("median of {n} set-ups"),
        },
        Measured {
            name: "peak_rss_mb",
            value: crate::host::peak_rss_mib("self").unwrap_or(0.0),
            detail: "VmHWM of this process".into(),
        },
        Measured {
            name: "job_ms_p50",
            value: job.median,
            detail: format!("median of {} frames", job.n),
        },
        Measured {
            name: "job_ms_tail",
            value: job.tail,
            detail: format!("{} frames", job.tail_label()),
        },
        Measured {
            name: "hit_ms_p50",
            value: hit.median,
            detail: format!("median of {} read-backs", hit.n),
        },
        Measured {
            name: "hit_ms_tail",
            value: hit.tail,
            detail: format!("{} read-backs", hit.tail_label()),
        },
        Measured {
            name: "jobs_per_s",
            value: frames.len() as f64 / frame_s,
            detail: format!("{} frames / {frame_s:.3} s", frames.len()),
        },
    ]
}

/// Runs `shadow-replay` or `crowd-trace-mt`: the untraced repetitions,
/// then, with `--trace 1`, as many traced ones.
pub fn run(kind: Kind, args: &Args, scratch: &Path) -> Outcome {
    let threads = crate::host::nproc();
    let n = kind.reps(args.seconds);
    let mut outcome = Outcome {
        host: vec![
            ("threads", threads.to_string()),
            ("geometry_threads", threads.to_string()),
        ],
        ..Outcome::default()
    };
    let mut reps = Vec::new();
    for i in 0..n {
        let seed = rep_seed(args.seed, i, n);
        let rep = run_rep(kind, seed, threads, scratch, None);
        eprintln!(
            "perfbench: {} replay {}/{n} (seed {seed}): set-up {:.3} s, {:.0} ticks/s",
            args.workload,
            i + 1,
            rep.setup.as_secs_f64(),
            rep.ticks as f64 / rep.timed.as_secs_f64()
        );
        reps.push(rep);
    }
    outcome.digest = reps[0].digest.clone();
    outcome.attempted = u64::from(n);
    for (i, r) in reps.iter().enumerate() {
        let mut bad = r.failures.clone();
        if i + 1 == reps.len() && r.digest != outcome.digest {
            let diff = r.digest.diff(&outcome.digest);
            bad.push(format!(
                "replaying the first world again differs: {}",
                diff.join("; ")
            ));
        }
        if !bad.is_empty() {
            outcome.failed += 1;
            outcome
                .failures
                .extend(bad.into_iter().map(|f| format!("replay {i}: {f}")));
        }
    }
    let what = match kind {
        Kind::Shadow => "the first world replays bit-identically and every GWCK restore equals its original",
        Kind::Crowd => "the first world replays bit-identically and every Chrome, CSV and GWTB export validates",
    };
    outcome.check_digest(args.workload, args.seed, what);
    outcome.e2e = end_to_end(&reps);
    if args.trace {
        traced(kind, args, scratch, threads, &reps, &mut outcome);
    }
    outcome
}

/// The traced pass: spans around every call, per-layer metrics per
/// replay, and the self-time tables.
fn traced(
    kind: Kind,
    args: &Args,
    scratch: &Path,
    threads: u32,
    plain: &[Rep],
    outcome: &mut Outcome,
) {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut traced_reps = Vec::new();
    for i in 0..plain.len() {
        eprintln!(
            "perfbench: {} traced replay {}/{}",
            args.workload,
            i + 1,
            plain.len()
        );
        let seed = rep_seed(args.seed, i as u32, plain.len() as u32);
        let rep = run_rep(kind, seed, threads, scratch, Some(&mut tracer));
        if rep.digest != plain[i].digest {
            outcome
                .failures
                .push(format!("traced replay {i} differs from the untraced one"));
        }
        traced_reps.push(rep);
    }
    outcome.e2e_traced = end_to_end(&traced_reps);

    let n = plain.len() as f64;
    let spans = tracer.spans();
    let setup_rows = trace::layers(spans, &["setup"]);
    let timed_rows = trace::layers(spans, &["frame", "finish"]);
    let all_rows = trace::layers(spans, &[]);
    let secs = |rows: &std::collections::BTreeMap<&str, trace::LayerRow>, name: &str| {
        rows.get(name).map_or(0.0, |r| r.self_ns as f64 / 1e9 / n)
    };
    let calls = |rows: &std::collections::BTreeMap<&str, trace::LayerRow>, name: &str| {
        rows.get(name).map_or(0.0, |r| r.calls as f64 / n)
    };
    let draw_us: Vec<f64> = traced_reps
        .iter()
        .flat_map(|r| r.draw.draw_us.iter().copied())
        .collect();
    let draws = Summary::of(&draw_us);
    // Times, calls and ticks are means per repetition; the worlds differ.
    let draw_ticks = [0, 1]
        .map(|k| traced_reps.iter().map(|r| r.draw.ticks[k]).sum::<u64>() / plain.len() as u64);
    let first = &plain[0];
    let cpu: f64 = plain.iter().map(|r| r.usage.cpu.as_secs_f64()).sum();
    let wall: f64 = plain.iter().map(|r| r.timed.as_secs_f64()).sum();
    let ctx: u64 = plain.iter().map(|r| r.usage.ctx_switches).sum();
    let all_draws: u64 = plain.iter().map(|r| r.draws).sum();
    let per_tick = |s: f64, ticks: u64| {
        if ticks == 0 {
            0.0
        } else {
            s * 1e9 / ticks as f64
        }
    };
    let color_s = secs(&timed_rows, "pipeline.draw_color");
    let nocolor_s = secs(&timed_rows, "pipeline.draw_nocolor");
    let mut layers = vec![
        ("workloads.emit_s", secs(&setup_rows, "workloads.emit")),
        ("workloads.commands", first.commands as f64),
        ("api.submit_s", secs(&setup_rows, "api.submit")),
        ("pipeline.new_s", secs(&setup_rows, "pipeline.new")),
        ("pipeline.create_s", secs(&all_rows, "pipeline.create")),
        ("pipeline.create_calls", calls(&all_rows, "pipeline.create")),
        ("pipeline.draw_color.s", color_s),
        (
            "pipeline.draw_color.calls",
            calls(&timed_rows, "pipeline.draw_color"),
        ),
        ("pipeline.draw_color.ticks", draw_ticks[0] as f64),
        (
            "pipeline.draw_color.ns_per_tick",
            per_tick(color_s, draw_ticks[0]),
        ),
        ("pipeline.draw_nocolor.s", nocolor_s),
        (
            "pipeline.draw_nocolor.calls",
            calls(&timed_rows, "pipeline.draw_nocolor"),
        ),
        ("pipeline.draw_nocolor.ticks", draw_ticks[1] as f64),
        (
            "pipeline.draw_nocolor.ns_per_tick",
            per_tick(nocolor_s, draw_ticks[1]),
        ),
        ("pipeline.draw_us_p50", draws.median),
        ("pipeline.draw_us_tail", draws.tail),
        ("pipeline.cpu_util", cpu / wall),
        (
            "pipeline.ctx_switches_per_draw",
            ctx as f64 / all_draws.max(1) as f64,
        ),
        ("pipeline.state_s", secs(&timed_rows, "pipeline.state")),
        ("pipeline.clear_s", secs(&timed_rows, "pipeline.clear")),
        (
            "pipeline.end_frame_s",
            secs(&timed_rows, "pipeline.end_frame"),
        ),
    ];
    match kind {
        Kind::Shadow => layers.extend([
            (
                "pipeline.checkpoint_save_s",
                secs(&timed_rows, "pipeline.checkpoint_save"),
            ),
            (
                "pipeline.checkpoint_restore_s",
                secs(&timed_rows, "pipeline.checkpoint_restore"),
            ),
            ("pipeline.checkpoint_bytes", first.stored_bytes as f64),
        ]),
        Kind::Crowd => {
            let (held, dropped) = first.telemetry_spans;
            layers.extend([
                ("telemetry.export_s", secs(&timed_rows, "telemetry.export")),
                (
                    "telemetry.validate_s",
                    secs(&timed_rows, "telemetry.validate"),
                ),
                ("telemetry.gwtb_bytes", first.stored_bytes as f64),
                ("telemetry.spans", held as f64),
                (
                    "telemetry.dropped_frac",
                    dropped as f64 / (held + dropped).max(1) as f64,
                ),
            ]);
        }
    }
    layers.extend(first.counters.iter().copied());
    outcome.layers = layers;

    let setup_ns: u64 = traced_reps.iter().map(|r| r.setup.as_nanos() as u64).sum();
    let timed_ns: u64 = traced_reps.iter().map(|r| r.timed.as_nanos() as u64).sum();
    outcome.report = format!(
        "set-up, {} traced replays (share of set-up time):\n{}\ntimed region, {} traced replays (share of the timed region):\n{}draw latency: median {:.1} us, {} draws ({:.1} us)",
        plain.len(),
        trace::layer_table(&setup_rows, setup_ns),
        plain.len(),
        trace::layer_table(&timed_rows, timed_ns),
        draws.median,
        draws.tail_label(),
        draws.tail,
    );
    outcome.spans_jsonl = trace::spans_jsonl(spans);
}
