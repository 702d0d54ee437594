//! Study orchestration: run timedemos through the collectors.

use gwc_api::{ApiStats, GraphicsApi};
use gwc_mem::{CacheStats, FrameTraffic};
use gwc_pipeline::{CancelToken, Gpu, GpuConfig, SimStats};
use gwc_texture::SampleStats;
use gwc_workloads::{GameProfile, Timedemo, TimedemoConfig};

/// Study parameters.
///
/// The paper gathers API statistics over entire timedemos (576–3990
/// frames) and microarchitectural statistics from ATTILA runs; a software
/// pipeline can't render thousands of 1024×768 frames in CI, so the two
/// passes are configured separately (see DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Frames for the API-level pass (cheap: no rasterization).
    pub api_frames: u32,
    /// Frames for the microarchitectural pass (0 disables simulation).
    pub sim_frames: u32,
    /// Simulated render-target width.
    pub width: u32,
    /// Simulated render-target height.
    pub height: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl RunConfig {
    /// The full reproduction setting: paper resolution, a 2000-frame API
    /// window (the paper's own plots truncate at 2000 frames) and a short
    /// simulated window.
    pub fn paper() -> Self {
        RunConfig { api_frames: 2000, sim_frames: 8, width: 1024, height: 768, seed: 0x5EED }
    }

    /// A fast setting for tests and smoke runs.
    pub fn quick() -> Self {
        RunConfig { api_frames: 60, sim_frames: 3, width: 320, height: 240, seed: 0x5EED }
    }

    /// Canonical, order-stable key of every field, for content
    /// addressing: two configs with equal keys produce bit-identical
    /// runs of the same workload. The format is part of the `gwc-serve`
    /// cache identity — changing it invalidates every cached result, so
    /// extend it only by appending fields.
    pub fn cache_key(&self) -> String {
        format!(
            "api={};sim={};w={};h={};seed={:#x}",
            self.api_frames, self.sim_frames, self.width, self.height, self.seed
        )
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Microarchitectural results for one simulated demo.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResults {
    /// Per-stage pipeline statistics.
    pub stats: SimStats,
    /// Z & stencil cache statistics (Table XIV).
    pub z_cache: CacheStats,
    /// Color cache statistics (Table XIV).
    pub color_cache: CacheStats,
    /// Texture L0 cache statistics (Table XIV).
    pub tex_l0: CacheStats,
    /// Texture L1 cache statistics (Table XIV).
    pub tex_l1: CacheStats,
    /// Filtering statistics accumulated over the run (Table XIII).
    pub filtering: SampleStats,
    /// Per-frame memory traffic (Tables XV–XVII).
    pub memory: Vec<FrameTraffic>,
    /// Simulated render target width.
    pub width: u32,
    /// Simulated render target height.
    pub height: u32,
}

impl SimResults {
    /// Render-target pixels.
    pub fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Memory frames excluding the first (which carries the one-time
    /// resource upload the paper amortizes over thousands of frames).
    pub fn steady_memory(&self) -> &[FrameTraffic] {
        if self.memory.len() > 1 {
            &self.memory[1..]
        } else {
            &self.memory
        }
    }

    /// Mean total memory bytes per steady-state frame.
    pub fn mean_bytes_per_frame(&self) -> f64 {
        let frames = self.steady_memory();
        if frames.is_empty() {
            return 0.0;
        }
        frames.iter().map(|f| f.total()).sum::<u64>() as f64 / frames.len() as f64
    }

    /// Whole-run steady-state traffic.
    pub fn total_traffic(&self) -> FrameTraffic {
        let mut t = FrameTraffic::default();
        for f in self.steady_memory() {
            t.merge(f);
        }
        t
    }
}

/// Everything measured for one timedemo.
#[derive(Debug, Clone)]
pub struct GameCharacterization {
    /// The profile (published parameters).
    pub profile: &'static GameProfile,
    /// API-level statistics over the API pass.
    pub api: ApiStats,
    /// Microarchitectural results (the simulated OpenGL subset only,
    /// mirroring the paper's ATTILA limitation).
    pub sim: Option<SimResults>,
}

/// The full study: one characterization per Table I row.
#[derive(Debug, Clone)]
pub struct Study {
    /// Per-game results, in Table I order.
    pub games: Vec<GameCharacterization>,
    /// The configuration used.
    pub config: RunConfig,
}

impl Study {
    /// The characterizations with simulation results.
    pub fn simulated(&self) -> impl Iterator<Item = &GameCharacterization> {
        self.games.iter().filter(|g| g.sim.is_some())
    }

    /// Looks up a game by profile name.
    pub fn by_name(&self, name: &str) -> Option<&GameCharacterization> {
        self.games.iter().find(|g| g.profile.name == name)
    }
}

/// Characterizes one timedemo: an API pass, plus a simulated pass for the
/// demos the paper runs through ATTILA.
pub fn characterize(profile: &'static GameProfile, config: &RunConfig) -> GameCharacterization {
    characterize_traced(profile, config, None, gwc_telemetry::Level::Off)
        .expect("characterize without a token cannot be cancelled")
        .0
}

/// [`characterize`] under supervision, with a telemetry collector
/// attached to the simulated pass at `level`.
///
/// The optional [`CancelToken`] is polled between generated frames and
/// inside the GPU pipeline loops (work ticks are charged per command,
/// triangle, and quad). A tripped token aborts the pass and returns
/// `None` — partial characterizations are never surfaced, so a
/// supervisor retry starts from a clean slate.
///
/// The collector is returned alongside the characterization so callers
/// can export its trace; it is `None` when `level` is `Off` or the
/// profile has no simulated pass. A collector never changes the
/// characterization itself — the work-tick clock runs either way.
pub fn characterize_traced(
    profile: &'static GameProfile,
    config: &RunConfig,
    cancel: Option<&CancelToken>,
    level: gwc_telemetry::Level,
) -> Option<(GameCharacterization, Option<gwc_telemetry::Collector>)> {
    let cancelled = |token: Option<&CancelToken>| token.is_some_and(CancelToken::is_cancelled);

    // API-level pass over the long window, frame by frame so a watchdog
    // can interrupt trace *generation*, not just simulation.
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames: config.api_frames, seed: config.seed });
    let mut api = ApiStats::new();
    for frame in 0..config.api_frames {
        if cancelled(cancel) {
            return None;
        }
        if let Some(tok) = cancel {
            tok.charge(1);
        }
        demo.emit_frame(frame, &mut api);
    }

    // Microarchitectural pass: OpenGL + simulated flag, like the paper.
    let mut collector = None;
    let sim = if config.sim_frames > 0 && profile.api == GraphicsApi::OpenGl && profile.simulated
    {
        let mut demo =
            Timedemo::new(profile, TimedemoConfig { frames: config.sim_frames, seed: config.seed });
        let mut gpu = Gpu::new(GpuConfig::r520(config.width, config.height));
        if let Some(tok) = cancel {
            gpu.set_cancel_token(tok.clone());
        }
        if level != gwc_telemetry::Level::Off {
            gpu.enable_telemetry(level, profile.name, gwc_telemetry::DEFAULT_SPAN_CAPACITY);
        }
        demo.emit_all(&mut gpu);
        if cancelled(cancel) {
            return None;
        }
        collector = gpu.take_telemetry();
        let filtering = SampleStats {
            requests: gpu.stats().totals().tex_requests,
            bilinear_samples: gpu.stats().totals().bilinear_samples,
        };
        Some(SimResults {
            stats: gpu.stats().clone(),
            z_cache: gpu.z_cache_stats(),
            color_cache: gpu.color_cache_stats(),
            tex_l0: gpu.tex_l0_stats(),
            tex_l1: gpu.tex_l1_stats(),
            filtering,
            memory: gpu.memory().frames().to_vec(),
            width: config.width,
            height: config.height,
        })
    } else {
        None
    };
    if cancelled(cancel) {
        return None;
    }
    Some((GameCharacterization { profile, api, sim }, collector))
}

/// Runs the full Table I workload set.
pub fn run_study(config: &RunConfig) -> Study {
    let games = GameProfile::all().iter().map(|p| characterize(p, config)).collect();
    Study { games, config: *config }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_has_twelve_games_three_simulated() {
        let cfg = RunConfig { api_frames: 3, sim_frames: 1, width: 96, height: 72, seed: 3 };
        let study = run_study(&cfg);
        assert_eq!(study.games.len(), 12);
        assert_eq!(study.simulated().count(), 3);
        for g in study.simulated() {
            assert!(g.profile.simulated);
            assert_eq!(g.profile.api, GraphicsApi::OpenGl);
        }
    }

    #[test]
    fn api_pass_counts_frames() {
        let p = GameProfile::by_name("Riddick/MainFrame").unwrap();
        let cfg = RunConfig { api_frames: 5, sim_frames: 0, width: 64, height: 48, seed: 1 };
        let c = characterize(p, &cfg);
        assert_eq!(c.api.frames(), 5);
        assert!(c.sim.is_none());
    }

    #[test]
    fn sim_results_carry_traffic() {
        let p = GameProfile::by_name("UT2004/Primeval").unwrap();
        let cfg = RunConfig { api_frames: 2, sim_frames: 2, width: 96, height: 72, seed: 1 };
        let c = characterize(p, &cfg);
        let sim = c.sim.expect("UT2004 is simulated");
        assert_eq!(sim.memory.len(), 2);
        assert!(sim.mean_bytes_per_frame() > 0.0);
        assert!(sim.z_cache.accesses > 0);
        assert_eq!(sim.pixels(), 96 * 72);
        // Steady memory excludes the upload frame.
        assert_eq!(sim.steady_memory().len(), 1);
    }

    #[test]
    fn non_simulated_opengl_demo_has_no_sim() {
        let p = GameProfile::by_name("Quake4/guru5").unwrap();
        let cfg = RunConfig { api_frames: 2, sim_frames: 2, width: 64, height: 48, seed: 1 };
        let c = characterize(p, &cfg);
        assert!(c.sim.is_none(), "guru5 is OpenGL but not in the paper's simulated set");
    }

    #[test]
    fn study_lookup() {
        let cfg = RunConfig { api_frames: 2, sim_frames: 0, width: 64, height: 48, seed: 1 };
        let study = run_study(&cfg);
        assert!(study.by_name("Doom3/trdemo2").is_some());
        assert!(study.by_name("nope").is_none());
    }
}
