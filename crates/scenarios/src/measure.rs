//! Measuring a simulated run: the counters of one emission pass reduced
//! to an AIWC-style feature vector, plus the verdicts on a scenario's
//! declared characteristics.
//!
//! The pass must feed both the API-statistics sink and the GPU via
//! [`gwc_api::Tee`], so the API-level and microarchitectural views come
//! from the *same* command stream. Scenario cells and the Table I
//! reference games they are ranked against are measured alike.

use gwc_api::ApiStats;
use gwc_mem::MemClient;
use gwc_pipeline::Gpu;
use gwc_stats::{FeatureInputs, FeatureVector};

use crate::expect::{expectations, Expectation};
use crate::spec::ScenarioSpec;

/// The measurement of one simulated run.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The measured feature vector (labelled `<name>#<seed>` for a
    /// scenario, the bare name for a Table I game).
    pub vector: FeatureVector,
    /// Framebuffer CRC-32 after the last frame (determinism witness).
    pub fb_crc: u32,
    /// Declared-characteristics verdicts: (expectation, result). Empty
    /// for a Table I game, which declares none.
    pub verdicts: Vec<(Expectation, Result<f64, String>)>,
}

impl ScenarioRun {
    /// True when every declared characteristic held.
    pub fn all_green(&self) -> bool {
        self.verdicts.iter().all(|(_, r)| r.is_ok())
    }
}

/// Measures a finished run of `workload` — a `scn:` scenario or a
/// Table I game — emitted at `seed` through `api` and `gpu` at the given
/// resolution: the feature vector, the framebuffer CRC, and, for a
/// scenario, the verdicts on its declared characteristics.
pub fn measure(
    workload: &str,
    seed: u64,
    api: &ApiStats,
    gpu: &Gpu,
    width: u32,
    height: u32,
) -> ScenarioRun {
    let spec = ScenarioSpec::parse(workload).and_then(Result::ok);
    let label = match spec {
        Some(spec) => format!("{}#{seed}", spec.name()),
        None => workload.to_owned(),
    };
    let vector = reduce(&label, api, gpu, width, height);
    let verdicts = spec
        .map_or_else(Vec::new, expectations)
        .into_iter()
        .map(|e| {
            let r = e.check(&vector);
            (e, r)
        })
        .collect();
    ScenarioRun { vector, fb_crc: gpu.framebuffer_crc(), verdicts }
}

/// Reduces a finished (ApiStats, Gpu) pair to a labelled feature vector.
fn reduce(label: &str, api: &ApiStats, gpu: &Gpu, width: u32, height: u32) -> FeatureVector {
    let sim = gpu.stats().totals();
    let traffic = gpu.memory().total();
    let total_bytes = traffic.total() as f64;
    let share = |c: MemClient| {
        if total_bytes > 0.0 {
            traffic.client(c).total() as f64 / total_bytes
        } else {
            0.0
        }
    };
    let frames = api.frames() as f64;
    let inputs = FeatureInputs {
        frames,
        pixels: (width * height) as f64,
        batches: api.totals().batches as f64,
        api_indices: api.totals().indices as f64,
        state_calls: api.totals().state_calls as f64,
        assembled: sim.assembled as f64,
        clipped: sim.clipped as f64,
        culled: sim.culled as f64,
        geom_indices: sim.indices as f64,
        vcache_hits: sim.vcache_hits as f64,
        frags_raster: sim.frags_raster as f64,
        frags_shaded: sim.frags_shaded as f64,
        quads_hz_removed: sim.quads_hz_removed as f64,
        quads_alpha_removed: sim.quads_alpha_removed as f64,
        quads_raster: sim.quads_raster as f64,
        fs_instructions: sim.fs_instructions as f64,
        fs_tex_instructions: sim.fs_tex_instructions as f64,
        bilinear_samples: sim.bilinear_samples as f64,
        z_hit_rate: gpu.z_cache_stats().hit_rate(),
        color_hit_rate: gpu.color_cache_stats().hit_rate(),
        tex_l0_hit_rate: gpu.tex_l0_stats().hit_rate(),
        tex_l1_hit_rate: gpu.tex_l1_stats().hit_rate(),
        bw_texture_share: share(MemClient::Texture),
        bw_zstencil_share: share(MemClient::ZStencil),
        bw_color_share: share(MemClient::Color),
    };
    FeatureVector::from_inputs(label, &inputs)
}
