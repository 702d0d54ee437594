//! Simulator configuration (the paper's Table II).

use crate::error::FaultPolicy;

/// GPU configuration, defaulting to the ATTILA setup of Table II (matched
/// to an ATI R520). The fixed parts of that setup — the Table II rates,
/// the Table XIV cache geometry (`gwc_mem::CacheConfig`), early Z, the
/// command-processor fetch size and the VRAM budget — are constants, not
/// fields: no experiment varies them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Render target width in pixels.
    pub width: u32,
    /// Render target height in pixels.
    pub height: u32,
    /// Post-transform vertex cache entries.
    pub vertex_cache_entries: usize,
    /// Hierarchical Z enabled.
    pub hierarchical_z: bool,
    /// Z fast-clear + block compression enabled.
    pub z_compression: bool,
    /// Color fast-clear + uniform-block compression enabled.
    pub color_compression: bool,
    /// Reaction to classified replay faults (see [`FaultPolicy`]).
    pub fault_policy: FaultPolicy,
    /// Fragment-pipeline worker threads. `0` resolves from the
    /// `GWC_THREADS` environment variable (absent → 1). Any thread count
    /// produces bit-identical results: parallelism only changes which
    /// worker executes each stripe, never the work done per stripe.
    pub threads: u32,
    /// Rows per framebuffer stripe — the unit of fragment-pipeline
    /// parallelism. Must be a non-zero multiple of 16 so rasterizer tiles,
    /// 8×8 compression blocks, and 2×2 quads never straddle a stripe.
    /// Stripe layout (and therefore statistics) depends on this value, not
    /// on the thread count.
    pub stripe_rows: u32,
    /// Geometry front-end worker threads (vertex shading and triangle
    /// setup chunks). `0` uses the resolved fragment thread count. Any
    /// value produces bit-identical results: chunk shards reduce in fixed
    /// chunk order, so parallelism only changes which worker executes a
    /// chunk, never what the chunk contributes.
    pub geometry_threads: u32,
}

impl GpuConfig {
    /// The paper's configuration at a given resolution (1024×768 in the
    /// paper; tests use smaller targets).
    pub fn r520(width: u32, height: u32) -> Self {
        GpuConfig {
            width,
            height,
            vertex_cache_entries: 16,
            hierarchical_z: true,
            z_compression: true,
            color_compression: true,
            fault_policy: FaultPolicy::Strict,
            threads: 0,
            stripe_rows: 32,
            geometry_threads: 0,
        }
    }

    /// The paper's benchmark resolution.
    pub fn paper() -> Self {
        Self::r520(1024, 768)
    }

    /// Table II rows as `(parameter, R520, ATTILA-model)` strings, for the
    /// `repro table2` output.
    pub fn table2_rows() -> Vec<(String, String, String)> {
        [
            ("Vertex/Fragment Shaders", "8/16", "16 (unified)"),
            ("Triangle Setup", "2 triangles/cycle", "2 triangles/cycle"),
            ("Texture Rate", "16 bilinears/cycle", "16 bilinears/cycle"),
            ("ZStencil / Color Rates", "16 / 16 fragments/cycle", "16 / 16 fragments/cycle"),
            ("Memory BW", "> 64 bytes/cycle", "64 bytes/cycle"),
        ]
        .into_iter()
        .map(|(param, r520, model)| (param.into(), r520.into(), model.into()))
        .collect()
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let c = GpuConfig::paper();
        assert_eq!((c.width, c.height), (1024, 768));
        let model: Vec<String> = GpuConfig::table2_rows().into_iter().map(|row| row.2).collect();
        assert_eq!(
            model,
            [
                "16 (unified)",
                "2 triangles/cycle",
                "16 bilinears/cycle",
                "16 / 16 fragments/cycle",
                "64 bytes/cycle",
            ]
        );
    }

    #[test]
    fn table2_rows_complete() {
        assert_eq!(GpuConfig::table2_rows().len(), 5);
    }
}
