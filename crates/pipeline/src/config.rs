//! Simulator configuration (the paper's Table II).

use gwc_mem::CacheConfig;

use crate::error::FaultPolicy;

/// GPU configuration, defaulting to the ATTILA setup of Table II (matched
/// to an ATI R520) with the cache geometry of Table XIV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Render target width in pixels.
    pub width: u32,
    /// Render target height in pixels.
    pub height: u32,
    /// Post-transform vertex cache entries.
    pub vertex_cache_entries: usize,
    /// Unified shader processor count (Table II: 16).
    pub shader_units: u32,
    /// Triangle setup rate, triangles/cycle (Table II: 2).
    pub triangles_per_cycle: u32,
    /// Texture sampling rate, bilinears/cycle (Table II: 16).
    pub bilinears_per_cycle: u32,
    /// Z/stencil ROP rate, fragments/cycle (Table II: 16).
    pub z_rate: u32,
    /// Color ROP rate, fragments/cycle (Table II: 16).
    pub color_rate: u32,
    /// Memory bus width, bytes/cycle (Table II: 64).
    pub memory_bytes_per_cycle: u32,
    /// Hierarchical Z enabled.
    pub hierarchical_z: bool,
    /// Early z & stencil enabled (when the draw state allows it).
    pub early_z: bool,
    /// Z fast-clear + block compression enabled.
    pub z_compression: bool,
    /// Color fast-clear + uniform-block compression enabled.
    pub color_compression: bool,
    /// Z & stencil cache geometry.
    pub z_cache: CacheConfig,
    /// Texture L0 (decompressed) cache geometry.
    pub tex_l0: CacheConfig,
    /// Texture L1 (compressed) cache geometry.
    pub tex_l1: CacheConfig,
    /// Color cache geometry.
    pub color_cache: CacheConfig,
    /// Bytes of command-processor traffic accounted per API command.
    pub cp_bytes_per_command: u32,
    /// Reaction to classified replay faults (see [`FaultPolicy`]).
    pub fault_policy: FaultPolicy,
    /// VRAM budget for resource allocations; a command pushing the
    /// allocator past this faults with
    /// [`crate::SimError::AllocationOverflow`].
    pub vram_limit_bytes: u64,
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
            shader_units: 16,
            triangles_per_cycle: 2,
            bilinears_per_cycle: 16,
            z_rate: 16,
            color_rate: 16,
            memory_bytes_per_cycle: 64,
            hierarchical_z: true,
            early_z: true,
            z_compression: true,
            color_compression: true,
            z_cache: CacheConfig::Z_STENCIL,
            tex_l0: CacheConfig::TEXTURE_L0,
            tex_l1: CacheConfig::TEXTURE_L1,
            color_cache: CacheConfig::COLOR,
            cp_bytes_per_command: 32,
            fault_policy: FaultPolicy::Strict,
            // The R520 shipped with up to 512 MiB of GDDR3.
            vram_limit_bytes: 512 << 20,
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
    pub fn table2_rows(&self) -> Vec<(String, String, String)> {
        vec![
            (
                "Vertex/Fragment Shaders".into(),
                "8/16".into(),
                format!("{} (unified)", self.shader_units),
            ),
            (
                "Triangle Setup".into(),
                "2 triangles/cycle".into(),
                format!("{} triangles/cycle", self.triangles_per_cycle),
            ),
            (
                "Texture Rate".into(),
                "16 bilinears/cycle".into(),
                format!("{} bilinears/cycle", self.bilinears_per_cycle),
            ),
            (
                "ZStencil / Color Rates".into(),
                "16 / 16 fragments/cycle".into(),
                format!("{} / {} fragments/cycle", self.z_rate, self.color_rate),
            ),
            (
                "Memory BW".into(),
                "> 64 bytes/cycle".into(),
                format!("{} bytes/cycle", self.memory_bytes_per_cycle),
            ),
        ]
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
        assert_eq!(c.shader_units, 16);
        assert_eq!(c.triangles_per_cycle, 2);
        assert_eq!(c.bilinears_per_cycle, 16);
        assert_eq!((c.z_rate, c.color_rate), (16, 16));
        assert_eq!(c.memory_bytes_per_cycle, 64);
    }

    #[test]
    fn cache_geometry_matches_table14() {
        let c = GpuConfig::paper();
        assert_eq!(c.z_cache.capacity(), 16 * 1024);
        assert_eq!(c.tex_l0.capacity(), 4 * 1024);
        assert_eq!(c.tex_l1.capacity(), 16 * 1024);
        assert_eq!(c.color_cache.capacity(), 16 * 1024);
    }

    #[test]
    fn table2_rows_complete() {
        assert_eq!(GpuConfig::paper().table2_rows().len(), 5);
    }
}
