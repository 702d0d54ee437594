//! The texture unit: two-level cache in front of the filter pipeline.

use std::collections::HashMap;

use gwc_math::Vec4;
use gwc_mem::{AccessKind, Cache, CacheConfig, MemClient, MemoryController};
use gwc_shader::{QuadSampler, TextureRequest};
use gwc_texture::{SampleStats, SamplerState, TexelAddress, TexelTracker, Texture};
use crate::error::SimError;

/// The texture unit's cache hierarchy and filtering statistics.
///
/// Per Table XIV: L0 (4 KB) holds *decompressed* texels, L1 (16 KB) holds
/// *compressed* blocks. A filter texel fetch probes L0; an L0 miss probes
/// L1 with the compressed block address; an L1 miss costs one line of GDDR
/// traffic on the `Texture` memory client.
#[derive(Debug, Clone, PartialEq)]
pub struct TextureUnit {
    l0: Cache,
    l1: Cache,
    stats: SampleStats,
}

impl TextureUnit {
    /// Creates the unit with Table XIV's texture cache geometry.
    pub(crate) fn new() -> Self {
        TextureUnit {
            l0: Cache::new(CacheConfig::TEXTURE_L0),
            l1: Cache::new(CacheConfig::TEXTURE_L1),
            stats: SampleStats::default(),
        }
    }

    /// L0 cache statistics.
    pub fn l0_stats(&self) -> &gwc_mem::CacheStats {
        self.l0.stats()
    }

    /// L1 cache statistics.
    pub fn l1_stats(&self) -> &gwc_mem::CacheStats {
        self.l1.stats()
    }

    /// Cumulative `(accesses, hits)` pairs for the L0 and L1 caches, in
    /// that order — the compact form telemetry samples every frame.
    pub fn cache_hit_counts(&self) -> [(u64, u64); 2] {
        let l0 = self.l0.stats();
        let l1 = self.l1.stats();
        [(l0.accesses, l0.hits), (l1.accesses, l1.hits)]
    }

    /// Filtering statistics (requests, bilinear samples).
    pub fn sample_stats(&self) -> &SampleStats {
        &self.stats
    }

    /// Takes and resets the filtering statistics (frame boundary).
    pub fn take_sample_stats(&mut self) -> SampleStats {
        std::mem::take(&mut self.stats)
    }

    /// Resets cache statistics without flushing contents.
    pub fn reset_cache_stats(&mut self) {
        self.l0.reset_stats();
        self.l1.reset_stats();
    }

    /// The L0 and L1 caches (checkpoint serialization).
    pub(crate) fn caches(&self) -> (&Cache, &Cache) {
        (&self.l0, &self.l1)
    }

    /// Replaces the L0 and L1 caches (checkpoint restore).
    pub(crate) fn restore_caches(&mut self, l0: Cache, l1: Cache) {
        self.l0 = l0;
        self.l1 = l1;
    }
}

/// Tracker wiring filter texel fetches through L0 → L1 → memory.
struct HierarchyTracker<'a> {
    l0: &'a mut Cache,
    l1: &'a mut Cache,
    mem: &'a mut MemoryController,
}

impl TexelTracker for HierarchyTracker<'_> {
    fn fetch(&mut self, address: TexelAddress) {
        if self.l0.access(address.uncompressed, AccessKind::Read) {
            return;
        }
        if self.l1.access(address.compressed, AccessKind::Read) {
            return;
        }
        let line = self.l1.config().line_size;
        self.mem.read(MemClient::Texture, line);
    }
}

/// The [`QuadSampler`] the shader interpreter talks to during fragment
/// shading: resolves texture-unit bindings and drives the cache hierarchy.
pub(crate) struct BoundSampler<'a> {
    pub bindings: &'a HashMap<u8, u32>,
    pub pool: &'a HashMap<u32, (Texture, SamplerState)>,
    pub unit: &'a mut TextureUnit,
    pub mem: &'a mut MemoryController,
    /// First unbound-texture fault hit during shading; the shader keeps
    /// running on the debug color, the pipeline classifies the quad after
    /// the program returns.
    pub fault: Option<SimError>,
}

impl QuadSampler for BoundSampler<'_> {
    fn sample_quad(&mut self, request: &TextureRequest) -> [Vec4; 4] {
        let Some(id) = self.bindings.get(&request.unit) else {
            // Unbound unit: GL returns opaque black-ish undefined; use a
            // recognizable debug magenta.
            self.fault.get_or_insert(SimError::UnboundResource {
                kind: "texture-unit",
                id: request.unit as u32,
            });
            return [Vec4::new(1.0, 0.0, 1.0, 1.0); 4];
        };
        let Some((texture, sampler)) = self.pool.get(id) else {
            self.fault
                .get_or_insert(SimError::UnboundResource { kind: "texture", id: *id });
            return [Vec4::new(1.0, 0.0, 1.0, 1.0); 4];
        };
        let mut tracker =
            HierarchyTracker { l0: &mut self.unit.l0, l1: &mut self.unit.l1, mem: self.mem };
        sampler.sample_quad(
            texture,
            &request.coords,
            request.projective,
            request.lod_bias,
            request.active,
            &mut tracker,
            &mut self.unit.stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_mem::AddressSpace;
    use gwc_texture::{FilterMode, Image, TexFormat, WrapMode};

    type TexturePool = HashMap<u32, (Texture, SamplerState)>;

    fn setup() -> (TextureUnit, MemoryController, HashMap<u8, u32>, TexturePool) {
        let unit = TextureUnit::new();
        let mem = MemoryController::new();
        let mut vram = AddressSpace::new();
        let img = Image::noise(64, 64, 1);
        let tex = Texture::from_image(&img, TexFormat::Dxt1, true, &mut vram);
        let sampler = SamplerState { wrap: WrapMode::Repeat, filter: FilterMode::Bilinear, lod_bias: 0.0 };
        let mut pool = HashMap::new();
        pool.insert(42u32, (tex, sampler));
        let mut bindings = HashMap::new();
        bindings.insert(0u8, 42u32);
        (unit, mem, bindings, pool)
    }

    fn quad_request(u: f32, v: f32) -> TextureRequest {
        let c = |du: f32, dv: f32| Vec4::new(u + du / 64.0, v + dv / 64.0, 0.0, 1.0);
        TextureRequest {
            unit: 0,
            coords: [c(0.0, 0.0), c(1.0, 0.0), c(0.0, 1.0), c(1.0, 1.0)],
            lod_bias: 0.0,
            projective: false,
            active: [true; 4],
        }
    }

    #[test]
    fn sampling_generates_cache_traffic() {
        let (mut unit, mut mem, bindings, pool) = setup();
        {
            let mut s = BoundSampler { bindings: &bindings, pool: &pool, unit: &mut unit, mem: &mut mem, fault: None };
            s.sample_quad(&quad_request(0.5, 0.5));
        }
        assert!(unit.l0_stats().accesses >= 16, "4 lanes x 4 texels");
        assert_eq!(unit.sample_stats().requests, 4);
    }

    #[test]
    fn repeated_sampling_hits_l0() {
        let (mut unit, mut mem, bindings, pool) = setup();
        for _ in 0..50 {
            let mut s = BoundSampler { bindings: &bindings, pool: &pool, unit: &mut unit, mem: &mut mem, fault: None };
            s.sample_quad(&quad_request(0.5, 0.5));
        }
        assert!(unit.l0_stats().hit_rate() > 0.9, "hit rate {}", unit.l0_stats().hit_rate());
        // Memory traffic bounded: only the cold misses reached GDDR.
        assert!(mem.current_frame().client(MemClient::Texture).read <= 8 * 64);
    }

    #[test]
    fn l1_catches_l0_conflicts() {
        let (mut unit, mut mem, bindings, pool) = setup();
        // Sweep the whole texture so L0 (4 KB) thrashes but L1 (16 KB,
        // compressed DXT1: the 64x64 level is 2 KB) retains everything.
        for pass in 0..2 {
            for y in 0..16 {
                for x in 0..16 {
                    let mut s = BoundSampler { bindings: &bindings, pool: &pool, unit: &mut unit, mem: &mut mem, fault: None };
                    s.sample_quad(&quad_request(x as f32 / 16.0, y as f32 / 16.0));
                }
            }
            if pass == 0 {
                unit.reset_cache_stats();
                // Keep only second-pass stats.
            }
        }
        assert!(unit.l1_stats().hit_rate() > 0.9, "L1 hit rate {}", unit.l1_stats().hit_rate());
    }

    #[test]
    fn unbound_unit_returns_magenta() {
        let (mut unit, mut mem, _bindings, pool) = setup();
        let empty = HashMap::new();
        let mut s = BoundSampler { bindings: &empty, pool: &pool, unit: &mut unit, mem: &mut mem, fault: None };
        let out = s.sample_quad(&quad_request(0.5, 0.5));
        assert_eq!(out[0], Vec4::new(1.0, 0.0, 1.0, 1.0));
        assert!(matches!(s.fault, Some(SimError::UnboundResource { kind: "texture-unit", .. })));
    }

    #[test]
    fn inactive_lanes_fetch_nothing() {
        let (mut unit, mut mem, bindings, pool) = setup();
        let mut req = quad_request(0.5, 0.5);
        req.active = [false; 4];
        {
            let mut s = BoundSampler { bindings: &bindings, pool: &pool, unit: &mut unit, mem: &mut mem, fault: None };
            s.sample_quad(&req);
        }
        assert_eq!(unit.l0_stats().accesses, 0);
        assert_eq!(unit.sample_stats().requests, 0);
    }
}
