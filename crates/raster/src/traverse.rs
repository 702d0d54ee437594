//! Recursive tiled traversal: 16×16 tiles → 8×8 tiles → 2×2 quads.
//!
//! ATTILA "implements a recursive rasterization algorithm … that works at
//! two different tile levels: an upper level with a 16×16 footprint and at
//! a lower level generating each cycle 8×8 fragment tiles. These tiles are
//! then … partitioned into 2×2 fragment tiles, called quads."

use crate::setup::TriangleSetup;
use crate::vertex::Viewport;

/// A 2×2 fragment quad, the working unit of the fragment pipeline.
///
/// Lane order is `[(x,y), (x+1,y), (x,y+1), (x+1,y+1)]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quad {
    /// X of the top-left pixel (always even).
    pub x: u32,
    /// Y of the top-left pixel (always even).
    pub y: u32,
    /// Which lanes are covered by the triangle.
    pub coverage: [bool; 4],
    /// Interpolated depth per lane (valid for covered lanes; helper lanes
    /// get extrapolated values).
    pub depth: [f32; 4],
}

impl Quad {
    /// Number of covered fragments.
    pub fn covered_count(&self) -> u32 {
        self.coverage.iter().map(|&c| c as u32).sum()
    }

    /// `true` when all four lanes are covered (Table X's "complete quad").
    pub fn is_complete(&self) -> bool {
        self.coverage.iter().all(|&c| c)
    }

    /// Pixel coordinates of a lane.
    #[inline]
    pub fn lane_pos(&self, lane: usize) -> (u32, u32) {
        (self.x + (lane as u32 & 1), self.y + (lane as u32 >> 1))
    }
}

/// Counters produced by rasterizing triangles (per frame or per batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RasterStats {
    /// Covered fragments generated.
    pub fragments: u64,
    /// Quads emitted (with at least one covered lane).
    pub quads: u64,
    /// Quads with all four lanes covered.
    pub complete_quads: u64,
    /// 16×16 tiles visited.
    pub tiles16: u64,
    /// 8×8 tiles visited (after the upper-level reject).
    pub tiles8: u64,
}

impl RasterStats {
    /// Merges another stats record.
    pub fn merge(&mut self, other: &RasterStats) {
        self.fragments += other.fragments;
        self.quads += other.quads;
        self.complete_quads += other.complete_quads;
        self.tiles16 += other.tiles16;
        self.tiles8 += other.tiles8;
    }

    /// Tiles visited at either traversal level.
    pub fn tiles_visited(&self) -> u64 {
        self.tiles16 + self.tiles8
    }

    /// Quad efficiency: fraction of emitted quads that are complete
    /// (Table X).
    pub fn quad_efficiency(&self) -> f64 {
        if self.quads == 0 {
            0.0
        } else {
            self.complete_quads as f64 / self.quads as f64
        }
    }
}

/// `true` when the tile `[x0, x0+size) × [y0, y0+size)` might intersect the
/// triangle: no edge has all four tile corners strictly outside.
fn tile_may_overlap(setup: &TriangleSetup, x0: f64, y0: f64, size: f64) -> bool {
    let corners = [
        (x0, y0),
        (x0 + size, y0),
        (x0, y0 + size),
        (x0 + size, y0 + size),
    ];
    'edges: for i in 0..3 {
        for &(cx, cy) in &corners {
            if setup.edges_at(cx, cy)[i] >= 0.0 {
                continue 'edges;
            }
        }
        return false;
    }
    true
}

/// Rasterizes one triangle, emitting quads through `emit` and accumulating
/// statistics.
///
/// Traversal proceeds over 16×16 tiles covering the triangle's bounding box
/// (clamped to the viewport), descends into 8×8 tiles that survive the
/// edge-equation reject, and finally tests the four pixel centers of each
/// 2×2 quad. Quads with zero coverage are not emitted.
pub fn rasterize<F: FnMut(&Quad)>(
    setup: &TriangleSetup,
    vp: &Viewport,
    stats: &mut RasterStats,
    emit: &mut F,
) {
    rasterize_band(setup, vp, 0, vp.height, stats, emit);
}

/// Rasterizes the part of one triangle falling in pixel rows `[y0, y1)`.
///
/// `y0` must be 16-aligned so that 16×16 tiles (and the 8×8 tiles and 2×2
/// quads inside them) never straddle a band boundary; `y1` is either
/// 16-aligned or the viewport height. Under that contract, summing the
/// quads and statistics of a disjoint set of bands covering the viewport is
/// *exactly* [`rasterize`] over the whole viewport — each 16×16 tile row
/// belongs to precisely one band. This is what lets the stripe-parallel
/// fragment pipeline reproduce the serial path bit for bit.
pub fn rasterize_band<F: FnMut(&Quad)>(
    setup: &TriangleSetup,
    vp: &Viewport,
    y0: u32,
    y1: u32,
    stats: &mut RasterStats,
    emit: &mut F,
) {
    debug_assert!(y0.is_multiple_of(16), "band start must be 16-aligned");
    debug_assert!(y1.is_multiple_of(16) || y1 == vp.height, "band end must be 16-aligned or the bottom");
    if y1 <= y0 {
        return;
    }
    let Some((bx0, by0, bx1, by1)) = setup.pixel_bounds(vp) else {
        return;
    };
    let tx0 = bx0 / 16;
    let ty0 = (by0 / 16).max(y0 / 16);
    let tx1 = bx1 / 16;
    let ty1 = (by1 / 16).min((y1 - 1) / 16);
    if ty0 > ty1 {
        return;
    }
    for ty in ty0..=ty1 {
        for tx in tx0..=tx1 {
            stats.tiles16 += 1;
            let px = (tx * 16) as f64;
            let py = (ty * 16) as f64;
            if !tile_may_overlap(setup, px, py, 16.0) {
                continue;
            }
            // Descend into the four 8x8 subtiles.
            for sy in 0..2u32 {
                for sx in 0..2u32 {
                    let sx0 = tx * 16 + sx * 8;
                    let sy0 = ty * 16 + sy * 8;
                    if sx0 > bx1 || sy0 > by1 || sx0 + 8 <= bx0 || sy0 + 8 <= by0 {
                        continue;
                    }
                    stats.tiles8 += 1;
                    if !tile_may_overlap(setup, sx0 as f64, sy0 as f64, 8.0) {
                        continue;
                    }
                    emit_quads_in_tile(setup, vp, sx0, sy0, stats, emit);
                }
            }
        }
    }
}

fn emit_quads_in_tile<F: FnMut(&Quad)>(
    setup: &TriangleSetup,
    vp: &Viewport,
    tile_x: u32,
    tile_y: u32,
    stats: &mut RasterStats,
    emit: &mut F,
) {
    for qy in 0..4u32 {
        for qx in 0..4u32 {
            let x = tile_x + qx * 2;
            let y = tile_y + qy * 2;
            if x >= vp.width || y >= vp.height {
                continue;
            }
            let mut coverage = [false; 4];
            let mut depth = [0f32; 4];
            let mut any = false;
            for lane in 0..4usize {
                let lx = x + (lane as u32 & 1);
                let ly = y + (lane as u32 >> 1);
                let inside_vp = lx < vp.width && ly < vp.height;
                let covered = inside_vp && setup.covers(lx, ly);
                coverage[lane] = covered;
                depth[lane] = setup.depth_at(lx, ly).clamp(0.0, 1.0);
                any |= covered;
            }
            if any {
                let q = Quad { x, y, coverage, depth };
                stats.quads += 1;
                stats.fragments += q.covered_count() as u64;
                if q.is_complete() {
                    stats.complete_quads += 1;
                }
                emit(&q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::ShadedVertex;
    use gwc_math::Vec4;

    fn vert(x: f32, y: f32, z: f32) -> ShadedVertex {
        ShadedVertex::at(Vec4::new(x, y, z, 1.0))
    }

    fn raster_all(tri: &[ShadedVertex; 3], vp: &Viewport) -> (Vec<Quad>, RasterStats) {
        let setup = TriangleSetup::new(tri, vp).expect("non-degenerate");
        let mut quads = Vec::new();
        let mut stats = RasterStats::default();
        rasterize(&setup, vp, &mut stats, &mut |q| quads.push(*q));
        (quads, stats)
    }

    #[test]
    fn fullscreen_quad_covers_everything() {
        let vp = Viewport::new(64, 64);
        // Two triangles covering the full NDC square, rasterized separately.
        let t0 = [vert(-1.0, -1.0, 0.0), vert(1.0, -1.0, 0.0), vert(1.0, 1.0, 0.0)];
        let t1 = [vert(-1.0, -1.0, 0.0), vert(1.0, 1.0, 0.0), vert(-1.0, 1.0, 0.0)];
        let (_, s0) = raster_all(&t0, &vp);
        let (_, s1) = raster_all(&t1, &vp);
        assert_eq!(s0.fragments + s1.fragments, 64 * 64);
    }

    #[test]
    fn fragments_match_brute_force() {
        let vp = Viewport::new(128, 128);
        let tri = [vert(-0.8, -0.3, 0.0), vert(0.9, -0.7, 0.0), vert(0.1, 0.8, 0.0)];
        let setup = TriangleSetup::new(&tri, &vp).unwrap();
        let mut brute = 0u64;
        for y in 0..128 {
            for x in 0..128 {
                if setup.covers(x, y) {
                    brute += 1;
                }
            }
        }
        let (_, stats) = raster_all(&tri, &vp);
        assert_eq!(stats.fragments, brute);
    }

    #[test]
    fn no_duplicate_pixels() {
        let vp = Viewport::new(64, 64);
        let tri = [vert(-0.9, -0.9, 0.0), vert(0.9, -0.5, 0.0), vert(0.0, 0.9, 0.0)];
        let (quads, _) = raster_all(&tri, &vp);
        let mut seen = std::collections::HashSet::new();
        for q in &quads {
            for lane in 0..4 {
                if q.coverage[lane] {
                    assert!(seen.insert(q.lane_pos(lane)), "duplicate pixel {:?}", q.lane_pos(lane));
                }
            }
        }
    }

    #[test]
    fn quad_positions_even() {
        let vp = Viewport::new(64, 64);
        let tri = [vert(-0.3, -0.3, 0.0), vert(0.3, -0.3, 0.0), vert(0.0, 0.4, 0.0)];
        let (quads, _) = raster_all(&tri, &vp);
        assert!(!quads.is_empty());
        for q in &quads {
            assert_eq!(q.x % 2, 0);
            assert_eq!(q.y % 2, 0);
        }
    }

    #[test]
    fn quad_efficiency_high_for_large_triangle() {
        let vp = Viewport::new(256, 256);
        let tri = [vert(-0.9, -0.9, 0.0), vert(0.9, -0.9, 0.0), vert(0.0, 0.9, 0.0)];
        let (_, stats) = raster_all(&tri, &vp);
        // Large triangles have mostly interior quads (paper Table X: >90%).
        assert!(stats.quad_efficiency() > 0.85, "efficiency = {}", stats.quad_efficiency());
    }

    #[test]
    fn quad_efficiency_low_for_sliver() {
        let vp = Viewport::new(256, 256);
        // A 1-pixel-wide sliver.
        let tri = [vert(-0.9, -0.9, 0.0), vert(-0.89, -0.9, 0.0), vert(0.9, 0.9, 0.0)];
        let (_, stats) = raster_all(&tri, &vp);
        assert!(stats.quad_efficiency() < 0.5, "efficiency = {}", stats.quad_efficiency());
    }

    #[test]
    fn tiny_triangle_single_quad() {
        let vp = Viewport::new(64, 64);
        // Sub-pixel triangle fully inside quad (32,32): pixel x,y in
        // (32.3, 33.0) after the viewport transform.
        let tri = [
            vert(0.01, -0.01, 0.0),
            vert(0.03, -0.01, 0.0),
            vert(0.02, -0.03, 0.0),
        ];
        let (quads, stats) = raster_all(&tri, &vp);
        assert_eq!(quads.len(), 1, "{} quads", quads.len());
        assert_eq!((quads[0].x, quads[0].y), (32, 32));
        assert!(stats.fragments >= 1 && stats.fragments <= 2);
        assert!(!quads[0].is_complete());
    }

    #[test]
    fn offscreen_triangle_emits_nothing() {
        let vp = Viewport::new(64, 64);
        let tri = [vert(3.0, 3.0, 0.0), vert(4.0, 3.0, 0.0), vert(3.0, 4.0, 0.0)];
        let (quads, stats) = raster_all(&tri, &vp);
        assert!(quads.is_empty());
        assert_eq!(stats.fragments, 0);
    }

    #[test]
    fn hierarchical_reject_skips_tiles() {
        let vp = Viewport::new(256, 256);
        // A thin diagonal triangle: its bbox spans many tiles, most rejected
        // at the 16x16 level.
        let tri = [vert(-0.9, -0.9, 0.0), vert(-0.85, -0.9, 0.0), vert(0.9, 0.9, 0.0)];
        let (_, stats) = raster_all(&tri, &vp);
        // 8x8 descents should be well below 4x the visited 16x16 tiles.
        assert!(stats.tiles8 < stats.tiles16 * 4, "{} vs {}", stats.tiles8, stats.tiles16);
    }

    #[test]
    fn banded_rasterization_equals_whole_viewport() {
        let vp = Viewport::new(128, 120); // bottom band ends at the viewport edge
        let tris = [
            [vert(-0.8, -0.3, 0.0), vert(0.9, -0.7, 0.0), vert(0.1, 0.8, 0.0)],
            [vert(-0.9, -0.9, 0.0), vert(-0.85, -0.9, 0.0), vert(0.9, 0.9, 0.0)],
            [vert(0.01, -0.01, 0.0), vert(0.03, -0.01, 0.0), vert(0.02, -0.03, 0.0)],
        ];
        for band_rows in [16u32, 32, 48, 128] {
            for tri in &tris {
                let setup = TriangleSetup::new(tri, &vp).unwrap();
                let mut whole_quads = Vec::new();
                let mut whole_stats = RasterStats::default();
                rasterize(&setup, &vp, &mut whole_stats, &mut |q| whole_quads.push(*q));

                let mut band_quads = Vec::new();
                let mut band_stats = RasterStats::default();
                let mut y = 0;
                while y < vp.height {
                    let y1 = (y + band_rows).min(vp.height);
                    rasterize_band(&setup, &vp, y, y1, &mut band_stats, &mut |q| {
                        assert!(q.y >= y && q.y < y1, "quad at row {} leaked into band {y}..{y1}", q.y);
                        band_quads.push(*q);
                    });
                    y = y1;
                }
                assert_eq!(band_quads, whole_quads, "band_rows={band_rows}");
                assert_eq!(band_stats, whole_stats, "band_rows={band_rows}");
            }
        }
    }

    #[test]
    fn stats_merge() {
        let mut a = RasterStats { fragments: 1, quads: 2, complete_quads: 1, tiles16: 3, tiles8: 4 };
        let b = a;
        a.merge(&b);
        assert_eq!(a.fragments, 2);
        assert_eq!(a.quads, 4);
        assert_eq!(a.tiles8, 8);
    }
}
