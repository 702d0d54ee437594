//! Hierarchical Z: on-die per-block depth bounds for early quad rejection.
//!
//! The paper (Section III.C) describes the two-phase z test of modern GPUs:
//! a Hierarchical Z stage "accessing only on-die memory" rejects fragments
//! wholesale before the per-pixel z & stencil stage touches GPU memory.
//! Table IX credits HZ with removing 34–42% of all quads, saving
//! "quite significant" GDDR bandwidth.

use crate::state::CompareFunc;
use crate::zbuffer::{DepthStencilBuffer, ZBandView};

/// The Hierarchical-Z buffer: one conservative *maximum depth* per 8×8
/// pixel block, held on-die.
///
/// The bound is refreshed lazily from the real depth buffer: a z-write
/// marks the block dirty, and the next HZ test against a dirty block
/// recomputes the bound (modelling the z-cache → HZ feedback path of real
/// hardware).
#[derive(Debug, Clone, PartialEq)]
pub struct HzBuffer {
    blocks_x: u32,
    blocks_y: u32,
    max_z: Vec<f32>,
    dirty: Vec<bool>,
    tested: u64,
    rejected: u64,
}

impl HzBuffer {
    /// Creates an HZ buffer for a `width × height` render target, cleared
    /// to depth 1.0.
    pub fn new(width: u32, height: u32) -> Self {
        let blocks_x = width.div_ceil(8);
        let blocks_y = height.div_ceil(8);
        let n = (blocks_x * blocks_y) as usize;
        HzBuffer { blocks_x, blocks_y, max_z: vec![1.0; n], dirty: vec![false; n], tested: 0, rejected: 0 }
    }

    /// Resets all blocks to the clear depth.
    pub fn clear(&mut self, depth: f32) {
        self.max_z.fill(depth);
        self.dirty.fill(false);
    }

    #[inline]
    fn block_index(&self, x: u32, y: u32) -> usize {
        ((y / 8) * self.blocks_x + (x / 8)) as usize
    }

    /// Marks the block containing `(x, y)` dirty after a depth write.
    #[inline]
    pub fn note_depth_write(&mut self, x: u32, y: u32) {
        let i = self.block_index(x, y);
        self.dirty[i] = true;
    }

    /// The complete state — per-block max depth, dirty flags, and the
    /// test/reject counters — for checkpointing.
    pub fn snapshot(&self) -> (&[f32], &[bool], u64, u64) {
        (&self.max_z, &self.dirty, self.tested, self.rejected)
    }

    /// Rebuilds an HZ buffer from a [`HzBuffer::snapshot`] (checkpoint
    /// restore).
    ///
    /// # Panics
    ///
    /// Panics if the block arrays do not cover the surface.
    pub fn restore(
        width: u32,
        height: u32,
        max_z: Vec<f32>,
        dirty: Vec<bool>,
        tested: u64,
        rejected: u64,
    ) -> Self {
        let mut hz = HzBuffer::new(width, height);
        assert!(
            max_z.len() == hz.max_z.len() && dirty.len() == hz.dirty.len(),
            "block count mismatch"
        );
        hz.max_z = max_z;
        hz.dirty = dirty;
        hz.tested = tested;
        hz.rejected = rejected;
        hz
    }

    /// Tests a quad at `(x, y)` whose minimum incoming depth is `min_z`.
    ///
    /// Returns `false` when the quad is *provably* invisible (every
    /// fragment would fail the depth test) — the quad is culled without
    /// touching GPU memory. HZ can only reason about `Less`/`LessEqual`
    /// comparisons; for other functions it conservatively passes, matching
    /// the paper's note that HZ "may be disabled for some z and stencil
    /// modes".
    ///
    /// `zbuf` supplies the ground-truth depths for lazily refreshing dirty
    /// blocks.
    pub fn test_quad(
        &mut self,
        x: u32,
        y: u32,
        min_z: f32,
        func: CompareFunc,
        zbuf: &DepthStencilBuffer,
    ) -> bool {
        self.tested += 1;
        // `Equal` is rejectable too: when every incoming depth exceeds the
        // block's maximum stored depth, no fragment can be equal.
        let rejectable =
            matches!(func, CompareFunc::Less | CompareFunc::LessEqual | CompareFunc::Equal);
        if !rejectable {
            return true;
        }
        let i = self.block_index(x, y);
        if self.dirty[i] {
            self.max_z[i] = zbuf.block_max_depth(x, y);
            self.dirty[i] = false;
        }
        let bound = self.max_z[i];
        let fails = match func {
            CompareFunc::Less => min_z >= bound,
            CompareFunc::LessEqual | CompareFunc::Equal => min_z > bound,
            _ => false,
        };
        if fails {
            self.rejected += 1;
            return false;
        }
        true
    }

    /// Quads tested so far.
    pub fn tested(&self) -> u64 {
        self.tested
    }

    /// Quads rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Fraction of tested quads rejected (Table IX's HZ column).
    pub fn rejection_rate(&self) -> f64 {
        if self.tested == 0 {
            0.0
        } else {
            self.rejected as f64 / self.tested as f64
        }
    }

    /// Resets the test counters (frame boundary) without touching bounds.
    pub fn reset_stats(&mut self) {
        self.tested = 0;
        self.rejected = 0;
    }

    /// On-die storage footprint in bytes (one f32 bound per block; real
    /// hardware packs this tighter).
    pub fn on_die_bytes(&self) -> u64 {
        self.max_z.len() as u64 * 4
    }

    /// Adds per-band test/reject counts gathered by [`HzBandView`]s back
    /// into the master counters (u64 sums: order-independent).
    pub fn add_counts(&mut self, tested: u64, rejected: u64) {
        self.tested += tested;
        self.rejected += rejected;
    }

    /// Splits the HZ block grid into disjoint mutable views over horizontal
    /// bands of `band_rows` pixel rows each, for the stripe-parallel
    /// fragment pipeline. Each view carries its own test/reject counters;
    /// fold them back with [`HzBuffer::add_counts`].
    ///
    /// # Panics
    ///
    /// Panics if `band_rows` is zero or not a multiple of the 8-pixel block
    /// height.
    pub fn band_views(&mut self, band_rows: u32) -> Vec<HzBandView<'_>> {
        assert!(band_rows > 0 && band_rows.is_multiple_of(8), "band rows must be a multiple of 8");
        let blocks_x = self.blocks_x;
        let chunk = ((band_rows / 8) * blocks_x) as usize;
        self.max_z
            .chunks_mut(chunk.max(1))
            .zip(self.dirty.chunks_mut(chunk.max(1)))
            .enumerate()
            .map(|(i, (max_z, dirty))| HzBandView {
                blocks_x,
                y0: i as u32 * band_rows,
                max_z,
                dirty,
                tested: 0,
                rejected: 0,
            })
            .collect()
    }
}

/// A mutable view of one horizontal band of an [`HzBuffer`], with private
/// test/reject counters so parallel workers never contend.
///
/// Accessors take *global* pixel coordinates.
#[derive(Debug)]
pub struct HzBandView<'a> {
    blocks_x: u32,
    y0: u32,
    max_z: &'a mut [f32],
    dirty: &'a mut [bool],
    tested: u64,
    rejected: u64,
}

impl HzBandView<'_> {
    #[inline]
    fn block_index(&self, x: u32, y: u32) -> usize {
        debug_assert!(y >= self.y0, "pixel row {y} above band starting at {}", self.y0);
        let i = (((y - self.y0) / 8) * self.blocks_x + (x / 8)) as usize;
        debug_assert!(i < self.max_z.len(), "pixel ({x},{y}) outside band");
        i
    }

    /// Marks the block containing `(x, y)` dirty after a depth write.
    #[inline]
    pub fn note_depth_write(&mut self, x: u32, y: u32) {
        let i = self.block_index(x, y);
        self.dirty[i] = true;
    }

    /// Tests a quad; see [`HzBuffer::test_quad`]. Dirty blocks refresh from
    /// the band's own slice of the depth buffer.
    pub fn test_quad(
        &mut self,
        x: u32,
        y: u32,
        min_z: f32,
        func: CompareFunc,
        zbuf: &ZBandView<'_>,
    ) -> bool {
        self.tested += 1;
        let rejectable =
            matches!(func, CompareFunc::Less | CompareFunc::LessEqual | CompareFunc::Equal);
        if !rejectable {
            return true;
        }
        let i = self.block_index(x, y);
        if self.dirty[i] {
            self.max_z[i] = zbuf.block_max_depth(x, y);
            self.dirty[i] = false;
        }
        let bound = self.max_z[i];
        let fails = match func {
            CompareFunc::Less => min_z >= bound,
            CompareFunc::LessEqual | CompareFunc::Equal => min_z > bound,
            _ => false,
        };
        if fails {
            self.rejected += 1;
            return false;
        }
        true
    }

    /// Quads tested through this view.
    pub fn tested(&self) -> u64 {
        self.tested
    }

    /// Quads rejected through this view.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// `(tested, rejected)` in one call, for telemetry span arguments.
    pub fn counts(&self) -> (u64, u64) {
        (self.tested, self.rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{DepthState, StencilState};

    fn write_block(zb: &mut DepthStencilBuffer, hz: &mut HzBuffer, x0: u32, y0: u32, z: f32) {
        let ds = DepthState::default();
        let ss = StencilState::default();
        for y in y0..y0 + 8 {
            for x in x0..x0 + 8 {
                zb.test_and_update(x, y, z, &ds, &ss);
                hz.note_depth_write(x, y);
            }
        }
    }

    #[test]
    fn clear_buffer_rejects_nothing() {
        let zb = DepthStencilBuffer::new(32, 32);
        let mut hz = HzBuffer::new(32, 32);
        assert!(hz.test_quad(4, 4, 0.5, CompareFunc::Less, &zb));
        assert_eq!(hz.rejected(), 0);
    }

    #[test]
    fn occluded_quad_rejected_after_refresh() {
        let mut zb = DepthStencilBuffer::new(32, 32);
        let mut hz = HzBuffer::new(32, 32);
        write_block(&mut zb, &mut hz, 0, 0, 0.3);
        // A quad behind the occluder: min_z 0.5 >= block max 0.3.
        assert!(!hz.test_quad(2, 2, 0.5, CompareFunc::Less, &zb));
        // A quad in front passes.
        assert!(hz.test_quad(2, 2, 0.1, CompareFunc::Less, &zb));
        assert_eq!(hz.tested(), 2);
        assert_eq!(hz.rejected(), 1);
        assert!((hz.rejection_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_block_keeps_conservative_bound() {
        let mut zb = DepthStencilBuffer::new(32, 32);
        let mut hz = HzBuffer::new(32, 32);
        // Write only half the block: max depth stays 1.0 (clear) so nothing
        // at z < 1.0 can be rejected.
        let ds = DepthState::default();
        let ss = StencilState::default();
        for y in 0..4 {
            for x in 0..8 {
                zb.test_and_update(x, y, 0.2, &ds, &ss);
                hz.note_depth_write(x, y);
            }
        }
        assert!(hz.test_quad(0, 0, 0.9, CompareFunc::Less, &zb));
    }

    #[test]
    fn non_less_funcs_never_reject() {
        let mut zb = DepthStencilBuffer::new(16, 16);
        let mut hz = HzBuffer::new(16, 16);
        write_block(&mut zb, &mut hz, 0, 0, 0.1);
        assert!(hz.test_quad(0, 0, 0.9, CompareFunc::Always, &zb));
        assert!(hz.test_quad(0, 0, 0.9, CompareFunc::Greater, &zb));
        assert!(hz.test_quad(0, 0, 0.9, CompareFunc::NotEqual, &zb));
    }

    #[test]
    fn equal_func_rejects_impossible_quads() {
        let mut zb = DepthStencilBuffer::new(16, 16);
        let mut hz = HzBuffer::new(16, 16);
        write_block(&mut zb, &mut hz, 0, 0, 0.3);
        // min_z above the block max: equality impossible.
        assert!(!hz.test_quad(0, 0, 0.9, CompareFunc::Equal, &zb));
        // min_z at/below the bound: must pass.
        assert!(hz.test_quad(0, 0, 0.3, CompareFunc::Equal, &zb));
        assert!(hz.test_quad(0, 0, 0.1, CompareFunc::Equal, &zb));
    }

    #[test]
    fn lequal_boundary() {
        let mut zb = DepthStencilBuffer::new(16, 16);
        let mut hz = HzBuffer::new(16, 16);
        write_block(&mut zb, &mut hz, 0, 0, 0.5);
        // Equal depth passes LessEqual but fails Less.
        assert!(hz.test_quad(0, 0, 0.5, CompareFunc::LessEqual, &zb));
        assert!(!hz.test_quad(0, 0, 0.5, CompareFunc::Less, &zb));
    }

    #[test]
    fn clear_resets_bounds() {
        let mut zb = DepthStencilBuffer::new(16, 16);
        let mut hz = HzBuffer::new(16, 16);
        write_block(&mut zb, &mut hz, 0, 0, 0.1);
        assert!(!hz.test_quad(0, 0, 0.5, CompareFunc::Less, &zb));
        zb.clear(1.0, 0);
        hz.clear(1.0);
        assert!(hz.test_quad(0, 0, 0.5, CompareFunc::Less, &zb));
    }

    #[test]
    fn never_rejects_visible_fragments() {
        // Safety property: if any pixel in the block would pass, HZ must
        // pass the quad.
        let mut zb = DepthStencilBuffer::new(16, 16);
        let mut hz = HzBuffer::new(16, 16);
        write_block(&mut zb, &mut hz, 0, 0, 0.4);
        // One pixel is farther, creating a visible hole at 0.45.
        zb.test_and_update(3, 3, 0.41, &DepthState { test: false, write: false, func: CompareFunc::Always }, &StencilState::default());
        // min_z 0.39 < bound -> must pass.
        assert!(hz.test_quad(0, 0, 0.39, CompareFunc::Less, &zb));
    }

    #[test]
    fn band_views_match_whole_buffer() {
        // The same writes + tests through bands give identical decisions,
        // bounds and (summed) counters as the whole-surface path.
        let mut zb_w = DepthStencilBuffer::new(16, 32);
        let mut hz_w = HzBuffer::new(16, 32);
        write_block(&mut zb_w, &mut hz_w, 0, 0, 0.3);
        write_block(&mut zb_w, &mut hz_w, 8, 24, 0.6);

        let mut zb_b = DepthStencilBuffer::new(16, 32);
        let mut hz_b = HzBuffer::new(16, 32);
        {
            let mut zbands = zb_b.band_views(16);
            let mut hbands = hz_b.band_views(16);
            let d = DepthState::default();
            let s = StencilState::default();
            for (x0, y0, z) in [(0u32, 0u32, 0.3f32), (8, 24, 0.6)] {
                let bi = (y0 / 16) as usize;
                for y in y0..y0 + 8 {
                    for x in x0..x0 + 8 {
                        zbands[bi].test_and_update(x, y, z, &d, &s);
                        hbands[bi].note_depth_write(x, y);
                    }
                }
            }
            for (x, y, min_z, func) in [
                (2u32, 2u32, 0.5f32, CompareFunc::Less),
                (2, 2, 0.1, CompareFunc::Less),
                (10, 26, 0.7, CompareFunc::LessEqual),
                (10, 26, 0.7, CompareFunc::Always),
            ] {
                let bi = (y / 16) as usize;
                assert_eq!(
                    hbands[bi].test_quad(x, y, min_z, func, &zbands[bi]),
                    hz_w.test_quad(x, y, min_z, func, &zb_w),
                    "decision mismatch at ({x},{y})"
                );
            }
            let (tested, rejected) =
                hbands.iter().fold((0, 0), |(t, r), b| (t + b.tested(), r + b.rejected()));
            hz_b.add_counts(tested, rejected);
        }
        assert_eq!(hz_b.tested(), hz_w.tested());
        assert_eq!(hz_b.rejected(), hz_w.rejected());
        assert_eq!(hz_b.snapshot().0, hz_w.snapshot().0, "refreshed bounds identical");
        assert_eq!(hz_b.snapshot().1, hz_w.snapshot().1, "dirty flags identical");
    }

    #[test]
    fn on_die_footprint_small() {
        let hz = HzBuffer::new(1024, 768);
        // 128x96 blocks * 4B = 48 KB on-die.
        assert_eq!(hz.on_die_bytes(), 128 * 96 * 4);
    }
}
