//! The depth/stencil buffer with the full test-and-op semantics the
//! stencil-shadow games exercise.

use crate::state::{DepthState, StencilState};

/// Outcome of the combined Z & stencil test for one fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZResult {
    /// Stencil test failed (fragment culled; `fail` op applied).
    StencilFail,
    /// Stencil passed, depth failed (fragment culled; `zfail` op applied —
    /// the hook stencil shadow volumes rely on).
    DepthFail,
    /// Both passed (fragment survives; `pass` op applied, depth written if
    /// enabled).
    Pass,
}

/// A `width × height` depth (f32) + stencil (u8) buffer.
///
/// This is the *architectural state*; bandwidth, caching and compression of
/// the surface are modelled by the pipeline on top. Fragments test and
/// update it only through [`ZBandView`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthStencilBuffer {
    width: u32,
    height: u32,
    depth: Vec<f32>,
    stencil: Vec<u8>,
}

impl DepthStencilBuffer {
    /// Creates a buffer cleared to depth 1.0, stencil 0.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "depth buffer must be non-empty");
        DepthStencilBuffer {
            width,
            height,
            depth: vec![1.0; (width * height) as usize],
            stencil: vec![0; (width * height) as usize],
        }
    }

    /// Buffer width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Clears depth and stencil.
    pub fn clear(&mut self, depth: f32, stencil: u8) {
        self.depth.fill(depth);
        self.stencil.fill(stencil);
    }

    /// Clears only the depth plane (the stencil values survive).
    pub fn clear_depth(&mut self, depth: f32) {
        self.depth.fill(depth);
    }

    /// Clears only the stencil plane — the per-light stencil reset of the
    /// shadow-volume algorithm must not disturb the depth prepass.
    pub fn clear_stencil(&mut self, stencil: u8) {
        self.stencil.fill(stencil);
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y * self.width + x) as usize
    }

    /// Stored depth at a pixel.
    #[inline]
    pub fn depth_at(&self, x: u32, y: u32) -> f32 {
        self.depth[self.index(x, y)]
    }

    /// Stored stencil at a pixel.
    #[inline]
    pub fn stencil_at(&self, x: u32, y: u32) -> u8 {
        self.stencil[self.index(x, y)]
    }

    /// The raw depth and stencil planes, row-major (checkpoint support).
    pub fn planes(&self) -> (&[f32], &[u8]) {
        (&self.depth, &self.stencil)
    }

    /// Rebuilds a buffer from its planes (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if a plane does not cover `width × height` pixels.
    pub fn restore(width: u32, height: u32, depth: Vec<f32>, stencil: Vec<u8>) -> Self {
        let n = (width * height) as usize;
        assert!(depth.len() == n && stencil.len() == n, "plane size mismatch");
        DepthStencilBuffer { width, height, depth, stencil }
    }

    /// Splits the buffer into disjoint mutable views over horizontal bands
    /// of `band_rows` rows each (the last band may be shorter), for the
    /// stripe-parallel fragment pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `band_rows` is zero or not a multiple of the 8-pixel block
    /// height (a compression/HZ block must never straddle two bands).
    pub fn band_views(&mut self, band_rows: u32) -> Vec<ZBandView<'_>> {
        assert!(band_rows > 0 && band_rows.is_multiple_of(8), "band rows must be a multiple of 8");
        let width = self.width;
        let chunk = (band_rows * width) as usize;
        self.depth
            .chunks_mut(chunk)
            .zip(self.stencil.chunks_mut(chunk))
            .enumerate()
            .map(|(i, (depth, stencil))| ZBandView {
                width,
                y0: i as u32 * band_rows,
                rows: (depth.len() / width as usize) as u32,
                depth,
                stencil,
                writes: 0,
            })
            .collect()
    }
}

/// A mutable view of one horizontal band of a [`DepthStencilBuffer`]: the
/// only path that tests, writes or reads blocks of the surface. A band of
/// `height.next_multiple_of(8)` rows covers the whole buffer.
///
/// All accessors take *global* pixel coordinates; in debug builds the view
/// asserts they fall inside its band.
#[derive(Debug)]
pub struct ZBandView<'a> {
    width: u32,
    y0: u32,
    rows: u32,
    depth: &'a mut [f32],
    stencil: &'a mut [u8],
    writes: u64,
}

impl ZBandView<'_> {
    /// First pixel row covered by this band.
    pub fn y0(&self) -> u32 {
        self.y0
    }

    /// Number of pixel rows in this band.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(
            x < self.width && y >= self.y0 && y < self.y0 + self.rows,
            "pixel ({x},{y}) outside band rows {}..{}",
            self.y0,
            self.y0 + self.rows
        );
        ((y - self.y0) * self.width + x) as usize
    }

    /// Stored depth at a global pixel.
    #[inline]
    pub fn depth_at(&self, x: u32, y: u32) -> f32 {
        self.depth[self.index(x, y)]
    }

    /// Stored stencil at a global pixel.
    #[inline]
    pub fn stencil_at(&self, x: u32, y: u32) -> u8 {
        self.stencil[self.index(x, y)]
    }

    /// Runs the combined stencil + depth test for a fragment at global
    /// pixel `(x, y)` with incoming depth `z`, applying stencil ops and the
    /// depth write exactly per the GL pipeline:
    ///
    /// 1. stencil test (masked compare against the reference);
    /// 2. on stencil fail → `fail` op, fragment culled;
    /// 3. depth test (skipped when disabled);
    /// 4. on depth fail → `zfail` op, fragment culled;
    /// 5. otherwise `pass` op and, if depth writes are on, store `z`.
    pub fn test_and_update(
        &mut self,
        x: u32,
        y: u32,
        z: f32,
        ds: &DepthState,
        ss: &StencilState,
    ) -> ZResult {
        let i = self.index(x, y);
        let (depth, stencil) = (&mut self.depth[i], &mut self.stencil[i]);
        if ss.test {
            let stored = *stencil;
            let pass = ss.func.compare(ss.reference & ss.read_mask, stored & ss.read_mask);
            if !pass {
                *stencil = ss.fail.apply(stored, ss.reference);
                return ZResult::StencilFail;
            }
        }
        let depth_pass = !ds.test || ds.func.compare(z, *depth);
        if !depth_pass {
            if ss.test {
                let stored = *stencil;
                *stencil = ss.zfail.apply(stored, ss.reference);
            }
            return ZResult::DepthFail;
        }
        if ss.test {
            let stored = *stencil;
            *stencil = ss.pass.apply(stored, ss.reference);
        }
        if ds.test && ds.write {
            *depth = z;
            self.writes += 1;
        }
        ZResult::Pass
    }

    /// Depth values written through this view (test passes with depth
    /// writes enabled), for telemetry span arguments.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Maximum stored depth within the 8×8 block containing `(x, y)` —
    /// used to refresh the Hierarchical-Z bound.
    pub fn block_max_depth(&self, x: u32, y: u32) -> f32 {
        let bx = (x / 8) * 8;
        let by = (y / 8) * 8;
        let mut m = 0f32;
        for yy in by..(by + 8).min(self.y0 + self.rows) {
            for xx in bx..(bx + 8).min(self.width) {
                m = m.max(self.depth[self.index(xx, yy)]);
            }
        }
        m
    }

    /// Depth values of the 8×8 block containing `(x, y)` in row-major
    /// order, padded with the clear value at surface edges (feeds the z
    /// compressor).
    pub fn block_depths(&self, x: u32, y: u32) -> [f32; 64] {
        let bx = (x / 8) * 8;
        let by = (y / 8) * 8;
        let mut out = [1.0f32; 64];
        for iy in 0..8 {
            for ix in 0..8 {
                let xx = bx + ix;
                let yy = by + iy;
                if xx < self.width && yy < self.y0 + self.rows {
                    out[(iy * 8 + ix) as usize] = self.depth[self.index(xx, yy)];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CompareFunc, StencilOp};

    fn ds() -> DepthState {
        DepthState::default()
    }

    fn no_stencil() -> StencilState {
        StencilState::default()
    }

    /// The one band that covers the whole buffer.
    fn whole(b: &mut DepthStencilBuffer) -> ZBandView<'_> {
        let rows = b.height().next_multiple_of(8);
        let mut bands = b.band_views(rows);
        assert_eq!(bands.len(), 1);
        bands.pop().unwrap()
    }

    #[test]
    fn depth_less_pass_and_write() {
        let mut b = DepthStencilBuffer::new(4, 4);
        let mut v = whole(&mut b);
        assert_eq!(v.test_and_update(1, 1, 0.5, &ds(), &no_stencil()), ZResult::Pass);
        assert_eq!(v.depth_at(1, 1), 0.5);
        // Farther fragment now fails.
        assert_eq!(v.test_and_update(1, 1, 0.7, &ds(), &no_stencil()), ZResult::DepthFail);
        assert_eq!(v.depth_at(1, 1), 0.5);
        assert_eq!(v.writes(), 1);
    }

    #[test]
    fn depth_write_disabled_tests_but_keeps() {
        let mut b = DepthStencilBuffer::new(2, 2);
        let mut v = whole(&mut b);
        let state = DepthState { test: true, write: false, func: CompareFunc::Less };
        assert_eq!(v.test_and_update(0, 0, 0.3, &state, &no_stencil()), ZResult::Pass);
        assert_eq!(v.depth_at(0, 0), 1.0);
        assert_eq!(v.writes(), 0);
    }

    #[test]
    fn depth_test_disabled_always_passes() {
        let mut b = DepthStencilBuffer::new(2, 2);
        let mut v = whole(&mut b);
        v.test_and_update(0, 0, 0.1, &ds(), &no_stencil());
        let state = DepthState { test: false, write: true, func: CompareFunc::Less };
        assert_eq!(v.test_and_update(0, 0, 0.9, &state, &no_stencil()), ZResult::Pass);
        // No depth write when the test is disabled (GL semantics).
        assert_eq!(v.depth_at(0, 0), 0.1);
    }

    #[test]
    fn equal_func_for_multipass() {
        // Doom3-style: z-prepass with Less, then shading passes with Equal.
        let mut b = DepthStencilBuffer::new(2, 2);
        let mut v = whole(&mut b);
        v.test_and_update(0, 0, 0.4, &ds(), &no_stencil());
        let eq = DepthState { test: true, write: false, func: CompareFunc::Equal };
        assert_eq!(v.test_and_update(0, 0, 0.4, &eq, &no_stencil()), ZResult::Pass);
        assert_eq!(v.test_and_update(0, 0, 0.41, &eq, &no_stencil()), ZResult::DepthFail);
    }

    #[test]
    fn stencil_fail_applies_fail_op() {
        let mut b = DepthStencilBuffer::new(2, 2);
        let mut v = whole(&mut b);
        let ss = StencilState {
            test: true,
            func: CompareFunc::Equal,
            reference: 5,
            read_mask: 0xff,
            fail: StencilOp::Replace,
            zfail: StencilOp::Keep,
            pass: StencilOp::Keep,
        };
        assert_eq!(v.test_and_update(0, 0, 0.5, &ds(), &ss), ZResult::StencilFail);
        assert_eq!(v.stencil_at(0, 0), 5);
    }

    #[test]
    fn shadow_volume_zfail_increments() {
        // The stencil-shadow pattern: depth test fails, stencil zfail op
        // increments (Carmack's reverse uses zfail on front/back faces).
        let mut b = DepthStencilBuffer::new(2, 2);
        let mut v = whole(&mut b);
        v.test_and_update(0, 0, 0.2, &ds(), &no_stencil()); // occluder at 0.2
        let ss = StencilState {
            test: true,
            func: CompareFunc::Always,
            reference: 0,
            read_mask: 0xff,
            fail: StencilOp::Keep,
            zfail: StencilOp::IncrWrap,
            pass: StencilOp::Keep,
        };
        let no_write = DepthState { test: true, write: false, func: CompareFunc::Less };
        // Shadow volume fragment behind the occluder: depth fails, stencil++.
        assert_eq!(v.test_and_update(0, 0, 0.8, &no_write, &ss), ZResult::DepthFail);
        assert_eq!(v.stencil_at(0, 0), 1);
        // In front: depth passes, stencil unchanged (pass = Keep).
        assert_eq!(v.test_and_update(0, 0, 0.1, &no_write, &ss), ZResult::Pass);
        assert_eq!(v.stencil_at(0, 0), 1);
    }

    #[test]
    fn stencil_masked_compare() {
        let mut b = DepthStencilBuffer::new(2, 2);
        let mut ss = StencilState {
            test: true,
            func: CompareFunc::Equal,
            reference: 0b0000_0101,
            read_mask: 0b0000_0100,
            ..StencilState::default()
        };
        ss.pass = StencilOp::Keep;
        // Stored 0 & mask = 0; ref & mask = 4 -> fail.
        assert_eq!(whole(&mut b).test_and_update(0, 0, 0.5, &ds(), &ss), ZResult::StencilFail);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = DepthStencilBuffer::new(4, 4);
        whole(&mut b).test_and_update(2, 2, 0.25, &ds(), &no_stencil());
        b.clear(0.5, 7);
        assert_eq!(b.depth_at(2, 2), 0.5);
        assert_eq!(b.stencil_at(2, 2), 7);
    }

    #[test]
    fn block_max_depth_tracks_writes() {
        let mut b = DepthStencilBuffer::new(16, 16);
        let mut v = whole(&mut b);
        assert_eq!(v.block_max_depth(0, 0), 1.0);
        // Fill the whole first block with 0.3.
        for y in 0..8 {
            for x in 0..8 {
                v.test_and_update(x, y, 0.3, &ds(), &no_stencil());
            }
        }
        assert!((v.block_max_depth(3, 3) - 0.3).abs() < 1e-6);
        // A different block is unaffected.
        assert_eq!(v.block_max_depth(8, 0), 1.0);
    }

    #[test]
    fn band_views_match_whole_surface_semantics() {
        let mut whole_buf = DepthStencilBuffer::new(16, 24);
        let mut banded = DepthStencilBuffer::new(16, 24);
        let d = ds();
        let s = no_stencil();
        let samples = [(0u32, 0u32, 0.5f32), (3, 7, 0.2), (15, 8, 0.9), (8, 15, 0.1), (0, 23, 0.4)];
        {
            let mut full = whole(&mut whole_buf);
            let mut bands = banded.band_views(8);
            assert_eq!(bands.len(), 3);
            for &(x, y, z) in &samples {
                let band = &mut bands[(y / 8) as usize];
                assert_eq!(
                    band.test_and_update(x, y, z, &d, &s),
                    full.test_and_update(x, y, z, &d, &s),
                    "at ({x},{y})"
                );
            }
            assert!((bands[0].block_max_depth(3, 7) - full.block_max_depth(3, 7)).abs() < 1e-9);
            assert_eq!(bands[1].block_depths(8, 15), full.block_depths(8, 15));
            let writes: u64 = bands.iter().map(ZBandView::writes).sum();
            assert_eq!(writes, full.writes());
        }
        assert_eq!(whole_buf, banded, "views write through to the same state");
    }

    #[test]
    fn band_views_short_last_band() {
        let mut b = DepthStencilBuffer::new(8, 20); // bands of 16 -> 16 + 4 rows
        let bands = b.band_views(16);
        assert_eq!(bands.len(), 2);
        assert_eq!(bands[0].rows(), 16);
        assert_eq!(bands[1].rows(), 4);
        assert_eq!(bands[1].y0(), 16);
        // Edge block padded with the clear value like the whole surface.
        assert_eq!(bands[1].block_depths(0, 19)[63], 1.0);
    }

    #[test]
    fn block_depths_row_major_with_padding() {
        let mut b = DepthStencilBuffer::new(10, 10); // edge blocks padded
        let mut v = whole(&mut b);
        v.test_and_update(9, 9, 0.2, &ds(), &no_stencil());
        let blk = v.block_depths(9, 9);
        // (9,9) is at (1,1) within block (8..16, 8..16).
        assert_eq!(blk[9], 0.2);
        // Out-of-surface texels read the clear value.
        assert_eq!(blk[63], 1.0);
    }
}
