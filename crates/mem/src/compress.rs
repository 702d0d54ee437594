//! Framebuffer block compression models.
//!
//! ATTILA (and the R520 it models) reduce depth and color bandwidth with
//! three techniques the paper credits for large savings (Table XVII):
//!
//! 1. **Fast clear** — a cleared block stores only a per-block flag; the
//!    first read after a clear costs no memory traffic.
//! 2. **Z compression** — a DDPCM-style plane predictor: depth inside one
//!    8×8 block generated by one or two triangles is (nearly) planar, so the
//!    block compresses to 25% or 50% of its raw size.
//! 3. **Color compression** — a much simpler scheme that only compresses
//!    blocks whose pixels all share one color (the paper notes it "only
//!    works for blocks of pixels with the same color").
//!
//! The compressors here operate on real block payloads, so compressibility
//! *emerges* from what the pipeline actually rendered.

/// Compression level of one framebuffer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockState {
    /// Block has not been touched since the last fast clear: zero bytes of
    /// traffic to read, clear-value semantics.
    #[default]
    FastCleared,
    /// Block compresses to 25% of raw size.
    Compressed25,
    /// Block compresses to 50% of raw size.
    Compressed50,
    /// Block is stored raw.
    Uncompressed,
}

impl BlockState {
    /// Bytes transferred when reading or writing a block of `raw` bytes in
    /// this state.
    pub fn transfer_bytes(self, raw: u64) -> u64 {
        match self {
            BlockState::FastCleared => 0,
            BlockState::Compressed25 => raw / 4,
            BlockState::Compressed50 => raw / 2,
            BlockState::Uncompressed => raw,
        }
    }
}

/// Classifies an 8×8 block of depth values (row-major, 64 entries) with a
/// DDPCM-style plane predictor.
///
/// The block is fit to the plane defined by its first row/column deltas; if
/// every value is predicted within `tol24` ULPs of 24-bit depth the block
/// compresses to 25%, within `8 × tol24` to 50%, otherwise it is stored raw.
///
/// # Panics
///
/// Panics if `block.len() != 64`.
pub fn classify_z_block(block: &[f32]) -> BlockState {
    assert_eq!(block.len(), 64, "z block must be 8x8");
    // Work in 24-bit integer depth as hardware does.
    let q = |z: f32| (z.clamp(0.0, 1.0) as f64 * 16_777_215.0) as i64;
    let z00 = q(block[0]);
    let dzdx = q(block[1]) - z00;
    let dzdy = q(block[8]) - z00;
    let mut max_err: i64 = 0;
    for y in 0..8i64 {
        for x in 0..8i64 {
            let predicted = z00 + dzdx * x + dzdy * y;
            let actual = q(block[(y * 8 + x) as usize]);
            max_err = max_err.max((predicted - actual).abs());
        }
    }
    // Thresholds: a perfectly planar block stores base + gradients + tiny
    // residuals (25%); small residuals still fit 50%.
    const TOL_25: i64 = 1 << 4;
    const TOL_50: i64 = 1 << 12;
    if max_err <= TOL_25 {
        BlockState::Compressed25
    } else if max_err <= TOL_50 {
        BlockState::Compressed50
    } else {
        BlockState::Uncompressed
    }
}

/// Classifies an 8×8 block of packed RGBA8 colors: uniform blocks compress
/// to 25% (one color + mask), anything else is raw — matching the paper's
/// "very simple compression algorithm that only works for blocks \[of\]
/// pixels with the same color".
///
/// # Panics
///
/// Panics if `block.len() != 64`.
pub fn classify_color_block(block: &[u32]) -> BlockState {
    assert_eq!(block.len(), 64, "color block must be 8x8");
    let first = block[0];
    if block.iter().all(|&c| c == first) {
        BlockState::Compressed25
    } else {
        BlockState::Uncompressed
    }
}

/// Per-surface compression directory: one [`BlockState`] per 8×8 block,
/// plus the fast-clear value.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionDirectory {
    blocks_x: u32,
    blocks_y: u32,
    states: Vec<BlockState>,
}

impl CompressionDirectory {
    /// Creates a directory for a `width × height` surface, all blocks
    /// fast-cleared.
    pub fn new(width: u32, height: u32) -> Self {
        let blocks_x = width.div_ceil(8);
        let blocks_y = height.div_ceil(8);
        CompressionDirectory {
            blocks_x,
            blocks_y,
            states: vec![BlockState::FastCleared; (blocks_x * blocks_y) as usize],
        }
    }

    /// Number of blocks horizontally.
    pub fn blocks_x(&self) -> u32 {
        self.blocks_x
    }

    /// Number of blocks vertically.
    pub fn blocks_y(&self) -> u32 {
        self.blocks_y
    }

    /// Marks every block fast-cleared (a full-surface clear).
    pub fn fast_clear(&mut self) {
        self.states.fill(BlockState::FastCleared);
    }

    /// State of the block containing pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is outside the surface.
    pub fn state_at(&self, x: u32, y: u32) -> BlockState {
        self.states[self.index(x, y)]
    }

    /// Sets the state of the block containing pixel `(x, y)`.
    pub fn set_state_at(&mut self, x: u32, y: u32, s: BlockState) {
        let i = self.index(x, y);
        self.states[i] = s;
    }

    /// All block states in row-major order (checkpoint support).
    pub fn states(&self) -> &[BlockState] {
        &self.states
    }

    /// Rebuilds a directory from its block states (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `states` does not cover the surface.
    pub fn restore(width: u32, height: u32, states: Vec<BlockState>) -> Self {
        let mut d = CompressionDirectory::new(width, height);
        assert_eq!(states.len(), d.states.len(), "block count mismatch");
        d.states = states;
        d
    }

    /// Fraction of blocks currently in each state
    /// `(fast_cleared, c25, c50, raw)`.
    pub fn distribution(&self) -> (f64, f64, f64, f64) {
        let n = self.states.len() as f64;
        let count = |s: BlockState| self.states.iter().filter(|&&x| x == s).count() as f64 / n;
        (
            count(BlockState::FastCleared),
            count(BlockState::Compressed25),
            count(BlockState::Compressed50),
            count(BlockState::Uncompressed),
        )
    }

    fn index(&self, x: u32, y: u32) -> usize {
        let bx = x / 8;
        let by = y / 8;
        assert!(bx < self.blocks_x && by < self.blocks_y, "pixel ({x},{y}) outside surface");
        (by * self.blocks_x + bx) as usize
    }

    /// Splits the directory into disjoint mutable views over horizontal
    /// bands of `band_rows` pixel rows each (the last band may be shorter).
    ///
    /// Block states are stored block-row-major, so a band that starts on an
    /// 8-row boundary owns a contiguous run of states; the views can be
    /// handed to parallel workers without any aliasing.
    ///
    /// # Panics
    ///
    /// Panics if `band_rows` is zero or not a multiple of the 8-pixel block
    /// height.
    pub fn band_views(&mut self, band_rows: u32) -> Vec<DirBandView<'_>> {
        assert!(band_rows > 0 && band_rows.is_multiple_of(8), "band rows must be a multiple of 8");
        let blocks_x = self.blocks_x;
        let rows_per_band = (band_rows / 8) as usize * blocks_x as usize;
        self.states
            .chunks_mut(rows_per_band.max(1))
            .enumerate()
            .map(|(i, states)| DirBandView { blocks_x, y0: i as u32 * band_rows, states })
            .collect()
    }
}

/// A mutable view of one horizontal band of a [`CompressionDirectory`].
///
/// Accessors take *global* pixel coordinates; the view asserts they fall
/// inside its band.
#[derive(Debug)]
pub struct DirBandView<'a> {
    blocks_x: u32,
    y0: u32,
    states: &'a mut [BlockState],
}

impl DirBandView<'_> {
    /// First pixel row covered by this band.
    pub fn y0(&self) -> u32 {
        self.y0
    }

    fn index(&self, x: u32, y: u32) -> usize {
        let bx = x / 8;
        assert!(y >= self.y0, "pixel ({x},{y}) above band starting at row {}", self.y0);
        let by = (y - self.y0) / 8;
        let i = (by * self.blocks_x + bx) as usize;
        assert!(bx < self.blocks_x && i < self.states.len(), "pixel ({x},{y}) outside band");
        i
    }

    /// State of the block containing global pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel lies outside this band.
    pub fn state_at(&self, x: u32, y: u32) -> BlockState {
        self.states[self.index(x, y)]
    }

    /// Sets the state of the block containing global pixel `(x, y)`.
    pub fn set_state_at(&mut self, x: u32, y: u32, s: BlockState) {
        let i = self.index(x, y);
        self.states[i] = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planar_block(z0: f32, dzdx: f32, dzdy: f32) -> Vec<f32> {
        (0..64)
            .map(|i| {
                let (x, y) = (i % 8, i / 8);
                z0 + dzdx * x as f32 + dzdy * y as f32
            })
            .collect()
    }

    #[test]
    fn planar_z_compresses_to_quarter() {
        let b = planar_block(0.5, 0.001, -0.0005);
        assert_eq!(classify_z_block(&b), BlockState::Compressed25);
    }

    #[test]
    fn constant_z_compresses() {
        let b = vec![0.25; 64];
        assert_eq!(classify_z_block(&b), BlockState::Compressed25);
    }

    #[test]
    fn two_plane_z_block_half_or_raw() {
        // Two triangles meeting mid-block: small residual vs one plane.
        let mut b = planar_block(0.5, 0.001, 0.0);
        for y in 0..8 {
            for x in 4..8 {
                b[y * 8 + x] += 0.00005 * (x - 4) as f32;
            }
        }
        let s = classify_z_block(&b);
        assert!(s == BlockState::Compressed50 || s == BlockState::Compressed25);
    }

    #[test]
    fn random_z_is_uncompressed() {
        let b: Vec<f32> = (0..64).map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 / 1000.0).collect();
        assert_eq!(classify_z_block(&b), BlockState::Uncompressed);
    }

    #[test]
    #[should_panic(expected = "8x8")]
    fn wrong_block_size_panics() {
        classify_z_block(&[0.0; 16]);
    }

    #[test]
    fn uniform_color_compresses() {
        assert_eq!(classify_color_block(&[0xff00_00ffu32; 64]), BlockState::Compressed25);
    }

    #[test]
    fn varied_color_does_not_compress() {
        let mut b = [0u32; 64];
        b[17] = 1;
        assert_eq!(classify_color_block(&b), BlockState::Uncompressed);
    }

    #[test]
    fn transfer_bytes_scaling() {
        assert_eq!(BlockState::FastCleared.transfer_bytes(256), 0);
        assert_eq!(BlockState::Compressed25.transfer_bytes(256), 64);
        assert_eq!(BlockState::Compressed50.transfer_bytes(256), 128);
        assert_eq!(BlockState::Uncompressed.transfer_bytes(256), 256);
    }

    #[test]
    fn directory_clear_and_set() {
        let mut d = CompressionDirectory::new(20, 10); // 3x2 blocks
        assert_eq!(d.blocks_x(), 3);
        assert_eq!(d.blocks_y(), 2);
        assert_eq!(d.state_at(19, 9), BlockState::FastCleared);
        d.set_state_at(8, 0, BlockState::Uncompressed);
        assert_eq!(d.state_at(15, 7), BlockState::Uncompressed);
        assert_eq!(d.state_at(0, 0), BlockState::FastCleared);
        let (fc, _, _, raw) = d.distribution();
        assert!((fc - 5.0 / 6.0).abs() < 1e-9);
        assert!((raw - 1.0 / 6.0).abs() < 1e-9);
        d.fast_clear();
        assert_eq!(d.state_at(8, 0), BlockState::FastCleared);
    }

    #[test]
    #[should_panic(expected = "outside surface")]
    fn directory_out_of_range_panics() {
        let d = CompressionDirectory::new(16, 16);
        let _ = d.state_at(16, 0);
    }

    #[test]
    fn band_views_partition_the_directory() {
        let mut d = CompressionDirectory::new(32, 40); // 4x5 blocks
        {
            let mut bands = d.band_views(16); // 2 block rows per band -> 3 bands
            assert_eq!(bands.len(), 3);
            assert_eq!(bands[0].y0(), 0);
            assert_eq!(bands[1].y0(), 16);
            assert_eq!(bands[2].y0(), 32);
            bands[0].set_state_at(0, 0, BlockState::Uncompressed);
            bands[1].set_state_at(31, 17, BlockState::Compressed50);
            bands[2].set_state_at(8, 39, BlockState::Compressed25);
            assert_eq!(bands[1].state_at(24, 23), BlockState::Compressed50);
        }
        // Writes through the views landed at the same global blocks.
        assert_eq!(d.state_at(0, 0), BlockState::Uncompressed);
        assert_eq!(d.state_at(31, 17), BlockState::Compressed50);
        assert_eq!(d.state_at(8, 39), BlockState::Compressed25);
        assert_eq!(d.state_at(16, 8), BlockState::FastCleared);
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn band_view_rejects_foreign_rows() {
        let mut d = CompressionDirectory::new(32, 32);
        let mut bands = d.band_views(16);
        bands[0].set_state_at(0, 16, BlockState::Uncompressed);
    }
}
