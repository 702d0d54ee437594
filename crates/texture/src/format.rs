//! Texture storage formats.

/// Texture storage formats supported by the simulator.
///
/// The paper notes the three simulated benchmarks compress "most of the
/// texture data" as DXT1/DXT3/DXT5, which together with the texture cache
/// cuts texture bandwidth "almost to a tenth" of the uncompressed cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TexFormat {
    /// 8-bit RGBA, 4 bytes per texel, uncompressed.
    Rgba8,
    /// 8-bit luminance, 1 byte per texel, uncompressed.
    L8,
    /// S3TC BC1: 4×4 blocks, 8 bytes per block (0.5 B/texel), 1-bit alpha.
    Dxt1,
    /// S3TC BC2: 4×4 blocks, 16 bytes per block, explicit 4-bit alpha.
    Dxt3,
    /// S3TC BC3: 4×4 blocks, 16 bytes per block, interpolated alpha.
    Dxt5,
}

impl TexFormat {
    /// Width/height of a compression block (1 for uncompressed formats).
    pub fn block_dim(self) -> u32 {
        match self {
            TexFormat::Rgba8 | TexFormat::L8 => 1,
            TexFormat::Dxt1 | TexFormat::Dxt3 | TexFormat::Dxt5 => 4,
        }
    }

    /// Bytes per compression block.
    pub fn block_bytes(self) -> u32 {
        match self {
            TexFormat::Rgba8 => 4,
            TexFormat::L8 => 1,
            TexFormat::Dxt1 => 8,
            TexFormat::Dxt3 | TexFormat::Dxt5 => 16,
        }
    }

    /// `true` for block-compressed formats.
    pub fn is_compressed(self) -> bool {
        self.block_dim() > 1
    }

    /// Storage bytes for a `width × height` level in this format.
    pub fn level_bytes(self, width: u32, height: u32) -> u64 {
        let bd = self.block_dim();
        let bx = width.div_ceil(bd) as u64;
        let by = height.div_ceil(bd) as u64;
        bx * by * self.block_bytes() as u64
    }

    /// Average bytes per texel (fractional for DXT1).
    pub fn bytes_per_texel(self) -> f64 {
        self.block_bytes() as f64 / (self.block_dim() * self.block_dim()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_geometry() {
        assert_eq!(TexFormat::Rgba8.block_dim(), 1);
        assert_eq!(TexFormat::Dxt1.block_dim(), 4);
        assert_eq!(TexFormat::Dxt1.block_bytes(), 8);
        assert_eq!(TexFormat::Dxt5.block_bytes(), 16);
    }

    #[test]
    fn level_bytes_rounding() {
        // 5x5 DXT1 needs 2x2 blocks.
        assert_eq!(TexFormat::Dxt1.level_bytes(5, 5), 4 * 8);
        assert_eq!(TexFormat::Rgba8.level_bytes(5, 5), 100);
        assert_eq!(TexFormat::L8.level_bytes(8, 8), 64);
    }

    #[test]
    fn compression_ratios() {
        // DXT1 is 8:1 vs RGBA8; DXT3/5 are 4:1.
        assert!((TexFormat::Rgba8.bytes_per_texel() / TexFormat::Dxt1.bytes_per_texel() - 8.0).abs() < 1e-12);
        assert!((TexFormat::Rgba8.bytes_per_texel() / TexFormat::Dxt5.bytes_per_texel() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn compressed_flags() {
        assert!(TexFormat::Dxt3.is_compressed());
        assert!(!TexFormat::L8.is_compressed());
    }
}
