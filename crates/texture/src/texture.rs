//! GPU-resident textures with mip chains and dual addressing.

use gwc_mem::AddressSpace;

use crate::{dxt, Image, TexFormat};

/// The two addresses of one texel.
///
/// ATTILA's texture cache hierarchy (Table XIV) keeps *uncompressed* texels
/// in L0 and *compressed* blocks in L1, so every texel is identified by an
/// address in each space. Both ranges are allocated from the simulation's
/// virtual [`AddressSpace`]; only uniqueness matters for cache tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TexelAddress {
    /// Address in decompressed-texel space (L0 cache key).
    pub uncompressed: u64,
    /// Address of the containing compressed block in GPU memory
    /// (L1 cache key and the unit of memory traffic).
    pub compressed: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct MipLevel {
    image: Image,
    base_uncompressed: u64,
    base_compressed: u64,
    compressed_bytes: u64,
}

/// A GPU texture: a format, a mip chain, and addresses in the simulated
/// memory.
///
/// For compressed formats the stored texels are the *decode of the encode*
/// of the source image, so sampling returns exactly the colors hardware
/// would see, compression artifacts included.
#[derive(Debug, Clone, PartialEq)]
pub struct Texture {
    format: TexFormat,
    levels: Vec<MipLevel>,
}

/// Texels per side of an uncompressed-space tile. A 4×4 tile of RGBA8 is
/// exactly one 64-byte L0 line.
const TILE: u32 = 4;

fn tile_offset(x: u32, y: u32, width: u32) -> u64 {
    let tiles_per_row = width.div_ceil(TILE);
    let block = (y / TILE) as u64 * tiles_per_row as u64 + (x / TILE) as u64;
    let within = ((y % TILE) * TILE + (x % TILE)) as u64;
    block * (TILE * TILE) as u64 + within
}

impl Texture {
    /// Builds a texture from an image, optionally generating the full mip
    /// chain, and allocates its storage in `vram`.
    ///
    /// For DXT formats each level is block-encoded and decoded back, so
    /// sampled colors carry real compression error.
    pub fn from_image(image: &Image, format: TexFormat, gen_mips: bool, vram: &mut AddressSpace) -> Self {
        let mut levels = Vec::new();
        let mut current = image.clone();
        loop {
            let stored = if format.is_compressed() {
                roundtrip_dxt(&current, format)
            } else {
                current.clone()
            };
            let compressed_bytes = format.level_bytes(current.width(), current.height());
            let uncompressed_bytes = 4 * (current.width().div_ceil(TILE) as u64)
                * (current.height().div_ceil(TILE) as u64)
                * (TILE * TILE) as u64;
            let base_compressed = vram.alloc(compressed_bytes, 256);
            let base_uncompressed = vram.alloc(uncompressed_bytes, 256);
            levels.push(MipLevel { image: stored, base_uncompressed, base_compressed, compressed_bytes });
            if !gen_mips || (current.width() == 1 && current.height() == 1) {
                break;
            }
            current = current.downsample();
        }
        Texture { format, levels }
    }

    /// Total VRAM [`from_image`](Texture::from_image) would allocate for
    /// this texture (compressed + decompressed-space backing of every
    /// level), without encoding anything. Lets a caller enforce a memory
    /// budget *before* committing the allocation.
    pub fn footprint_bytes(image: &Image, format: TexFormat, gen_mips: bool) -> u64 {
        let (mut w, mut h) = (image.width(), image.height());
        let mut total = 0u64;
        loop {
            total += format.level_bytes(w, h);
            total += 4 * (w.div_ceil(TILE) as u64)
                * (h.div_ceil(TILE) as u64)
                * (TILE * TILE) as u64;
            if !gen_mips || (w == 1 && h == 1) {
                break;
            }
            w = (w / 2).max(1);
            h = (h / 2).max(1);
        }
        total
    }

    /// The storage format.
    pub fn format(&self) -> TexFormat {
        self.format
    }

    /// Number of mip levels.
    pub fn mip_count(&self) -> usize {
        self.levels.len()
    }

    /// Width of mip level 0.
    pub fn width(&self) -> u32 {
        self.levels[0].image.width()
    }

    /// Height of mip level 0.
    pub fn height(&self) -> u32 {
        self.levels[0].image.height()
    }

    /// Dimensions of a mip level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_dims(&self, level: usize) -> (u32, u32) {
        let img = &self.levels[level].image;
        (img.width(), img.height())
    }

    /// Total compressed bytes across all levels (the texture's GPU memory
    /// footprint).
    pub fn memory_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.compressed_bytes).sum()
    }

    /// The texel color at integer coordinates within a level, as stored
    /// (post compression roundtrip), normalized to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `level` or the coordinates are out of range.
    #[inline]
    pub fn texel(&self, level: usize, x: u32, y: u32) -> gwc_math::Vec4 {
        let t = self.levels[level].image.get(x, y);
        gwc_math::Vec4::new(
            t[0] as f32 / 255.0,
            t[1] as f32 / 255.0,
            t[2] as f32 / 255.0,
            t[3] as f32 / 255.0,
        )
    }

    /// Both addresses of a texel (see [`TexelAddress`]).
    ///
    /// # Panics
    ///
    /// Panics if `level` or the coordinates are out of range.
    pub fn texel_address(&self, level: usize, x: u32, y: u32) -> TexelAddress {
        let lvl = &self.levels[level];
        let w = lvl.image.width();
        let h = lvl.image.height();
        assert!(x < w && y < h, "texel ({x},{y}) out of range for level {level}");
        let uncompressed = lvl.base_uncompressed + tile_offset(x, y, w) * 4;
        let bd = self.format.block_dim();
        let blocks_per_row = w.div_ceil(bd) as u64;
        let block = (y / bd) as u64 * blocks_per_row + (x / bd) as u64;
        let compressed = lvl.base_compressed + block * self.format.block_bytes() as u64;
        TexelAddress { uncompressed, compressed }
    }
}

fn roundtrip_dxt(image: &Image, format: TexFormat) -> Image {
    let w = image.width();
    let h = image.height();
    let mut out = Image::solid(w, h, [0; 4]);
    for by in 0..h.div_ceil(4) {
        for bx in 0..w.div_ceil(4) {
            let mut block = [[0u8; 4]; 16];
            for iy in 0..4 {
                for ix in 0..4 {
                    let x = (bx * 4 + ix).min(w - 1);
                    let y = (by * 4 + iy).min(h - 1);
                    block[(iy * 4 + ix) as usize] = image.get(x, y);
                }
            }
            let decoded = dxt::decode_block(&dxt::encode_block(&block, format), format);
            for iy in 0..4 {
                for ix in 0..4 {
                    let x = bx * 4 + ix;
                    let y = by * 4 + iy;
                    if x < w && y < h {
                        out.set(x, y, decoded[(iy * 4 + ix) as usize]);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vram() -> AddressSpace {
        AddressSpace::new()
    }

    #[test]
    fn mip_chain_full_depth() {
        let img = Image::solid(64, 32, [10, 20, 30, 255]);
        let t = Texture::from_image(&img, TexFormat::Rgba8, true, &mut vram());
        // 64x32 -> 32x16 -> ... -> 1x1: 7 levels.
        assert_eq!(t.mip_count(), 7);
        assert_eq!(t.level_dims(0), (64, 32));
        assert_eq!(t.level_dims(6), (1, 1));
    }

    #[test]
    fn no_mips_when_disabled() {
        let img = Image::solid(16, 16, [0; 4]);
        let t = Texture::from_image(&img, TexFormat::Rgba8, false, &mut vram());
        assert_eq!(t.mip_count(), 1);
    }

    #[test]
    fn memory_footprint_dxt1_vs_rgba8() {
        let img = Image::noise(128, 128, 7);
        let mut v = vram();
        let raw = Texture::from_image(&img, TexFormat::Rgba8, false, &mut v);
        let dxt = Texture::from_image(&img, TexFormat::Dxt1, false, &mut v);
        assert_eq!(raw.memory_bytes(), 128 * 128 * 4);
        assert_eq!(dxt.memory_bytes(), raw.memory_bytes() / 8);
    }

    #[test]
    fn dxt_roundtrip_applied_to_stored_texels() {
        // A solid texture should survive the roundtrip almost exactly.
        let img = Image::solid(16, 16, [200, 100, 40, 255]);
        let t = Texture::from_image(&img, TexFormat::Dxt1, false, &mut vram());
        let c = t.texel(0, 5, 5);
        assert!((c.x - 200.0 / 255.0).abs() < 0.05);
        assert!((c.y - 100.0 / 255.0).abs() < 0.05);
    }

    #[test]
    fn texel_addresses_unique_within_level() {
        let img = Image::solid(16, 16, [0; 4]);
        let t = Texture::from_image(&img, TexFormat::Dxt1, false, &mut vram());
        let mut seen = std::collections::HashSet::new();
        for y in 0..16 {
            for x in 0..16 {
                assert!(seen.insert(t.texel_address(0, x, y).uncompressed));
            }
        }
    }

    #[test]
    fn texels_in_same_dxt_block_share_compressed_address() {
        let img = Image::solid(16, 16, [0; 4]);
        let t = Texture::from_image(&img, TexFormat::Dxt1, false, &mut vram());
        let a = t.texel_address(0, 0, 0);
        let b = t.texel_address(0, 3, 3);
        let c = t.texel_address(0, 4, 0);
        assert_eq!(a.compressed, b.compressed);
        assert_eq!(c.compressed, a.compressed + 8);
    }

    #[test]
    fn uncompressed_tile_is_one_l0_line() {
        let img = Image::solid(16, 16, [0; 4]);
        let t = Texture::from_image(&img, TexFormat::Rgba8, false, &mut vram());
        let base = t.texel_address(0, 0, 0).uncompressed;
        for y in 0..4 {
            for x in 0..4 {
                let a = t.texel_address(0, x, y).uncompressed;
                assert!(a >= base && a < base + 64);
            }
        }
        assert_eq!(t.texel_address(0, 4, 0).uncompressed, base + 64);
    }

    #[test]
    fn levels_have_disjoint_address_ranges() {
        let img = Image::solid(32, 32, [0; 4]);
        let t = Texture::from_image(&img, TexFormat::Dxt5, true, &mut vram());
        let a0 = t.texel_address(0, 31, 31);
        let a1 = t.texel_address(1, 0, 0);
        assert_ne!(a0.compressed, a1.compressed);
        assert_ne!(a0.uncompressed, a1.uncompressed);
    }

    #[test]
    fn mip_of_checkerboard_averages_to_grey() {
        let img = Image::checkerboard(64, 64, 1, [255, 255, 255, 255], [0, 0, 0, 255]);
        let t = Texture::from_image(&img, TexFormat::Rgba8, true, &mut vram());
        // 1-texel cells average to mid-grey by the first mip.
        let c = t.texel(1, 3, 3);
        assert!((c.x - 0.5).abs() < 0.01, "got {}", c.x);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn texel_address_out_of_range_panics() {
        let img = Image::solid(8, 8, [0; 4]);
        let t = Texture::from_image(&img, TexFormat::Rgba8, false, &mut vram());
        let _ = t.texel_address(0, 8, 0);
    }
}
