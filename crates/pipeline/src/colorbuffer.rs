//! The color buffer (RGBA8) with blend evaluation.

use gwc_math::Vec4;
use gwc_raster::{BlendFactor, BlendState};

/// Packs a normalized color into RGBA8.
fn pack(c: Vec4) -> u32 {
    let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32;
    q(c.x) | (q(c.y) << 8) | (q(c.z) << 16) | (q(c.w) << 24)
}

/// Unpacks RGBA8 to a normalized color.
fn unpack(p: u32) -> Vec4 {
    Vec4::new(
        (p & 0xff) as f32 / 255.0,
        ((p >> 8) & 0xff) as f32 / 255.0,
        ((p >> 16) & 0xff) as f32 / 255.0,
        ((p >> 24) & 0xff) as f32 / 255.0,
    )
}

fn factor(f: BlendFactor, src: Vec4, dst: Vec4) -> Vec4 {
    match f {
        BlendFactor::Zero => Vec4::ZERO,
        BlendFactor::One => Vec4::ONE,
        BlendFactor::SrcAlpha => Vec4::splat(src.w),
        BlendFactor::OneMinusSrcAlpha => Vec4::splat(1.0 - src.w),
        BlendFactor::DstColor => dst,
        BlendFactor::SrcColor => src,
    }
}

/// The render target: a `width × height` RGBA8 surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorBuffer {
    width: u32,
    height: u32,
    pixels: Vec<u32>,
}

impl ColorBuffer {
    /// Creates a buffer cleared to opaque black.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "color buffer must be non-empty");
        ColorBuffer { width, height, pixels: vec![0xff00_0000; (width * height) as usize] }
    }

    /// Buffer width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Clears to a color.
    pub fn clear(&mut self, color: Vec4) {
        self.pixels.fill(pack(color));
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y * self.width + x) as usize
    }

    /// Pixel color at `(x, y)`.
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> Vec4 {
        unpack(self.pixels[self.index(x, y)])
    }

    /// Raw packed pixel.
    #[inline]
    pub fn raw_pixel(&self, x: u32, y: u32) -> u32 {
        self.pixels[self.index(x, y)]
    }

    /// The raw packed surface, row-major (checkpoint support).
    pub fn raw_pixels(&self) -> &[u32] {
        &self.pixels
    }

    /// Rebuilds a buffer from its raw surface (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `pixels` does not cover `width × height`.
    pub fn restore(width: u32, height: u32, pixels: Vec<u32>) -> Self {
        assert_eq!(pixels.len(), (width * height) as usize, "surface size mismatch");
        ColorBuffer { width, height, pixels }
    }

    /// Writes a fragment color with blending.
    pub fn write(&mut self, x: u32, y: u32, src: Vec4, blend: &BlendState) {
        let i = self.index(x, y);
        let out = if blend.enabled {
            let dst = unpack(self.pixels[i]);
            let s = factor(blend.src, src, dst);
            let d = factor(blend.dst, src, dst);
            (src * s + dst * d).saturate()
        } else {
            src.saturate()
        };
        self.pixels[i] = pack(out);
    }

    /// The packed colors of the 8×8 block containing `(x, y)` (row-major,
    /// padded with 0 at surface edges) — feeds the color compressor.
    pub fn block_colors(&self, x: u32, y: u32) -> [u32; 64] {
        let bx = (x / 8) * 8;
        let by = (y / 8) * 8;
        let mut out = [0u32; 64];
        for iy in 0..8 {
            for ix in 0..8 {
                let xx = bx + ix;
                let yy = by + iy;
                if xx < self.width && yy < self.height {
                    out[(iy * 8 + ix) as usize] = self.pixels[self.index(xx, yy)];
                }
            }
        }
        out
    }

    /// Splits the surface into disjoint horizontal bands of `band_rows`
    /// rows (the last band may be shorter). Each [`ColorBandView`] writes
    /// only its own rows, so the views can be driven from different
    /// threads while partitioning exactly the operations the whole surface
    /// would see.
    ///
    /// # Panics
    ///
    /// Panics if `band_rows` is zero or not a multiple of 8 (blend blocks
    /// are 8×8).
    pub(crate) fn band_views(&mut self, band_rows: u32) -> Vec<ColorBandView<'_>> {
        assert!(
            band_rows > 0 && band_rows.is_multiple_of(8),
            "band_rows must be a non-zero multiple of 8"
        );
        let width = self.width;
        self.pixels
            .chunks_mut((band_rows * width) as usize)
            .enumerate()
            .map(|(i, pixels)| ColorBandView { width, y0: i as u32 * band_rows, pixels })
            .collect()
    }

    /// Serializes the frame as a binary PPM (P6) image — the simulator's
    /// screenshot facility.
    ///
    /// ```no_run
    /// # let cb = gwc_pipeline::ColorBuffer::new(4, 4);
    /// std::fs::write("frame.ppm", cb.to_ppm())?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.reserve(self.pixels.len() * 3);
        for &p in &self.pixels {
            out.push((p & 0xff) as u8);
            out.push(((p >> 8) & 0xff) as u8);
            out.push(((p >> 16) & 0xff) as u8);
        }
        out
    }

    /// Mean luminance of the frame in `[0, 1]` (a cheap smoke-test that
    /// rendering produced something).
    pub fn mean_luminance(&self) -> f64 {
        let mut acc = 0f64;
        for &p in &self.pixels {
            let c = unpack(p);
            acc += (0.299 * c.x + 0.587 * c.y + 0.114 * c.z) as f64;
        }
        acc / self.pixels.len() as f64
    }
}

/// A mutable view of one horizontal band of a [`ColorBuffer`], addressed
/// in global surface coordinates. Produced by [`ColorBuffer::band_views`];
/// the stripe-parallel fragment pipeline gives each worker exactly one.
#[derive(Debug)]
pub(crate) struct ColorBandView<'a> {
    width: u32,
    y0: u32,
    pixels: &'a mut [u32],
}

impl ColorBandView<'_> {
    /// Rows covered by this band.
    pub fn rows(&self) -> u32 {
        self.pixels.len() as u32 / self.width
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width, "x {x} outside surface");
        debug_assert!(
            y >= self.y0 && y < self.y0 + self.rows(),
            "row {y} outside band [{}, {})",
            self.y0,
            self.y0 + self.rows()
        );
        ((y - self.y0) * self.width + x) as usize
    }

    /// Writes a fragment color with blending (global coordinates); the
    /// same arithmetic as [`ColorBuffer::write`].
    pub fn write(&mut self, x: u32, y: u32, src: Vec4, blend: &BlendState) {
        let i = self.index(x, y);
        let out = if blend.enabled {
            let dst = unpack(self.pixels[i]);
            let s = factor(blend.src, src, dst);
            let d = factor(blend.dst, src, dst);
            (src * s + dst * d).saturate()
        } else {
            src.saturate()
        };
        self.pixels[i] = pack(out);
    }

    /// The packed colors of the 8×8 block containing `(x, y)` (row-major,
    /// 0-padded past the surface edge) — matches
    /// [`ColorBuffer::block_colors`] for blocks owned by this band.
    pub fn block_colors(&self, x: u32, y: u32) -> [u32; 64] {
        let bx = (x / 8) * 8;
        let by = (y / 8) * 8;
        debug_assert!(by >= self.y0, "block row {by} outside band");
        let mut out = [0u32; 64];
        for iy in 0..8 {
            for ix in 0..8 {
                let xx = bx + ix;
                let yy = by + iy;
                if xx < self.width && yy < self.y0 + self.rows() {
                    out[(iy * 8 + ix) as usize] = self.pixels[self.index(xx, yy)];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let c = Vec4::new(0.25, 0.5, 0.75, 1.0);
        let r = unpack(pack(c));
        assert!((r.x - 0.25).abs() < 0.01);
        assert!((r.y - 0.5).abs() < 0.01);
        assert!((r.w - 1.0).abs() < 0.01);
    }

    #[test]
    fn write_replace() {
        let mut cb = ColorBuffer::new(4, 4);
        cb.write(1, 2, Vec4::new(1.0, 0.0, 0.0, 1.0), &BlendState::default());
        let p = cb.pixel(1, 2);
        assert!(p.x > 0.99 && p.y < 0.01);
    }

    #[test]
    fn additive_blend() {
        let mut cb = ColorBuffer::new(2, 2);
        cb.clear(Vec4::new(0.25, 0.25, 0.25, 1.0));
        let add = BlendState { enabled: true, src: BlendFactor::One, dst: BlendFactor::One };
        cb.write(0, 0, Vec4::new(0.25, 0.5, 0.0, 1.0), &add);
        let p = cb.pixel(0, 0);
        assert!((p.x - 0.5).abs() < 0.01);
        assert!((p.y - 0.75).abs() < 0.01);
    }

    #[test]
    fn alpha_blend() {
        let mut cb = ColorBuffer::new(2, 2);
        cb.clear(Vec4::new(0.0, 0.0, 1.0, 1.0));
        let alpha = BlendState {
            enabled: true,
            src: BlendFactor::SrcAlpha,
            dst: BlendFactor::OneMinusSrcAlpha,
        };
        // 50% red over blue.
        cb.write(0, 0, Vec4::new(1.0, 0.0, 0.0, 0.5), &alpha);
        let p = cb.pixel(0, 0);
        assert!((p.x - 0.5).abs() < 0.01, "{p:?}");
        assert!((p.z - 0.5).abs() < 0.01, "{p:?}");
    }

    #[test]
    fn blend_saturates() {
        let mut cb = ColorBuffer::new(2, 2);
        cb.clear(Vec4::ONE);
        let add = BlendState { enabled: true, src: BlendFactor::One, dst: BlendFactor::One };
        cb.write(0, 0, Vec4::ONE, &add);
        assert_eq!(cb.pixel(0, 0).x, 1.0);
    }

    #[test]
    fn block_colors_uniform_after_clear() {
        let mut cb = ColorBuffer::new(16, 16);
        cb.clear(Vec4::new(0.5, 0.5, 0.5, 1.0));
        let blk = cb.block_colors(3, 3);
        assert!(blk.iter().all(|&c| c == blk[0]));
    }

    #[test]
    fn ppm_header_and_payload() {
        let mut cb = ColorBuffer::new(3, 2);
        cb.write(0, 0, Vec4::new(1.0, 0.0, 0.0, 1.0), &BlendState::default());
        let ppm = cb.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        let header = b"P6\n3 2\n255\n".len();
        assert_eq!(ppm.len(), header + 3 * 2 * 3);
        // First pixel is red.
        assert_eq!(ppm[header], 255);
        assert_eq!(ppm[header + 1], 0);
    }

    #[test]
    fn band_views_match_whole_surface() {
        let blend = BlendState { enabled: true, src: BlendFactor::One, dst: BlendFactor::One };
        let mut whole = ColorBuffer::new(16, 24);
        let mut banded = ColorBuffer::new(16, 24);
        let writes =
            [(0u32, 0u32), (5, 7), (8, 8), (15, 15), (3, 16), (15, 23), (0, 23), (7, 12)];
        for &(x, y) in &writes {
            whole.write(x, y, Vec4::new(0.3, 0.1, 0.6, 0.5), &blend);
        }
        {
            let mut views = banded.band_views(8);
            assert_eq!(views.len(), 3);
            for &(x, y) in &writes {
                let v = &mut views[(y / 8) as usize];
                v.write(x, y, Vec4::new(0.3, 0.1, 0.6, 0.5), &blend);
            }
            assert_eq!(views[1].block_colors(8, 8), whole.block_colors(8, 8));
            assert_eq!(views[2].rows(), 8);
        }
        assert_eq!(banded.raw_pixels(), whole.raw_pixels());
    }

    #[test]
    fn band_views_short_last_band() {
        let mut cb = ColorBuffer::new(8, 20);
        let views = cb.band_views(16);
        assert_eq!(views.len(), 2);
        assert_eq!(views[1].rows(), 4);
        // Block colors at the surface edge pad with zeros like the whole
        // surface does.
        let whole = ColorBuffer::new(8, 20);
        let mut cb2 = ColorBuffer::new(8, 20);
        let views2 = cb2.band_views(16);
        assert_eq!(views2[1].block_colors(0, 16), whole.block_colors(0, 16));
    }

    #[test]
    fn mean_luminance_tracks_content() {
        let mut cb = ColorBuffer::new(8, 8);
        cb.clear(Vec4::ZERO);
        let dark = cb.mean_luminance();
        cb.clear(Vec4::ONE);
        let bright = cb.mean_luminance();
        assert!(dark < 0.05 && bright > 0.95);
    }
}
