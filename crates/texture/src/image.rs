//! CPU-side RGBA images: the source data textures are built from.

/// An RGBA8 image in row-major order.
///
/// Images are the input to [`Texture::from_image`](crate::Texture::from_image)
/// and also serve as mip-level storage after decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    texels: Vec<[u8; 4]>,
}

impl Image {
    /// Creates a solid-color image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn solid(width: u32, height: u32, color: [u8; 4]) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image { width, height, texels: vec![color; (width * height) as usize] }
    }

    /// Creates an image from a generator function `f(x, y)`.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> [u8; 4]) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let mut texels = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            for x in 0..width {
                texels.push(f(x, y));
            }
        }
        Image { width, height, texels }
    }

    /// A checkerboard of `cell`-sized squares — the classic mipmap/filtering
    /// test pattern.
    pub fn checkerboard(width: u32, height: u32, cell: u32, a: [u8; 4], b: [u8; 4]) -> Self {
        let cell = cell.max(1);
        Image::from_fn(width, height, |x, y| {
            if ((x / cell) + (y / cell)).is_multiple_of(2) {
                a
            } else {
                b
            }
        })
    }

    /// A deterministic value-noise image (hash-based, no dependencies) —
    /// used by the synthetic workloads for surface detail.
    pub fn noise(width: u32, height: u32, seed: u64) -> Self {
        let hash = |x: u32, y: u32| -> u8 {
            let mut h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((x as u64) << 32 | y as u64);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            (h & 0xff) as u8
        };
        Image::from_fn(width, height, |x, y| {
            let v = hash(x, y);
            [v, v.wrapping_add(hash(y, x) / 4), v / 2 + 64, 255]
        })
    }

    /// Image width in texels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in texels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Texel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> [u8; 4] {
        assert!(x < self.width && y < self.height, "texel ({x},{y}) out of bounds");
        self.texels[(y * self.width + x) as usize]
    }

    /// Sets the texel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, color: [u8; 4]) {
        assert!(x < self.width && y < self.height, "texel ({x},{y}) out of bounds");
        self.texels[(y * self.width + x) as usize] = color;
    }

    /// Raw texel storage.
    pub fn texels(&self) -> &[[u8; 4]] {
        &self.texels
    }

    /// Box-filter downsample to half resolution (minimum 1×1). This is the
    /// standard mipmap generation filter.
    pub fn downsample(&self) -> Image {
        let nw = (self.width / 2).max(1);
        let nh = (self.height / 2).max(1);
        Image::from_fn(nw, nh, |x, y| {
            let x0 = (2 * x).min(self.width - 1);
            let x1 = (2 * x + 1).min(self.width - 1);
            let y0 = (2 * y).min(self.height - 1);
            let y1 = (2 * y + 1).min(self.height - 1);
            let mut acc = [0u32; 4];
            for (sx, sy) in [(x0, y0), (x1, y0), (x0, y1), (x1, y1)] {
                let t = self.get(sx, sy);
                for c in 0..4 {
                    acc[c] += t[c] as u32;
                }
            }
            [(acc[0] / 4) as u8, (acc[1] / 4) as u8, (acc[2] / 4) as u8, (acc[3] / 4) as u8]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solid_is_uniform() {
        let img = Image::solid(4, 3, [9, 8, 7, 6]);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert!(img.texels().iter().all(|&t| t == [9, 8, 7, 6]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        Image::solid(0, 4, [0; 4]);
    }

    #[test]
    fn checkerboard_alternates() {
        let img = Image::checkerboard(4, 4, 2, [255; 4], [0; 4]);
        assert_eq!(img.get(0, 0), [255; 4]);
        assert_eq!(img.get(2, 0), [0; 4]);
        assert_eq!(img.get(2, 2), [255; 4]);
        assert_eq!(img.get(0, 2), [0; 4]);
    }

    #[test]
    fn noise_is_deterministic_and_varied() {
        let a = Image::noise(16, 16, 42);
        let b = Image::noise(16, 16, 42);
        assert_eq!(a, b);
        let c = Image::noise(16, 16, 43);
        assert_ne!(a, c);
        let first = a.get(0, 0);
        assert!(a.texels().iter().any(|&t| t != first), "noise should vary");
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = Image::solid(8, 4, [100; 4]);
        let d = img.downsample();
        assert_eq!((d.width(), d.height()), (4, 2));
        assert_eq!(d.get(0, 0), [100; 4]);
    }

    #[test]
    fn downsample_averages() {
        let mut img = Image::solid(2, 2, [0; 4]);
        img.set(0, 0, [255, 0, 0, 255]);
        img.set(1, 0, [0, 255, 0, 255]);
        let d = img.downsample();
        assert_eq!((d.width(), d.height()), (1, 1));
        let t = d.get(0, 0);
        assert_eq!(t[0], 63);
        assert_eq!(t[1], 63);
        assert_eq!(t[3], 127);
    }

    #[test]
    fn downsample_to_one_texel_terminates() {
        let mut img = Image::solid(16, 4, [7; 4]);
        for _ in 0..10 {
            img = img.downsample();
        }
        assert_eq!((img.width(), img.height()), (1, 1));
    }

    #[test]
    fn downsample_odd_dimensions() {
        let img = Image::solid(5, 3, [50; 4]);
        let d = img.downsample();
        assert_eq!((d.width(), d.height()), (2, 1));
    }
}
