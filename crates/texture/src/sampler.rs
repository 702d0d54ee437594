//! Texture filtering: bilinear, trilinear and anisotropic sampling with
//! bilinear-throughput accounting.

use gwc_math::{Vec2, Vec4};

use crate::{TexelAddress, Texture};

/// Texture coordinate wrap modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrapMode {
    /// Repeat (tile) the texture.
    #[default]
    Repeat,
    /// Clamp to the edge texel.
    Clamp,
    /// Mirror every other repetition.
    Mirror,
}

impl WrapMode {
    /// Maps an unbounded texel index into `[0, size)`.
    #[inline]
    fn apply(self, i: i64, size: u32) -> u32 {
        let n = size as i64;
        match self {
            WrapMode::Repeat => (i.rem_euclid(n)) as u32,
            WrapMode::Clamp => i.clamp(0, n - 1) as u32,
            WrapMode::Mirror => {
                let period = 2 * n;
                let m = i.rem_euclid(period);
                if m < n {
                    m as u32
                } else {
                    (period - 1 - m) as u32
                }
            }
        }
    }
}

/// Filtering algorithm, in increasing cost order.
///
/// Table XIII of the paper hinges on the *dynamic* cost of these filters:
/// bilinear = 1 sample/cycle, trilinear = 2, anisotropic up to `2 × N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// Nearest texel of the nearest mip level.
    Nearest,
    /// Bilinear within the nearest mip level.
    Bilinear,
    /// Bilinear on two mip levels, interpolated.
    Trilinear,
    /// Anisotropic with up to the given number of trilinear probes along
    /// the major axis of the pixel footprint (2–16 in practice; the games
    /// in Table I use 16×).
    Anisotropic(u8),
}

/// Sampler configuration bound alongside a texture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerState {
    /// Wrap mode for both axes.
    pub wrap: WrapMode,
    /// Filter algorithm.
    pub filter: FilterMode,
    /// Constant LOD bias added to the computed level of detail.
    pub lod_bias: f32,
}

impl Default for SamplerState {
    fn default() -> Self {
        SamplerState { wrap: WrapMode::Repeat, filter: FilterMode::Bilinear, lod_bias: 0.0 }
    }
}

/// Receives every texel fetch the filter performs, so the pipeline can
/// drive its L0/L1 texture caches and count memory traffic.
pub trait TexelTracker {
    /// Called once per texel fetched (4 per bilinear sample).
    fn fetch(&mut self, address: TexelAddress);
}

/// A tracker that ignores all fetches (API-level runs, tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracker;

impl TexelTracker for NoopTracker {
    fn fetch(&mut self, _address: TexelAddress) {}
}

/// Aggregate filtering statistics (feeds Table XIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleStats {
    /// Texture requests (one per live fragment per texture instruction).
    pub requests: u64,
    /// Bilinear samples consumed by those requests.
    pub bilinear_samples: u64,
}

impl SampleStats {
    /// Average bilinear samples per request (Table XIII column 1);
    /// `0.0` when there were no requests.
    pub fn bilinears_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.bilinear_samples as f64 / self.requests as f64
        }
    }

    /// Merges another stats record.
    pub fn merge(&mut self, other: &SampleStats) {
        self.requests += other.requests;
        self.bilinear_samples += other.bilinear_samples;
    }
}

impl SamplerState {
    /// Samples a texture for one fragment quad.
    ///
    /// `coords` are the four lanes' texture coordinates (quad order);
    /// derivatives for LOD are taken across the quad, exactly as the
    /// hardware's 2×2 working unit does. `active` marks live lanes: only
    /// they fetch texels and count toward `stats`.
    ///
    /// Returns the filtered color per lane (inactive lanes return zero).
    #[allow(clippy::too_many_arguments)]
    pub fn sample_quad<T: TexelTracker>(
        &self,
        texture: &Texture,
        coords: &[Vec4; 4],
        projective: bool,
        lod_bias: f32,
        active: [bool; 4],
        tracker: &mut T,
        stats: &mut SampleStats,
    ) -> [Vec4; 4] {
        let uv: [Vec2; 4] = std::array::from_fn(|i| {
            let c = coords[i];
            if projective && c.w != 0.0 {
                Vec2::new(c.x / c.w, c.y / c.w)
            } else {
                Vec2::new(c.x, c.y)
            }
        });
        let (w0, h0) = texture.level_dims(0);
        let scale = Vec2::new(w0 as f32, h0 as f32);
        // Footprint derivatives across the quad, in level-0 texel units.
        let duv_dx = Vec2::new((uv[1].x - uv[0].x) * scale.x, (uv[1].y - uv[0].y) * scale.y);
        let duv_dy = Vec2::new((uv[2].x - uv[0].x) * scale.x, (uv[2].y - uv[0].y) * scale.y);
        let rho_x = duv_dx.length();
        let rho_y = duv_dy.length();

        let max_level = (texture.mip_count() - 1) as f32;
        let mut out = [Vec4::ZERO; 4];
        match self.filter {
            FilterMode::Nearest => {
                let lambda = rho_x.max(rho_y).max(1e-6).log2() + self.lod_bias + lod_bias;
                let level = lambda.round().clamp(0.0, max_level) as usize;
                for lane in 0..4 {
                    if !active[lane] {
                        continue;
                    }
                    out[lane] = self.sample_nearest(texture, level, uv[lane], tracker);
                    stats.requests += 1;
                    stats.bilinear_samples += 1;
                }
            }
            FilterMode::Bilinear => {
                let lambda = rho_x.max(rho_y).max(1e-6).log2() + self.lod_bias + lod_bias;
                let level = lambda.round().clamp(0.0, max_level) as usize;
                for lane in 0..4 {
                    if !active[lane] {
                        continue;
                    }
                    out[lane] = self.sample_bilinear(texture, level, uv[lane], tracker);
                    stats.requests += 1;
                    stats.bilinear_samples += 1;
                }
            }
            FilterMode::Trilinear => {
                let lambda = (rho_x.max(rho_y).max(1e-6).log2() + self.lod_bias + lod_bias)
                    .clamp(0.0, max_level);
                for lane in 0..4 {
                    if !active[lane] {
                        continue;
                    }
                    let (color, bilinears) = self.sample_trilinear(texture, lambda, uv[lane], tracker);
                    out[lane] = color;
                    stats.requests += 1;
                    stats.bilinear_samples += bilinears;
                }
            }
            FilterMode::Anisotropic(max_aniso) => {
                let max_aniso = max_aniso.max(1) as f32;
                let (p_max, p_min, major) = if rho_x >= rho_y {
                    (rho_x, rho_y, duv_dx)
                } else {
                    (rho_y, rho_x, duv_dy)
                };
                let p_min = p_min.max(1e-6);
                let p_max = p_max.max(1e-6);
                let n = (p_max / p_min).ceil().clamp(1.0, max_aniso) as u32;
                let lambda = ((p_max / n as f32).max(1e-6).log2() + self.lod_bias + lod_bias)
                    .clamp(0.0, max_level);
                // Probe offsets along the major axis, back in UV space.
                let major_uv = Vec2::new(major.x / scale.x, major.y / scale.y);
                for lane in 0..4 {
                    if !active[lane] {
                        continue;
                    }
                    let mut acc = Vec4::ZERO;
                    let mut bilinears = 0u64;
                    for i in 0..n {
                        let t = (2.0 * i as f32 + 1.0) / (2.0 * n as f32) - 0.5;
                        let p = Vec2::new(uv[lane].x + major_uv.x * t, uv[lane].y + major_uv.y * t);
                        let (c, b) = self.sample_trilinear(texture, lambda, p, tracker);
                        acc += c;
                        bilinears += b;
                    }
                    out[lane] = acc / n as f32;
                    stats.requests += 1;
                    stats.bilinear_samples += bilinears;
                }
            }
        }
        out
    }

    fn sample_nearest<T: TexelTracker>(
        &self,
        texture: &Texture,
        level: usize,
        uv: Vec2,
        tracker: &mut T,
    ) -> Vec4 {
        let (w, h) = texture.level_dims(level);
        let x = self.wrap.apply((uv.x * w as f32).floor() as i64, w);
        let y = self.wrap.apply((uv.y * h as f32).floor() as i64, h);
        tracker.fetch(texture.texel_address(level, x, y));
        texture.texel(level, x, y)
    }

    fn sample_bilinear<T: TexelTracker>(
        &self,
        texture: &Texture,
        level: usize,
        uv: Vec2,
        tracker: &mut T,
    ) -> Vec4 {
        let (w, h) = texture.level_dims(level);
        let fx = uv.x * w as f32 - 0.5;
        let fy = uv.y * h as f32 - 0.5;
        let x0 = fx.floor();
        let y0 = fy.floor();
        let tx = fx - x0;
        let ty = fy - y0;
        let xi = [x0 as i64, x0 as i64 + 1];
        let yi = [y0 as i64, y0 as i64 + 1];
        let mut acc = Vec4::ZERO;
        for (wy, &yy) in [1.0 - ty, ty].iter().zip(yi.iter()) {
            for (wx, &xx) in [1.0 - tx, tx].iter().zip(xi.iter()) {
                let x = self.wrap.apply(xx, w);
                let y = self.wrap.apply(yy, h);
                tracker.fetch(texture.texel_address(level, x, y));
                acc += texture.texel(level, x, y) * (wx * wy);
            }
        }
        acc
    }

    /// Returns the filtered color and the number of bilinear samples spent
    /// (2 when two levels are blended, 1 at the LOD clamp boundaries).
    fn sample_trilinear<T: TexelTracker>(
        &self,
        texture: &Texture,
        lambda: f32,
        uv: Vec2,
        tracker: &mut T,
    ) -> (Vec4, u64) {
        let l0 = lambda.floor() as usize;
        let frac = lambda - lambda.floor();
        let max_level = texture.mip_count() - 1;
        if frac <= f32::EPSILON || l0 >= max_level {
            (self.sample_bilinear(texture, l0.min(max_level), uv, tracker), 1)
        } else {
            let a = self.sample_bilinear(texture, l0, uv, tracker);
            let b = self.sample_bilinear(texture, l0 + 1, uv, tracker);
            (a.lerp(b, frac), 2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Image, TexFormat};
    use gwc_mem::AddressSpace;

    fn tex(img: &Image, mips: bool) -> Texture {
        Texture::from_image(img, TexFormat::Rgba8, mips, &mut AddressSpace::new())
    }

    /// Quad coords for a pixel footprint of `step` texture-space units.
    fn quad_at(u: f32, v: f32, step: f32) -> [Vec4; 4] {
        [
            Vec4::new(u, v, 0.0, 1.0),
            Vec4::new(u + step, v, 0.0, 1.0),
            Vec4::new(u, v + step, 0.0, 1.0),
            Vec4::new(u + step, v + step, 0.0, 1.0),
        ]
    }

    #[test]
    fn wrap_modes() {
        assert_eq!(WrapMode::Repeat.apply(-1, 8), 7);
        assert_eq!(WrapMode::Repeat.apply(8, 8), 0);
        assert_eq!(WrapMode::Clamp.apply(-5, 8), 0);
        assert_eq!(WrapMode::Clamp.apply(100, 8), 7);
        assert_eq!(WrapMode::Mirror.apply(8, 8), 7);
        assert_eq!(WrapMode::Mirror.apply(-1, 8), 0);
        assert_eq!(WrapMode::Mirror.apply(15, 8), 0);
    }

    #[test]
    fn bilinear_blends_texels() {
        // 2x1 image, black and white: sampling at the midpoint gives grey.
        let mut img = Image::solid(2, 1, [0, 0, 0, 255]);
        img.set(1, 0, [255, 255, 255, 255]);
        let t = tex(&img, false);
        let s = SamplerState { filter: FilterMode::Bilinear, wrap: WrapMode::Clamp, lod_bias: 0.0 };
        let mut stats = SampleStats::default();
        // Midpoint of the two texel centers: u = 0.5.
        let out = s.sample_quad(&t, &quad_at(0.5, 0.5, 0.0), false, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        assert!((out[0].x - 0.5).abs() < 0.01, "got {}", out[0].x);
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.bilinear_samples, 4);
    }

    #[test]
    fn texel_center_returns_exact_color() {
        let mut img = Image::solid(4, 4, [0, 0, 0, 255]);
        img.set(2, 1, [255, 0, 0, 255]);
        let t = tex(&img, false);
        let s = SamplerState { filter: FilterMode::Bilinear, wrap: WrapMode::Clamp, lod_bias: 0.0 };
        let mut stats = SampleStats::default();
        // Texel (2,1) center: u = 2.5/4, v = 1.5/4.
        let out = s.sample_quad(
            &t,
            &quad_at(2.5 / 4.0, 1.5 / 4.0, 0.0),
            false,
            0.0,
            [true; 4],
            &mut NoopTracker,
            &mut stats,
        );
        assert!((out[0].x - 1.0).abs() < 1e-5);
        assert!(out[0].y.abs() < 1e-5);
    }

    #[test]
    fn minification_selects_coarser_mip() {
        // Checkerboard: level 0 is high contrast, deep mips are grey.
        let img = Image::checkerboard(64, 64, 1, [255, 255, 255, 255], [0, 0, 0, 255]);
        let t = tex(&img, true);
        let s = SamplerState { filter: FilterMode::Bilinear, wrap: WrapMode::Repeat, lod_bias: 0.0 };
        let mut stats = SampleStats::default();
        // Footprint of 16 texels per pixel -> lambda = 4 -> nearly grey.
        let out = s.sample_quad(&t, &quad_at(0.25, 0.25, 16.0 / 64.0), false, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        assert!((out[0].x - 0.5).abs() < 0.1, "expected grey, got {}", out[0].x);
    }

    #[test]
    fn trilinear_costs_two_bilinears_when_between_levels() {
        let img = Image::solid(64, 64, [100; 4]);
        let t = tex(&img, true);
        let s = SamplerState { filter: FilterMode::Trilinear, wrap: WrapMode::Repeat, lod_bias: 0.0 };
        let mut stats = SampleStats::default();
        // Footprint ~3 texels -> lambda ≈ 1.58: blends levels 1 and 2.
        s.sample_quad(&t, &quad_at(0.5, 0.5, 3.0 / 64.0), false, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.bilinear_samples, 8);
    }

    #[test]
    fn trilinear_at_magnification_costs_one() {
        let img = Image::solid(64, 64, [100; 4]);
        let t = tex(&img, true);
        let s = SamplerState { filter: FilterMode::Trilinear, wrap: WrapMode::Repeat, lod_bias: 0.0 };
        let mut stats = SampleStats::default();
        // Footprint under 1 texel: magnification, lambda clamps to 0.
        s.sample_quad(&t, &quad_at(0.5, 0.5, 0.25 / 64.0), false, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        assert_eq!(stats.bilinear_samples, 4);
    }

    #[test]
    fn anisotropic_cost_scales_with_footprint_ratio() {
        let img = Image::solid(256, 256, [100; 4]);
        let t = tex(&img, true);
        let s = SamplerState {
            filter: FilterMode::Anisotropic(16),
            wrap: WrapMode::Repeat,
            lod_bias: 0.0,
        };
        // Anisotropic footprint: 8 texels in x, 1 in y -> 8 probes.
        let coords = [
            Vec4::new(0.5, 0.5, 0.0, 1.0),
            Vec4::new(0.5 + 8.0 / 256.0, 0.5, 0.0, 1.0),
            Vec4::new(0.5, 0.5 + 1.0 / 256.0, 0.0, 1.0),
            Vec4::new(0.5 + 8.0 / 256.0, 0.5 + 1.0 / 256.0, 0.0, 1.0),
        ];
        let mut stats = SampleStats::default();
        s.sample_quad(&t, &coords, false, 0.0, [true, false, false, false], &mut NoopTracker, &mut stats);
        assert_eq!(stats.requests, 1);
        // 8 probes; each trilinear probe costs 1-2 bilinears.
        assert!(stats.bilinear_samples >= 8 && stats.bilinear_samples <= 16,
                "got {}", stats.bilinear_samples);
    }

    #[test]
    fn anisotropic_ratio_clamped_to_max() {
        let img = Image::solid(256, 256, [100; 4]);
        let t = tex(&img, true);
        let s = SamplerState {
            filter: FilterMode::Anisotropic(4),
            wrap: WrapMode::Repeat,
            lod_bias: 0.0,
        };
        // 32:1 anisotropy but max 4 probes.
        let coords = [
            Vec4::new(0.5, 0.5, 0.0, 1.0),
            Vec4::new(0.5 + 32.0 / 256.0, 0.5, 0.0, 1.0),
            Vec4::new(0.5, 0.5 + 1.0 / 256.0, 0.0, 1.0),
            Vec4::new(0.5 + 32.0 / 256.0, 0.5 + 1.0 / 256.0, 0.0, 1.0),
        ];
        let mut stats = SampleStats::default();
        s.sample_quad(&t, &coords, false, 0.0, [true, false, false, false], &mut NoopTracker, &mut stats);
        assert!(stats.bilinear_samples <= 8, "got {}", stats.bilinear_samples);
        assert!(stats.bilinear_samples >= 4);
    }

    #[test]
    fn isotropic_footprint_single_probe() {
        let img = Image::solid(64, 64, [100; 4]);
        let t = tex(&img, true);
        let s = SamplerState {
            filter: FilterMode::Anisotropic(16),
            wrap: WrapMode::Repeat,
            lod_bias: 0.0,
        };
        let mut stats = SampleStats::default();
        s.sample_quad(&t, &quad_at(0.5, 0.5, 1.0 / 64.0), false, 0.0, [true, false, false, false], &mut NoopTracker, &mut stats);
        // Square footprint: 1 probe, 1:1 ratio.
        assert!(stats.bilinear_samples <= 2);
    }

    #[test]
    fn inactive_lanes_do_not_sample() {
        let img = Image::solid(8, 8, [100; 4]);
        let t = tex(&img, false);
        let s = SamplerState::default();
        let mut stats = SampleStats::default();
        let out = s.sample_quad(&t, &quad_at(0.5, 0.5, 0.125), false, 0.0, [false; 4], &mut NoopTracker, &mut stats);
        assert_eq!(stats.requests, 0);
        assert_eq!(out[0], Vec4::ZERO);
    }

    #[test]
    fn tracker_sees_four_fetches_per_bilinear() {
        struct Count(u64);
        impl TexelTracker for Count {
            fn fetch(&mut self, _a: TexelAddress) {
                self.0 += 1;
            }
        }
        let img = Image::solid(8, 8, [100; 4]);
        let t = tex(&img, false);
        let s = SamplerState::default();
        let mut stats = SampleStats::default();
        let mut tr = Count(0);
        s.sample_quad(&t, &quad_at(0.3, 0.3, 0.0), false, 0.0, [true, false, false, false], &mut tr, &mut stats);
        assert_eq!(tr.0, 4);
    }

    #[test]
    fn projective_divides_by_w() {
        let mut img = Image::solid(4, 4, [0, 0, 0, 255]);
        img.set(2, 1, [255, 0, 0, 255]);
        let t = tex(&img, false);
        let s = SamplerState { filter: FilterMode::Bilinear, wrap: WrapMode::Clamp, lod_bias: 0.0 };
        let mut stats = SampleStats::default();
        // coords scaled by w=2: (1.25, 0.75, _, 2) -> uv (0.625, 0.375) = texel (2,1) center.
        let c = Vec4::new(2.0 * 2.5 / 4.0, 2.0 * 1.5 / 4.0, 0.0, 2.0);
        let out = s.sample_quad(&t, &[c; 4], true, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        assert!((out[0].x - 1.0).abs() < 1e-5);
    }

    #[test]
    fn stats_ratio() {
        let mut s = SampleStats { requests: 4, bilinear_samples: 18 };
        assert!((s.bilinears_per_request() - 4.5).abs() < 1e-12);
        s.merge(&SampleStats { requests: 1, bilinear_samples: 2 });
        assert_eq!(s.requests, 5);
        assert_eq!(s.bilinear_samples, 20);
        assert_eq!(SampleStats::default().bilinears_per_request(), 0.0);
    }
}
