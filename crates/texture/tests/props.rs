//! Property tests for the texture substrate.

use gwc_math::{Vec2, Vec4};
use gwc_mem::AddressSpace;
use gwc_texture::{dxt, FilterMode, Image, NoopTracker, SampleStats, SamplerState, TexFormat,
                  TexelAddress, TexelTracker, Texture, WrapMode};
use proptest::prelude::*;

/// A deliberately naive texture filter to diff `SamplerState::sample_quad`
/// against: the filter as first written, with a wrap per texel, `/ 255.0`
/// per channel, and texel addresses computed by division from each
/// level's base. It keeps its own copy of the stored texels, rebuilt from
/// the source image through the public DXT codec.
struct NaiveTexture {
    format: TexFormat,
    /// Each level's stored texels and the addresses of its texel (0, 0).
    levels: Vec<(Image, TexelAddress)>,
}

fn naive_dxt_roundtrip(image: &Image, format: TexFormat) -> Image {
    let (w, h) = (image.width(), image.height());
    let mut out = Image::solid(w, h, [0; 4]);
    for by in 0..h.div_ceil(4) {
        for bx in 0..w.div_ceil(4) {
            let block: Vec<[u8; 4]> = (0..16)
                .map(|i| image.get((bx * 4 + i % 4).min(w - 1), (by * 4 + i / 4).min(h - 1)))
                .collect();
            let decoded = dxt::decode_block(&dxt::encode_block(&block, format), format);
            for (i, &texel) in decoded.iter().enumerate() {
                let (x, y) = (bx * 4 + i as u32 % 4, by * 4 + i as u32 / 4);
                if x < w && y < h {
                    out.set(x, y, texel);
                }
            }
        }
    }
    out
}

fn naive_wrap(mode: WrapMode, i: i64, size: u32) -> u32 {
    let n = size as i64;
    match mode {
        WrapMode::Repeat => i.rem_euclid(n) as u32,
        WrapMode::Clamp => i.clamp(0, n - 1) as u32,
        WrapMode::Mirror => {
            let m = i.rem_euclid(2 * n);
            if m < n { m as u32 } else { (2 * n - 1 - m) as u32 }
        }
    }
}

impl NaiveTexture {
    fn new(image: &Image, format: TexFormat, mips: bool, texture: &Texture) -> Self {
        let mut levels = Vec::new();
        let mut current = image.clone();
        loop {
            let stored = if format.is_compressed() {
                naive_dxt_roundtrip(&current, format)
            } else {
                current.clone()
            };
            levels.push((stored, texture.texel_address(levels.len(), 0, 0)));
            if !mips || (current.width() == 1 && current.height() == 1) {
                break;
            }
            current = current.downsample();
        }
        NaiveTexture { format, levels }
    }

    fn dims(&self, level: usize) -> (u32, u32) {
        (self.levels[level].0.width(), self.levels[level].0.height())
    }

    fn fetch(&self, level: usize, x: u32, y: u32, fetched: &mut Vec<TexelAddress>) -> Vec4 {
        let (image, base) = &self.levels[level];
        let w = image.width();
        let tile = (y / 4) as u64 * w.div_ceil(4) as u64 + (x / 4) as u64;
        let within = ((y % 4) * 4 + x % 4) as u64;
        let bd = self.format.block_dim();
        let block = (y / bd) as u64 * w.div_ceil(bd) as u64 + (x / bd) as u64;
        fetched.push(TexelAddress {
            uncompressed: base.uncompressed + (tile * 16 + within) * 4,
            compressed: base.compressed + block * self.format.block_bytes() as u64,
        });
        let t = image.get(x, y);
        Vec4::new(t[0] as f32 / 255.0, t[1] as f32 / 255.0, t[2] as f32 / 255.0, t[3] as f32 / 255.0)
    }

    fn nearest(&self, s: &SamplerState, level: usize, uv: Vec2, fetched: &mut Vec<TexelAddress>) -> Vec4 {
        let (w, h) = self.dims(level);
        let x = naive_wrap(s.wrap, (uv.x * w as f32).floor() as i64, w);
        let y = naive_wrap(s.wrap, (uv.y * h as f32).floor() as i64, h);
        self.fetch(level, x, y, fetched)
    }

    fn bilinear(&self, s: &SamplerState, level: usize, uv: Vec2, fetched: &mut Vec<TexelAddress>) -> Vec4 {
        let (w, h) = self.dims(level);
        let fx = uv.x * w as f32 - 0.5;
        let fy = uv.y * h as f32 - 0.5;
        let (x0, y0) = (fx.floor(), fy.floor());
        let (tx, ty) = (fx - x0, fy - y0);
        let mut acc = Vec4::ZERO;
        for (wy, yy) in [(1.0 - ty, y0 as i64), (ty, y0 as i64 + 1)] {
            for (wx, xx) in [(1.0 - tx, x0 as i64), (tx, x0 as i64 + 1)] {
                let x = naive_wrap(s.wrap, xx, w);
                let y = naive_wrap(s.wrap, yy, h);
                acc += self.fetch(level, x, y, fetched) * (wx * wy);
            }
        }
        acc
    }

    fn trilinear(&self, s: &SamplerState, lambda: f32, uv: Vec2, fetched: &mut Vec<TexelAddress>) -> (Vec4, u64) {
        let l0 = lambda.floor() as usize;
        let frac = lambda - lambda.floor();
        let max_level = self.levels.len() - 1;
        if frac <= f32::EPSILON || l0 >= max_level {
            (self.bilinear(s, l0.min(max_level), uv, fetched), 1)
        } else {
            let a = self.bilinear(s, l0, uv, fetched);
            let b = self.bilinear(s, l0 + 1, uv, fetched);
            (a.lerp(b, frac), 2)
        }
    }

    /// `sample_quad`, one lane and one texel at a time.
    #[allow(clippy::too_many_arguments)]
    fn sample_quad(
        &self,
        s: &SamplerState,
        coords: &[Vec4; 4],
        projective: bool,
        lod_bias: f32,
        active: [bool; 4],
        fetched: &mut Vec<TexelAddress>,
        stats: &mut SampleStats,
    ) -> [Vec4; 4] {
        let uv: Vec<Vec2> = coords
            .iter()
            .map(|c| if projective && c.w != 0.0 { Vec2::new(c.x / c.w, c.y / c.w) } else { Vec2::new(c.x, c.y) })
            .collect();
        let (w0, h0) = self.dims(0);
        let scale = Vec2::new(w0 as f32, h0 as f32);
        let duv_dx = Vec2::new((uv[1].x - uv[0].x) * scale.x, (uv[1].y - uv[0].y) * scale.y);
        let duv_dy = Vec2::new((uv[2].x - uv[0].x) * scale.x, (uv[2].y - uv[0].y) * scale.y);
        let (rho_x, rho_y) = (duv_dx.length(), duv_dy.length());
        let max_level = (self.levels.len() - 1) as f32;
        let mut out = [Vec4::ZERO; 4];
        for lane in (0..4).filter(|&l| active[l]) {
            stats.requests += 1;
            let (color, bilinears) = match s.filter {
                FilterMode::Nearest | FilterMode::Bilinear => {
                    let lambda = rho_x.max(rho_y).max(1e-6).log2() + s.lod_bias + lod_bias;
                    let level = lambda.round().clamp(0.0, max_level) as usize;
                    if s.filter == FilterMode::Nearest {
                        (self.nearest(s, level, uv[lane], fetched), 1)
                    } else {
                        (self.bilinear(s, level, uv[lane], fetched), 1)
                    }
                }
                FilterMode::Trilinear => {
                    let lambda = (rho_x.max(rho_y).max(1e-6).log2() + s.lod_bias + lod_bias)
                        .clamp(0.0, max_level);
                    self.trilinear(s, lambda, uv[lane], fetched)
                }
                FilterMode::Anisotropic(max_aniso) => {
                    let max_aniso = max_aniso.max(1) as f32;
                    let (p_max, p_min, major) =
                        if rho_x >= rho_y { (rho_x, rho_y, duv_dx) } else { (rho_y, rho_x, duv_dy) };
                    let (p_min, p_max) = (p_min.max(1e-6), p_max.max(1e-6));
                    let n = (p_max / p_min).ceil().clamp(1.0, max_aniso) as u32;
                    let lambda = ((p_max / n as f32).max(1e-6).log2() + s.lod_bias + lod_bias)
                        .clamp(0.0, max_level);
                    let major_uv = Vec2::new(major.x / scale.x, major.y / scale.y);
                    let mut acc = Vec4::ZERO;
                    let mut bilinears = 0;
                    for i in 0..n {
                        let t = (2.0 * i as f32 + 1.0) / (2.0 * n as f32) - 0.5;
                        let p = Vec2::new(uv[lane].x + major_uv.x * t, uv[lane].y + major_uv.y * t);
                        let (c, b) = self.trilinear(s, lambda, p, fetched);
                        acc += c;
                        bilinears += b;
                    }
                    (acc / n as f32, bilinears)
                }
            };
            out[lane] = color;
            stats.bilinear_samples += bilinears;
        }
        out
    }
}

/// Records every texel address the filter fetches, in order.
struct Recorder(Vec<TexelAddress>);

impl TexelTracker for Recorder {
    fn fetch(&mut self, address: TexelAddress) {
        self.0.push(address);
    }
}

const LEVEL_SIZES: [u32; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 31, 32, 64];

fn texel() -> impl Strategy<Value = [u8; 4]> {
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b, a)| [r, g, b, a])
}

proptest! {
    /// DXT1 color decode error is bounded: 2-bit palette over the block's
    /// own color range plus RGB565 quantization.
    #[test]
    fn dxt1_error_bounded(texels in prop::collection::vec(texel(), 16)) {
        let enc = dxt::encode_block(&texels, TexFormat::Dxt1);
        let dec = dxt::decode_block(&enc, TexFormat::Dxt1);
        // The palette endpoints are block texels, so every decoded channel
        // lies within the block's own channel range plus 565 quantization.
        for ch in 0..3 {
            let lo = texels.iter().map(|t| t[ch]).min().unwrap() as i32;
            let hi = texels.iter().map(|t| t[ch]).max().unwrap() as i32;
            let bound = (hi - lo) + 24;
            for (orig, got) in texels.iter().zip(dec.iter()) {
                let err = (orig[ch] as i32 - got[ch] as i32).abs();
                prop_assert!(err <= bound, "channel {ch}: err {err} > bound {bound}");
            }
        }
    }

    /// DXT5 alpha decode error is within one palette step of the range.
    #[test]
    fn dxt5_alpha_error_bounded(alphas in prop::collection::vec(any::<u8>(), 16)) {
        let a: [u8; 16] = alphas.try_into().unwrap();
        let dec = dxt::decode_alpha_dxt5(&dxt::encode_alpha_dxt5(&a));
        let lo = *a.iter().min().unwrap() as i32;
        let hi = *a.iter().max().unwrap() as i32;
        let step = ((hi - lo) / 7).max(1) + 1;
        for (orig, got) in a.iter().zip(dec.iter()) {
            prop_assert!((*orig as i32 - *got as i32).abs() <= step,
                "{orig} vs {got} (step {step})");
        }
    }

    /// Sampling a solid-color RGBA8 texture returns that color for every
    /// filter mode, wrap mode and coordinate (filtering is an average).
    #[test]
    fn filtering_preserves_constants(
        r in any::<u8>(), g in any::<u8>(), b in any::<u8>(),
        u in -3.0f32..3.0, v in -3.0f32..3.0,
        filter_idx in 0usize..4,
        wrap_idx in 0usize..3,
        step in 0.001f32..0.3,
    ) {
        let filters = [
            FilterMode::Nearest,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
            FilterMode::Anisotropic(16),
        ];
        let wraps = [WrapMode::Repeat, WrapMode::Clamp, WrapMode::Mirror];
        let mut vram = AddressSpace::new();
        let tex = Texture::from_image(&Image::solid(32, 32, [r, g, b, 255]), TexFormat::Rgba8, true, &mut vram);
        let sampler = SamplerState { wrap: wraps[wrap_idx], filter: filters[filter_idx], lod_bias: 0.0 };
        let coords = [
            Vec4::new(u, v, 0.0, 1.0),
            Vec4::new(u + step, v, 0.0, 1.0),
            Vec4::new(u, v + step, 0.0, 1.0),
            Vec4::new(u + step, v + step, 0.0, 1.0),
        ];
        let mut stats = SampleStats::default();
        let out = sampler.sample_quad(&tex, &coords, false, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        let expect = Vec4::new(r as f32 / 255.0, g as f32 / 255.0, b as f32 / 255.0, 1.0);
        for (lane, &got) in out.iter().enumerate() {
            let d = got - expect;
            prop_assert!(d.dot(d) < 1e-4, "lane {lane}: {got:?} vs {expect:?}");
        }
        prop_assert_eq!(stats.requests, 4);
    }

    /// Bilinear cost accounting: nearest/bilinear = 1, trilinear ≤ 2,
    /// anisotropic ≤ 2×N per request, and ≥ 1 always.
    #[test]
    fn bilinear_cost_bounds(
        max_aniso in 1u8..16,
        ratio in 1.0f32..40.0,
        base in 0.0f32..1.0,
    ) {
        let mut vram = AddressSpace::new();
        let tex = Texture::from_image(&Image::noise(128, 128, 5), TexFormat::Dxt1, true, &mut vram);
        let sampler = SamplerState {
            wrap: WrapMode::Repeat,
            filter: FilterMode::Anisotropic(max_aniso),
            lod_bias: 0.0,
        };
        let du = ratio * 2.0 / 128.0;
        let dv = 2.0 / 128.0;
        let coords = [
            Vec4::new(base, base, 0.0, 1.0),
            Vec4::new(base + du, base, 0.0, 1.0),
            Vec4::new(base, base + dv, 0.0, 1.0),
            Vec4::new(base + du, base + dv, 0.0, 1.0),
        ];
        let mut stats = SampleStats::default();
        sampler.sample_quad(&tex, &coords, false, 0.0, [true; 4], &mut NoopTracker, &mut stats);
        let per_request = stats.bilinear_samples as f64 / stats.requests as f64;
        prop_assert!(per_request >= 1.0);
        prop_assert!(per_request <= 2.0 * max_aniso as f64,
            "cost {per_request} exceeds 2x{max_aniso}");
    }

    /// `sample_quad` gives the naive filter's colors bit for bit, fetches
    /// the same texel addresses in the same order and counts the same
    /// statistics, for every filter and wrap mode, level sizes that are and
    /// are not powers of two, and coordinates far outside [0, 1].
    #[test]
    fn sample_quad_matches_naive_filter(
        size in (prop::sample::select(LEVEL_SIZES.to_vec()), prop::sample::select(LEVEL_SIZES.to_vec())),
        format in prop::sample::select(vec![TexFormat::Rgba8, TexFormat::L8, TexFormat::Dxt1, TexFormat::Dxt5]),
        mips in any::<bool>(),
        filter in prop::sample::select(vec![
            FilterMode::Nearest,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
            FilterMode::Anisotropic(0),
            FilterMode::Anisotropic(4),
            FilterMode::Anisotropic(16),
        ]),
        wrap in prop::sample::select(vec![WrapMode::Repeat, WrapMode::Clamp, WrapMode::Mirror]),
        uv in (-40.0f32..40.0, -40.0f32..40.0),
        footprint in (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -12.0f32..2.0),
        q in (any::<bool>(), 0.25f32..4.0),
        biases in (-2.0f32..2.0, -2.0f32..2.0),
        active in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
    ) {
        let image = Image::noise(size.0, size.1, seed);
        let texture = Texture::from_image(&image, format, mips, &mut AddressSpace::new());
        let naive = NaiveTexture::new(&image, format, mips, &texture);
        prop_assert_eq!(texture.mip_count(), naive.levels.len());
        let sampler = SamplerState { wrap, filter, lod_bias: biases.0 };
        let (projective, w) = q;
        let scale = footprint.4.exp2();
        let lane = |du: f32, dv: f32| {
            let (u, v) = (uv.0 + du * scale, uv.1 + dv * scale);
            if projective { Vec4::new(u * w, v * w, 0.0, w) } else { Vec4::new(u, v, 0.0, 1.0) }
        };
        let coords = [
            lane(0.0, 0.0),
            lane(footprint.0, footprint.1),
            lane(footprint.2, footprint.3),
            lane(footprint.0 + footprint.2, footprint.1 + footprint.3),
        ];
        let active = [active.0, active.1, active.2, active.3];
        let (mut stats, mut want_stats) = (SampleStats::default(), SampleStats::default());
        let mut recorder = Recorder(Vec::new());
        let mut want_fetched = Vec::new();
        let got = sampler.sample_quad(&texture, &coords, projective, biases.1, active, &mut recorder, &mut stats);
        let want = naive.sample_quad(&sampler, &coords, projective, biases.1, active, &mut want_fetched, &mut want_stats);
        let bits = |v: Vec4| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits(), v.w.to_bits()];
        for l in 0..4 {
            prop_assert_eq!(bits(got[l]), bits(want[l]), "lane {}: {:?} vs {:?}", l, got[l], want[l]);
        }
        prop_assert_eq!(recorder.0, want_fetched);
        prop_assert_eq!(stats, want_stats);
    }

    /// Texel addresses stay within each level's allocation and dedupe
    /// correctly across mips.
    #[test]
    fn texel_addresses_consistent(w in 1u32..64, h in 1u32..64) {
        let mut vram = AddressSpace::new();
        let tex = Texture::from_image(&Image::solid(w, h, [1, 2, 3, 4]), TexFormat::Dxt5, true, &mut vram);
        let mut seen = std::collections::HashSet::new();
        for level in 0..tex.mip_count() {
            let (lw, lh) = tex.level_dims(level);
            let a = tex.texel_address(level, 0, 0);
            let b = tex.texel_address(level, lw - 1, lh - 1);
            prop_assert!(b.uncompressed >= a.uncompressed);
            prop_assert!(seen.insert(a.uncompressed), "level base reused");
        }
    }
}
