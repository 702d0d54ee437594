//! AIWC-style architecture-independent feature vectors.
//!
//! A feature vector condenses one workload run into a fixed set of
//! architecture-independent ratios (per-frame work, geometry fates, depth
//! complexity, shader mix, cache hit rates, bandwidth split). Vectors from
//! different scenarios — generated or captured — live in the same space,
//! so workloads become *comparable*: z-score the population, then rank by
//! Euclidean distance (the methodology of the AIWC workload-diversity
//! work, applied to the paper's counters).
//!
//! The inputs are plain numbers, not simulator types: this crate stays a
//! leaf, and any counter source (the pipeline, a trace, a CSV) can feed it.

/// Names of the vector components, in storage order.
///
/// The order is part of the CSV format: changing it invalidates persisted
/// sweep artifacts, so append rather than reorder.
pub const FEATURE_NAMES: [&str; 20] = [
    "triangles_per_frame",
    "batches_per_frame",
    "indices_per_batch",
    "state_calls_per_batch",
    "vcache_hit_rate",
    "clipped_frac",
    "culled_frac",
    "depth_complexity",
    "overdraw_shaded",
    "hz_removed_share",
    "alpha_removed_share",
    "texels_per_fragment",
    "alu_tex_ratio",
    "z_hit_rate",
    "color_hit_rate",
    "tex_l0_hit_rate",
    "tex_l1_hit_rate",
    "bw_texture_share",
    "bw_zstencil_share",
    "bw_color_share",
];

/// Number of features in a vector.
pub const FEATURE_COUNT: usize = FEATURE_NAMES.len();

/// Raw counters a run must supply to compute its feature vector.
///
/// All fields are totals over the run (not per-frame), except the
/// pre-divided cache hit rates and bandwidth shares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeatureInputs {
    /// Frames in the run.
    pub frames: f64,
    /// Render-target pixels (width × height).
    pub pixels: f64,
    /// API-level draw batches.
    pub batches: f64,
    /// API-level indices submitted.
    pub api_indices: f64,
    /// API-level state-change calls.
    pub state_calls: f64,
    /// Triangles assembled by the geometry front end.
    pub assembled: f64,
    /// Triangles rejected by the clipper.
    pub clipped: f64,
    /// Triangles rejected by back-face culling.
    pub culled: f64,
    /// Indices processed by the vertex fetch stage.
    pub geom_indices: f64,
    /// Post-transform vertex cache hits.
    pub vcache_hits: f64,
    /// Fragments generated by the rasterizer.
    pub frags_raster: f64,
    /// Fragments that reached the fragment shader.
    pub frags_shaded: f64,
    /// Quads removed by hierarchical Z.
    pub quads_hz_removed: f64,
    /// Quads removed by alpha test.
    pub quads_alpha_removed: f64,
    /// Quads produced by the rasterizer.
    pub quads_raster: f64,
    /// Fragment shader instructions executed.
    pub fs_instructions: f64,
    /// Fragment shader texture instructions executed.
    pub fs_tex_instructions: f64,
    /// Bilinear samples performed by the texture units.
    pub bilinear_samples: f64,
    /// Z/stencil cache hit rate (0–1).
    pub z_hit_rate: f64,
    /// Color cache hit rate (0–1).
    pub color_hit_rate: f64,
    /// Texture L0 cache hit rate (0–1).
    pub tex_l0_hit_rate: f64,
    /// Texture L1 cache hit rate (0–1).
    pub tex_l1_hit_rate: f64,
    /// Texture share of memory traffic (0–1).
    pub bw_texture_share: f64,
    /// Z/stencil share of memory traffic (0–1).
    pub bw_zstencil_share: f64,
    /// Color share of memory traffic (0–1).
    pub bw_color_share: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One workload's architecture-independent feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// Display label (scenario name plus seed, or game name).
    pub label: String,
    /// Component values, in [`FEATURE_NAMES`] order.
    pub values: [f64; FEATURE_COUNT],
}

impl FeatureVector {
    /// Computes the vector from raw run counters.
    pub fn from_inputs(label: &str, inp: &FeatureInputs) -> Self {
        let area = inp.frames * inp.pixels;
        let alu = (inp.fs_instructions - inp.fs_tex_instructions).max(0.0);
        let values = [
            ratio(inp.assembled, inp.frames),
            ratio(inp.batches, inp.frames),
            ratio(inp.api_indices, inp.batches),
            ratio(inp.state_calls, inp.batches),
            ratio(inp.vcache_hits, inp.geom_indices),
            ratio(inp.clipped, inp.assembled),
            ratio(inp.culled, inp.assembled),
            ratio(inp.frags_raster, area),
            ratio(inp.frags_shaded, area),
            ratio(inp.quads_hz_removed, inp.quads_raster),
            ratio(inp.quads_alpha_removed, inp.quads_raster),
            ratio(inp.bilinear_samples, inp.frags_shaded),
            if inp.fs_tex_instructions > 0.0 {
                alu / inp.fs_tex_instructions
            } else {
                alu
            },
            inp.z_hit_rate,
            inp.color_hit_rate,
            inp.tex_l0_hit_rate,
            inp.tex_l1_hit_rate,
            inp.bw_texture_share,
            inp.bw_zstencil_share,
            inp.bw_color_share,
        ];
        FeatureVector { label: label.to_string(), values }
    }

    /// Looks a component up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        FEATURE_NAMES.iter().position(|&n| n == name).map(|i| self.values[i])
    }

    /// The CSV header row matching [`Self::to_csv_row`].
    pub fn csv_header() -> String {
        let mut s = String::from("label");
        for name in FEATURE_NAMES {
            s.push(',');
            s.push_str(name);
        }
        s
    }

    /// One CSV data row: label plus fixed-precision components.
    pub fn to_csv_row(&self) -> String {
        let mut s = self.label.clone();
        for v in self.values {
            s.push(',');
            s.push_str(&format!("{v:.6}"));
        }
        s
    }

    /// Parses a row produced by [`Self::to_csv_row`].
    pub fn from_csv_row(line: &str) -> Result<Self, String> {
        let mut parts = line.split(',');
        let label = parts.next().ok_or("empty feature row")?.to_string();
        let mut values = [0.0; FEATURE_COUNT];
        for (i, slot) in values.iter_mut().enumerate() {
            let field = parts
                .next()
                .ok_or_else(|| format!("feature row for `{label}` has {i} of {FEATURE_COUNT} values"))?;
            *slot = field
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("feature `{}` of `{label}`: {e}", FEATURE_NAMES[i]))?;
        }
        if parts.next().is_some() {
            return Err(format!("feature row for `{label}` has more than {FEATURE_COUNT} values"));
        }
        Ok(FeatureVector { label, values })
    }
}

/// A scenario's distance to its nearest reference workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// The scenario label.
    pub label: String,
    /// Label of the nearest reference vector.
    pub nearest: String,
    /// Euclidean distance in z-scored feature space.
    pub distance: f64,
}

/// Per-component mean and standard deviation over a population.
fn population_stats(pop: &[&FeatureVector]) -> ([f64; FEATURE_COUNT], [f64; FEATURE_COUNT]) {
    let n = pop.len().max(1) as f64;
    let mut mean = [0.0; FEATURE_COUNT];
    let mut sd = [0.0; FEATURE_COUNT];
    for v in pop {
        for (m, x) in mean.iter_mut().zip(v.values) {
            *m += x / n;
        }
    }
    for v in pop {
        for ((s, m), x) in sd.iter_mut().zip(mean).zip(v.values) {
            *s += (x - m) * (x - m) / n;
        }
    }
    for s in &mut sd {
        *s = s.sqrt();
    }
    (mean, sd)
}

fn zscore(v: &FeatureVector, mean: &[f64; FEATURE_COUNT], sd: &[f64; FEATURE_COUNT]) -> [f64; FEATURE_COUNT] {
    let mut out = [0.0; FEATURE_COUNT];
    for i in 0..FEATURE_COUNT {
        if sd[i] > 1e-12 {
            out[i] = (v.values[i] - mean[i]) / sd[i];
        }
    }
    out
}

/// Ranks `cells` by distance to the nearest of `references`, nearest-first.
///
/// Both sets are z-score normalized over the *pooled* population so no
/// single large-magnitude feature (e.g. triangles/frame) dominates the
/// distance. Constant components (zero variance) are ignored.
pub fn rank_against(cells: &[FeatureVector], references: &[FeatureVector]) -> Vec<Ranking> {
    if references.is_empty() {
        return cells
            .iter()
            .map(|c| Ranking { label: c.label.clone(), nearest: String::from("-"), distance: 0.0 })
            .collect();
    }
    let pool: Vec<&FeatureVector> = cells.iter().chain(references.iter()).collect();
    let (mean, sd) = population_stats(&pool);
    let ref_z: Vec<(&str, [f64; FEATURE_COUNT])> = references
        .iter()
        .map(|r| (r.label.as_str(), zscore(r, &mean, &sd)))
        .collect();
    let mut out: Vec<Ranking> = cells
        .iter()
        .map(|c| {
            let cz = zscore(c, &mean, &sd);
            let (nearest, d2) = ref_z
                .iter()
                .map(|(name, rz)| {
                    let d2: f64 =
                        cz.iter().zip(rz).map(|(a, b)| (a - b) * (a - b)).sum();
                    (*name, d2)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("references nonempty");
            Ranking { label: c.label.clone(), nearest: nearest.to_string(), distance: d2.sqrt() }
        })
        .collect();
    out.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.label.cmp(&b.label)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: &str, scale: f64) -> FeatureVector {
        let inp = FeatureInputs {
            frames: 10.0,
            pixels: 1000.0,
            batches: 500.0 * scale,
            api_indices: 300_000.0 * scale,
            state_calls: 900.0,
            assembled: 90_000.0 * scale,
            clipped: 20_000.0,
            culled: 25_000.0,
            geom_indices: 280_000.0,
            vcache_hits: 150_000.0,
            frags_raster: 40_000.0,
            frags_shaded: 25_000.0,
            quads_hz_removed: 2_000.0,
            quads_alpha_removed: 500.0,
            quads_raster: 10_000.0,
            fs_instructions: 200_000.0,
            fs_tex_instructions: 50_000.0,
            bilinear_samples: 60_000.0,
            z_hit_rate: 0.9,
            color_hit_rate: 0.8,
            tex_l0_hit_rate: 0.95,
            tex_l1_hit_rate: 0.7,
            bw_texture_share: 0.3,
            bw_zstencil_share: 0.35,
            bw_color_share: 0.25,
        };
        FeatureVector::from_inputs(label, &inp)
    }

    #[test]
    fn derivations() {
        let v = sample("s", 1.0);
        assert_eq!(v.get("triangles_per_frame"), Some(9_000.0));
        assert_eq!(v.get("indices_per_batch"), Some(600.0));
        assert_eq!(v.get("depth_complexity"), Some(4.0));
        assert_eq!(v.get("alu_tex_ratio"), Some(3.0));
        assert_eq!(v.get("bw_color_share"), Some(0.25));
    }

    #[test]
    fn zero_denominators_are_zero() {
        let v = FeatureVector::from_inputs("empty", &FeatureInputs::default());
        assert!(v.values.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn csv_round_trip() {
        let v = sample("scn:corridor+prepass+sorted#7", 1.0);
        let row = v.to_csv_row();
        let back = FeatureVector::from_csv_row(&row).unwrap();
        assert_eq!(back.label, v.label);
        for (a, b) in back.values.iter().zip(v.values) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(
            FeatureVector::csv_header().split(',').count(),
            FEATURE_COUNT + 1
        );
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(FeatureVector::from_csv_row("just-a-label,1.0,2.0").is_err());
        let too_many = format!("x,{}", vec!["1.0"; FEATURE_COUNT + 1].join(","));
        assert!(FeatureVector::from_csv_row(&too_many).is_err());
        let bad = format!("x,oops{}", ",1.0".repeat(FEATURE_COUNT - 1));
        assert!(FeatureVector::from_csv_row(&bad).is_err());
    }

    #[test]
    fn ranking_orders_by_distance() {
        let refs = vec![sample("game-a", 1.0), sample("game-b", 4.0)];
        let cells = vec![sample("near-a", 1.05), sample("near-b", 3.9), sample("far", 10.0)];
        let ranked = rank_against(&cells, &refs);
        assert_eq!(ranked.len(), 3);
        // Each near cell maps to its own reference; the outlier sorts last.
        let near_a = ranked.iter().find(|r| r.label == "near-a").unwrap();
        let near_b = ranked.iter().find(|r| r.label == "near-b").unwrap();
        assert_eq!(near_a.nearest, "game-a");
        assert_eq!(near_b.nearest, "game-b");
        assert_eq!(ranked[2].label, "far");
        assert!(ranked[2].distance > near_a.distance.max(near_b.distance));
    }
}
