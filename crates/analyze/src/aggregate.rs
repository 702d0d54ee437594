//! Cross-run aggregation on the work-tick clock.
//!
//! Everything here is a pure, deterministic function of the (already
//! sorted) [`RunIndex`]: per-stage and per-stripe occupied-tick
//! utilization, bottleneck attribution, cache-sensitivity spreads across
//! configs, replica-divergence checks, and trace-derived feature vectors
//! ranked against each workload group's centroid.

use std::collections::BTreeMap;

use gwc_stats::{rank_against, FeatureInputs, FeatureVector, Ranking};
use gwc_telemetry::reader::TraceFile;
use gwc_telemetry::{pct, Stage};

use crate::ingest::{Run, RunIndex, Skipped};

/// The stages the report carries shares for, in fixed column order:
/// the command processor (draw spans), the geometry front end, and the
/// five per-stripe stages. `Frame` is the envelope every other span
/// lives inside and `Clear` is instantaneous, so neither is reported.
/// Bottleneck attribution considers the execution stages only (Draw is
/// itself an envelope around the per-draw pipeline work).
pub const ATTRIBUTION_STAGES: [Stage; 7] = [
    Stage::Draw,
    Stage::Geometry,
    Stage::Raster,
    Stage::HiZ,
    Stage::ZStencil,
    Stage::Shade,
    Stage::Blend,
];

/// The cache columns reported per run, in fixed order.
pub const CACHE_NAMES: [&str; 4] = ["z", "color", "tex_l0", "tex_l1"];

/// Analytics for one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Game or scenario name.
    pub workload: String,
    /// Configuration key (`WxH/fN`).
    pub config: String,
    /// Manifest seed, when known.
    pub seed: Option<u64>,
    /// Trace path relative to the scan root.
    pub rel_path: String,
    /// Display label (`workload@config#seed`).
    pub label: String,
    /// Frame rows in the trace.
    pub frames: usize,
    /// Work tick the trace ends at.
    pub end_tick: u64,
    /// Total spans decoded.
    pub spans: u64,
    /// Spans dropped to ring overflow at record time.
    pub dropped: u64,
    /// Occupied-tick share per [`ATTRIBUTION_STAGES`] entry: occupied
    /// ticks (summed across stripes) divided by the run's end tick.
    /// Stripe-parallel stages can sum above 1.0 — that is utilization ×
    /// parallelism, exactly what attribution wants.
    pub stage_share: [f64; 7],
    /// Occupied ticks per stripe × [`gwc_telemetry::STRIPE_STAGES`] slot.
    pub stripe_occupied: Vec<[u64; 5]>,
    /// Top stage by occupied-tick share, `-` when the trace has no spans
    /// (counters-level traces).
    pub bottleneck: String,
    /// The top stage's share.
    pub bottleneck_share: f64,
    /// Cache hit percentages over the whole run, [`CACHE_NAMES`] order.
    pub cache_hit_pct: [f64; 4],
    /// Trace-derived feature vector.
    pub features: FeatureVector,
}

/// Analytics for one workload group (all runs of one game/scenario).
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Game or scenario name.
    pub workload: String,
    /// Runs in the group.
    pub runs: usize,
    /// Distinct configurations in the group.
    pub configs: usize,
    /// Mean occupied-tick share per [`ATTRIBUTION_STAGES`] entry.
    pub stage_share: [f64; 7],
    /// Top stage of the mean shares.
    pub bottleneck: String,
    /// The top stage's mean share.
    pub bottleneck_share: f64,
    /// Cache sensitivity: max − min hit percentage across the group's
    /// configs (per-config means), [`CACHE_NAMES`] order. Zero when the
    /// group has a single config.
    pub cache_spread_pct: [f64; 4],
    /// Feature-vector centroid (labelled with the workload name).
    pub centroid: FeatureVector,
}

/// The full cross-run report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-run analytics, in index (sorted) order.
    pub runs: Vec<RunReport>,
    /// Per-workload analytics, sorted by workload name.
    pub groups: Vec<GroupReport>,
    /// Every run ranked by feature-space distance to the nearest group
    /// centroid, nearest first.
    pub rankings: Vec<Ranking>,
    /// Keys whose replicas diverge: runs sharing (workload, config,
    /// seed) must be byte-identical — traces are thread-invariant — so
    /// any entry here is a determinism violation worth investigating.
    pub divergent: Vec<String>,
    /// Files the scan skipped, with reasons.
    pub skipped: Vec<Skipped>,
}

fn occupied_per_stage(trace: &TraceFile) -> [u64; 7] {
    let mut occupied = [0u64; 7];
    for ring in &trace.rings {
        for span in &ring.spans {
            if let Some(i) = ATTRIBUTION_STAGES.iter().position(|s| *s == span.stage) {
                occupied[i] += span.dur;
            }
        }
    }
    occupied
}

fn stripe_occupied(trace: &TraceFile) -> Vec<[u64; 5]> {
    trace
        .stripe_rings()
        .iter()
        .map(|ring| {
            let mut row = [0u64; 5];
            for span in &ring.spans {
                if let Some(slot) = span.stage.stripe_slot() {
                    row[slot] += span.dur;
                }
            }
            row
        })
        .collect()
}

fn top_stage(shares: &[f64; 7]) -> (String, f64) {
    // Draw (slot 0) is the frontend envelope — its spans bracket the
    // work the other stages do, so it would win every attribution.
    // The bottleneck is the busiest *execution* stage; Draw still
    // appears in the per-stage share columns.
    let mut best = None::<(usize, f64)>;
    for (i, &s) in shares.iter().enumerate().skip(1) {
        if s > 0.0 && best.is_none_or(|(_, b)| s > b) {
            best = Some((i, s));
        }
    }
    match best {
        Some((i, s)) => (ATTRIBUTION_STAGES[i].name().to_owned(), s),
        None => ("-".to_owned(), 0.0),
    }
}

fn cache_hit_pct(trace: &TraceFile) -> [f64; 4] {
    let mut acc = [(0u64, 0u64); 4];
    for f in &trace.frames {
        let pairs = [
            (f.z_accesses, f.z_hits),
            (f.color_accesses, f.color_hits),
            (f.tex_l0_accesses, f.tex_l0_hits),
            (f.tex_l1_accesses, f.tex_l1_hits),
        ];
        for (slot, (a, h)) in acc.iter_mut().zip(pairs) {
            slot.0 += a;
            slot.1 += h;
        }
    }
    [
        pct(acc[0].1, acc[0].0),
        pct(acc[1].1, acc[1].0),
        pct(acc[2].1, acc[2].0),
        pct(acc[3].1, acc[3].0),
    ]
}

/// Share of total memory traffic carried by the named client, 0 when the
/// client is absent or the trace moved no bytes.
fn client_share(trace: &TraceFile, client: &str) -> f64 {
    let Some(i) = trace.meta.clients.iter().position(|c| c == client) else { return 0.0 };
    let mut client_bytes = 0u64;
    let mut total = 0u64;
    for f in &trace.frames {
        client_bytes += f.bw_read.get(i).copied().unwrap_or(0);
        client_bytes += f.bw_written.get(i).copied().unwrap_or(0);
        total += f.total_read() + f.total_written();
    }
    if total == 0 {
        0.0
    } else {
        client_bytes as f64 / total as f64
    }
}

/// Reduces a trace to the feature subspace GWTB carries. Counters the
/// container does not record (state calls, clip/cull fates, shader
/// instruction mix) stay zero — every run is reduced identically, so
/// vectors remain comparable within a report even though they are not
/// interchangeable with the pipeline-measured vectors of `repro sweep`.
fn trace_features(label: &str, trace: &TraceFile) -> FeatureVector {
    let frames = &trace.frames;
    let sum = |f: fn(&gwc_telemetry::FrameSample) -> u64| -> f64 {
        frames.iter().map(|s| f(s) as f64).sum()
    };
    let hit = cache_hit_pct(trace);
    let inputs = FeatureInputs {
        frames: frames.len() as f64,
        pixels: f64::from(trace.meta.width) * f64::from(trace.meta.height),
        batches: sum(|f| f.batches),
        api_indices: sum(|f| f.indices),
        assembled: sum(|f| f.triangles),
        geom_indices: sum(|f| f.indices),
        vcache_hits: sum(|f| f.vcache_hits),
        frags_raster: sum(|f| f.frags_raster),
        frags_shaded: sum(|f| f.frags_shaded),
        quads_hz_removed: sum(|f| f.quads_hz_removed),
        quads_alpha_removed: sum(|f| f.quads_alpha_removed),
        quads_raster: sum(|f| f.quads_raster),
        bilinear_samples: sum(|f| f.bilinear_samples),
        z_hit_rate: hit[0] / 100.0,
        color_hit_rate: hit[1] / 100.0,
        tex_l0_hit_rate: hit[2] / 100.0,
        tex_l1_hit_rate: hit[3] / 100.0,
        bw_texture_share: client_share(trace, "Texture"),
        bw_zstencil_share: client_share(trace, "Z&Stencil"),
        bw_color_share: client_share(trace, "Color"),
        ..FeatureInputs::default()
    };
    FeatureVector::from_inputs(label, &inputs)
}

fn run_report(run: &Run) -> RunReport {
    let trace = &run.trace;
    let end_tick = trace.end_tick();
    let occupied = occupied_per_stage(trace);
    let mut stage_share = [0.0f64; 7];
    if end_tick > 0 {
        for (share, ticks) in stage_share.iter_mut().zip(occupied) {
            *share = ticks as f64 / end_tick as f64;
        }
    }
    let (bottleneck, bottleneck_share) = top_stage(&stage_share);
    let label = run.label();
    RunReport {
        workload: run.workload.clone(),
        config: run.config.clone(),
        seed: run.seed,
        rel_path: run.rel_path.clone(),
        features: trace_features(&label, trace),
        label,
        frames: trace.frames.len(),
        end_tick,
        spans: trace.spans(),
        dropped: trace.dropped(),
        stage_share,
        stripe_occupied: stripe_occupied(trace),
        bottleneck,
        bottleneck_share,
        cache_hit_pct: cache_hit_pct(trace),
    }
}

fn mean_shares(runs: &[&RunReport]) -> [f64; 7] {
    let mut mean = [0.0f64; 7];
    if runs.is_empty() {
        return mean;
    }
    for r in runs {
        for (m, s) in mean.iter_mut().zip(r.stage_share) {
            *m += s;
        }
    }
    for m in &mut mean {
        *m /= runs.len() as f64;
    }
    mean
}

fn group_report(workload: &str, runs: &[&RunReport]) -> GroupReport {
    // Cache sensitivity: per-config mean hit rates, then max − min
    // across configs.
    let mut per_config: BTreeMap<&str, (usize, [f64; 4])> = BTreeMap::new();
    for r in runs {
        let slot = per_config.entry(r.config.as_str()).or_insert((0, [0.0; 4]));
        slot.0 += 1;
        for (acc, v) in slot.1.iter_mut().zip(r.cache_hit_pct) {
            *acc += v;
        }
    }
    let mut cache_spread_pct = [0.0f64; 4];
    if per_config.len() > 1 {
        for i in 0..4 {
            let mut lo = f64::MAX;
            let mut hi = f64::MIN;
            for (n, sums) in per_config.values() {
                let mean = sums[i] / *n as f64;
                lo = lo.min(mean);
                hi = hi.max(mean);
            }
            cache_spread_pct[i] = hi - lo;
        }
    }

    // Centroid: component-wise mean of the group's feature vectors.
    let mut values = [0.0f64; gwc_stats::FEATURE_COUNT];
    for r in runs {
        for (acc, v) in values.iter_mut().zip(r.features.values) {
            *acc += v;
        }
    }
    for v in &mut values {
        *v /= runs.len().max(1) as f64;
    }

    let stage_share = mean_shares(runs);
    let (bottleneck, bottleneck_share) = top_stage(&stage_share);
    GroupReport {
        workload: workload.to_owned(),
        runs: runs.len(),
        configs: per_config.len(),
        stage_share,
        bottleneck,
        bottleneck_share,
        cache_spread_pct,
        centroid: FeatureVector { label: workload.to_owned(), values },
    }
}

/// Builds the full cross-run [`Report`] from a scanned index.
pub fn aggregate(index: &RunIndex) -> Report {
    let runs: Vec<RunReport> = index.runs.iter().map(run_report).collect();

    let mut by_workload: BTreeMap<&str, Vec<&RunReport>> = BTreeMap::new();
    for r in &runs {
        by_workload.entry(r.workload.as_str()).or_default().push(r);
    }
    let groups: Vec<GroupReport> =
        by_workload.iter().map(|(w, rs)| group_report(w, rs)).collect();

    // Replica divergence: identical keys must carry identical bytes.
    let mut by_key: BTreeMap<(&str, &str, Option<u64>), Vec<u32>> = BTreeMap::new();
    for run in &index.runs {
        by_key
            .entry((run.workload.as_str(), run.config.as_str(), run.seed))
            .or_default()
            .push(run.crc);
    }
    let divergent: Vec<String> = by_key
        .iter()
        .filter(|(_, crcs)| crcs.iter().any(|c| *c != crcs[0]))
        .map(|((w, cfg, seed), _)| match seed {
            Some(s) => format!("{w}@{cfg}#{s}"),
            None => format!("{w}@{cfg}"),
        })
        .collect();

    let cells: Vec<FeatureVector> = runs.iter().map(|r| r.features.clone()).collect();
    let references: Vec<FeatureVector> = groups.iter().map(|g| g.centroid.clone()).collect();
    let rankings = if cells.is_empty() { Vec::new() } else { rank_against(&cells, &references) };

    Report { runs, groups, rankings, divergent, skipped: index.skipped.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_telemetry::reader::read_trace;
    use gwc_telemetry::{Collector, FrameSample, Level, SpanEvent, TraceMeta};

    fn run(workload: &str, config: &str, seed: Option<u64>, shade_dur: u64) -> Run {
        let meta = TraceMeta {
            game: workload.into(),
            width: 64,
            height: 48,
            stripe_rows: 16,
            stripes: 2,
            clients: vec!["Texture".into(), "Color".into()],
            span_capacity: 32,
        };
        let mut c = Collector::new(Level::Spans, meta);
        c.record_draw(0, 20, 6);
        if let Some(mut rings) = c.take_stripe_rings() {
            rings[0].push(SpanEvent { stage: Stage::Raster, start: 5, dur: 10, arg0: 0, arg1: 0 });
            rings[0].push(SpanEvent { stage: Stage::Shade, start: 5, dur: shade_dur, arg0: 0, arg1: 0 });
            rings[1].push(SpanEvent { stage: Stage::Shade, start: 6, dur: shade_dur, arg0: 0, arg1: 0 });
            c.restore_stripe_rings(rings);
        }
        c.end_frame(
            100,
            FrameSample {
                indices: 18,
                triangles: 6,
                frags_raster: 50,
                frags_shaded: 40,
                z_accesses: 10,
                z_hits: 5,
                bw_read: vec![30, 10],
                bw_written: vec![0, 10],
                ..Default::default()
            },
        );
        let bytes = c.trace().to_binary();
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        Run {
            workload: workload.into(),
            config: config.into(),
            seed,
            rel_path: format!("{}-{}.trace.bin", workload.replace('/', "_"), shade_dur),
            trace: read_trace(&bytes).expect("reads"),
            crc,
        }
    }

    #[test]
    fn bottleneck_is_top_occupied_stage_and_stripes_sum() {
        let index = RunIndex { runs: vec![run("G/a", "64x48/f1", Some(1), 40)], skipped: vec![] };
        let report = aggregate(&index);
        let r = &report.runs[0];
        // Shade is occupied 40 ticks in each of two stripes = 80/100;
        // Draw 20/100, Raster 10/100.
        assert_eq!(r.bottleneck, "Shade");
        assert!((r.bottleneck_share - 0.8).abs() < 1e-9);
        assert!((r.stage_share[0] - 0.2).abs() < 1e-9, "Draw share");
        assert_eq!(r.stripe_occupied.len(), 2);
        assert_eq!(r.stripe_occupied[0][3], 40, "stripe0 Shade slot");
        assert!((r.cache_hit_pct[0] - 50.0).abs() < 1e-9);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].bottleneck, "Shade");
        assert_eq!(report.rankings.len(), 1);
        assert_eq!(report.rankings[0].nearest, "G/a", "single run sits at its own centroid");
    }

    #[test]
    fn cache_spread_needs_multiple_configs_and_divergence_needs_unequal_crcs() {
        let mut a = run("G/a", "64x48/f1", Some(1), 40);
        let b = run("G/a", "32x24/f1", Some(1), 10);
        let index = RunIndex { runs: vec![a.clone(), b], skipped: vec![] };
        let report = aggregate(&index);
        assert_eq!(report.groups[0].configs, 2);
        assert_eq!(report.divergent.len(), 0, "distinct configs are not replicas");

        // Same key, different bytes: divergence.
        let mut forked = a.clone();
        forked.crc ^= 1;
        forked.rel_path = "copy.trace.bin".into();
        a.rel_path = "orig.trace.bin".into();
        let index = RunIndex { runs: vec![a, forked], skipped: vec![] };
        let report = aggregate(&index);
        assert_eq!(report.divergent, vec!["G/a@64x48/f1#1".to_owned()]);
    }

    #[test]
    fn counters_only_traces_have_no_bottleneck() {
        let meta = TraceMeta {
            game: "G/c".into(),
            width: 16,
            height: 16,
            stripe_rows: 16,
            stripes: 1,
            clients: vec![],
            span_capacity: 0,
        };
        let mut c = Collector::new(Level::Counters, meta);
        c.end_frame(10, FrameSample::default());
        let bytes = c.trace().to_binary();
        let index = RunIndex {
            runs: vec![Run {
                workload: "G/c".into(),
                config: "16x16/f1".into(),
                seed: None,
                rel_path: "c.trace.bin".into(),
                trace: read_trace(&bytes).expect("reads"),
                crc: 0,
            }],
            skipped: vec![],
        };
        let report = aggregate(&index);
        assert_eq!(report.runs[0].bottleneck, "-");
        assert_eq!(report.runs[0].bottleneck_share, 0.0);
    }
}
