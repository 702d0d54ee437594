//! Per-frame and whole-run simulator statistics.

use gwc_stats::TimeSeries;

use crate::error::FaultKind;

/// Raw counters for one simulated frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameSimStats {
    // ---- geometry pipeline ----
    /// Indices fetched (Figure 6 "indices").
    pub indices: u64,
    /// Vertices actually run through the vertex shader (vertex-cache
    /// misses).
    pub shaded_vertices: u64,
    /// Post-transform vertex cache hits (Figure 5).
    pub vcache_hits: u64,
    /// Triangles assembled (Figure 6 "assembled").
    pub assembled: u64,
    /// Triangles rejected by the clipper (Table VII "% clipped").
    pub clipped: u64,
    /// Triangles removed by face culling or zero area (Table VII
    /// "% culled").
    pub culled: u64,
    /// Triangles traversed by the rasterizer (Table VII "% traversed",
    /// Figure 6 "traversed").
    pub traversed: u64,
    /// Vertex program instructions executed.
    pub vs_instructions: u64,

    // ---- fragments per stage (Tables VIII, XI; Figure 7) ----
    /// Fragments generated by rasterization.
    pub frags_raster: u64,
    /// Fragments processed by the z & stencil stage (including bypass).
    pub frags_zst: u64,
    /// Fragments shaded.
    pub frags_shaded: u64,
    /// Fragments blended into the color buffer.
    pub frags_blended: u64,

    // ---- quads per stage (Tables IX, X) ----
    /// Quads emitted by the rasterizer.
    pub quads_raster: u64,
    /// Complete (4/4 coverage) quads at rasterization.
    pub quads_complete_raster: u64,
    /// Quads removed by Hierarchical Z.
    pub quads_hz_removed: u64,
    /// Quads fully removed by the z & stencil test.
    pub quads_zst_removed: u64,
    /// Quads fully removed by alpha test / shader kill.
    pub quads_alpha_removed: u64,
    /// Quads reaching the color stage with the color write mask off.
    pub quads_colormask: u64,
    /// Quads that update the color buffer.
    pub quads_blended: u64,
    /// Quads surviving the z & stencil stage (any live lane).
    pub quads_zst_survived: u64,
    /// Quads surviving z & stencil with all four lanes alive.
    pub quads_zst_complete: u64,

    // ---- shading / texturing (Tables XII, XIII) ----
    /// Fragment program instructions executed (per quad).
    pub fs_instructions: u64,
    /// Fragment texture instructions executed (per quad).
    pub fs_tex_instructions: u64,
    /// Texture requests (per live fragment).
    pub tex_requests: u64,
    /// Bilinear samples consumed.
    pub bilinear_samples: u64,

    // ---- fault handling (robustness layer) ----
    /// Draw batches dropped under [`crate::FaultPolicy::SkipBatch`].
    pub dropped_batches: u64,
    /// Frames partially dropped under [`crate::FaultPolicy::SkipFrame`].
    pub dropped_frames: u64,
}

macro_rules! add_fields {
    ($a:expr, $b:expr, $($f:ident),+ $(,)?) => {
        $( $a.$f += $b.$f; )+
    };
}

macro_rules! collect_fields {
    ($s:expr, $out:expr, $($f:ident),+ $(,)?) => {
        $( $out.push($s.$f); )+
    };
}

macro_rules! assign_fields {
    ($s:expr, $it:expr, $($f:ident),+ $(,)?) => {
        $( $s.$f = $it.next().unwrap_or(0); )+
    };
}

/// Applies a macro to every `FrameSimStats` counter, in declaration order.
/// The single authoritative field list: merge and the checkpoint codec both
/// expand from here, so adding a counter cannot desynchronize them.
macro_rules! with_frame_fields {
    ($m:ident $(, $a:expr)*) => {
        $m!(
            $($a,)*
            indices, shaded_vertices, vcache_hits, assembled, clipped, culled, traversed,
            vs_instructions,
            frags_raster, frags_zst, frags_shaded, frags_blended,
            quads_raster, quads_complete_raster, quads_hz_removed, quads_zst_removed,
            quads_alpha_removed, quads_colormask, quads_blended, quads_zst_survived,
            quads_zst_complete,
            fs_instructions, fs_tex_instructions, tex_requests, bilinear_samples,
            dropped_batches, dropped_frames,
        )
    };
}

impl FrameSimStats {
    /// Number of `u64` counters (the checkpoint codec's record width).
    pub const FIELD_COUNT: usize = 27;

    /// Merges another frame's counters into this one.
    pub fn merge(&mut self, o: &FrameSimStats) {
        with_frame_fields!(add_fields, self, o);
    }

    /// All counters in declaration order (checkpoint serialization).
    pub fn to_counters(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(Self::FIELD_COUNT);
        with_frame_fields!(collect_fields, self, out);
        out
    }

    /// Rebuilds a frame from [`FrameSimStats::to_counters`] order; missing
    /// entries read as zero.
    pub fn from_counters(v: &[u64]) -> Self {
        let mut s = Self::default();
        let mut it = v.iter().copied();
        with_frame_fields!(assign_fields, s, it);
        s
    }

    /// Vertex cache hit rate (Figure 5).
    pub fn vertex_cache_hit_rate(&self) -> f64 {
        if self.indices == 0 {
            0.0
        } else {
            self.vcache_hits as f64 / self.indices as f64
        }
    }

    /// Clipped / culled / traversed as fractions of assembled triangles
    /// (Table VII).
    pub fn triangle_fates(&self) -> (f64, f64, f64) {
        if self.assembled == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = self.assembled as f64;
        (self.clipped as f64 / n, self.culled as f64 / n, self.traversed as f64 / n)
    }

    /// Average triangle size in fragments at the four stages of Table VIII
    /// `(raster, z&stencil, shading, blending)`.
    pub fn triangle_sizes(&self) -> (f64, f64, f64, f64) {
        if self.traversed == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let n = self.traversed as f64;
        (
            self.frags_raster as f64 / n,
            self.frags_zst as f64 / n,
            self.frags_shaded as f64 / n,
            self.frags_blended as f64 / n,
        )
    }

    /// Quad fates as fractions of rasterized quads, Table IX order:
    /// `(hz, z&stencil, alpha, color-mask, blending)`.
    pub fn quad_fates(&self) -> (f64, f64, f64, f64, f64) {
        if self.quads_raster == 0 {
            return (0.0, 0.0, 0.0, 0.0, 0.0);
        }
        let n = self.quads_raster as f64;
        (
            self.quads_hz_removed as f64 / n,
            self.quads_zst_removed as f64 / n,
            self.quads_alpha_removed as f64 / n,
            self.quads_colormask as f64 / n,
            self.quads_blended as f64 / n,
        )
    }

    /// Quad efficiency (complete-quad fraction) at rasterization and after
    /// z & stencil (Table X).
    pub fn quad_efficiency(&self) -> (f64, f64) {
        let raster = if self.quads_raster == 0 {
            0.0
        } else {
            self.quads_complete_raster as f64 / self.quads_raster as f64
        };
        let zst = if self.quads_zst_survived == 0 {
            0.0
        } else {
            self.quads_zst_complete as f64 / self.quads_zst_survived as f64
        };
        (raster, zst)
    }

    /// Overdraw per framebuffer pixel at each stage (Table XI), given the
    /// pixel count.
    pub fn overdraw(&self, pixels: u64) -> (f64, f64, f64, f64) {
        if pixels == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let p = pixels as f64;
        (
            self.frags_raster as f64 / p,
            self.frags_zst as f64 / p,
            self.frags_shaded as f64 / p,
            self.frags_blended as f64 / p,
        )
    }

    /// Average bilinear samples per texture request (Table XIII).
    pub fn bilinears_per_request(&self) -> f64 {
        if self.tex_requests == 0 {
            0.0
        } else {
            self.bilinear_samples as f64 / self.tex_requests as f64
        }
    }

    /// Dynamic ALU instructions per bilinear sample (Table XIII column 2).
    ///
    /// Instruction counters are per quad; scaled by 4 lanes to compare
    /// against per-fragment bilinear counts.
    pub fn alu_per_bilinear(&self) -> f64 {
        if self.bilinear_samples == 0 {
            return 0.0;
        }
        let alu = (self.fs_instructions - self.fs_tex_instructions) * 4;
        alu as f64 / self.bilinear_samples as f64
    }
}

/// Whole-run statistics: totals plus the per-frame series behind the
/// paper's figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    total: FrameSimStats,
    frames: Vec<FrameSimStats>,
    /// Classified fault counts, indexed per [`FaultKind::ALL`].
    faults: [u64; 7],
}

impl SimStats {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes a frame.
    pub fn push_frame(&mut self, frame: FrameSimStats) {
        self.total.merge(&frame);
        self.frames.push(frame);
    }

    /// Records one classified fault.
    pub fn record_fault(&mut self, kind: FaultKind) {
        self.faults[kind.index()] += 1;
    }

    /// Classified fault counts in [`FaultKind::ALL`] order.
    pub fn fault_counts(&self) -> [(FaultKind, u64); 7] {
        let mut out = [(FaultKind::UnboundResource, 0); 7];
        for (slot, kind) in out.iter_mut().zip(FaultKind::ALL) {
            *slot = (kind, self.faults[kind.index()]);
        }
        out
    }

    /// Total classified faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Merges another run's record into this one: frames concatenate (in
    /// `other`'s order), totals and fault counters sum. Because every
    /// counter is a plain sum, `merge` is associative, so partial records
    /// produced by independent workers reduce to the same totals in any
    /// grouping.
    pub fn merge(&mut self, other: &SimStats) {
        self.total.merge(&other.total);
        self.frames.extend_from_slice(&other.frames);
        for (slot, o) in self.faults.iter_mut().zip(other.faults) {
            *slot += o;
        }
    }

    /// Rebuilds a record from its per-frame history and fault counters
    /// (checkpoint restore); totals are recomputed, so a restored record
    /// compares equal to the original.
    pub fn restore(frames: Vec<FrameSimStats>, faults: [u64; 7]) -> Self {
        let mut total = FrameSimStats::default();
        for f in &frames {
            total.merge(f);
        }
        SimStats { total, frames, faults }
    }

    /// Raw fault counters in [`FaultKind::ALL`] order (checkpoint
    /// serialization).
    pub fn raw_fault_counts(&self) -> [u64; 7] {
        self.faults
    }

    /// Whole-run totals.
    pub fn totals(&self) -> &FrameSimStats {
        &self.total
    }

    /// Per-frame records.
    pub fn frames(&self) -> &[FrameSimStats] {
        &self.frames
    }

    /// Builds a per-frame series from a counter projection.
    pub fn series(&self, name: &str, f: impl Fn(&FrameSimStats) -> f64) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        s.extend(self.frames.iter().map(f));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FrameSimStats {
        FrameSimStats {
            indices: 300,
            shaded_vertices: 100,
            vcache_hits: 200,
            assembled: 100,
            clipped: 30,
            culled: 20,
            traversed: 50,
            frags_raster: 5000,
            frags_zst: 4000,
            frags_shaded: 2000,
            frags_blended: 1800,
            quads_raster: 1400,
            quads_complete_raster: 1300,
            quads_hz_removed: 500,
            quads_zst_removed: 100,
            quads_alpha_removed: 50,
            quads_colormask: 150,
            quads_blended: 600,
            quads_zst_survived: 800,
            quads_zst_complete: 700,
            fs_instructions: 13000,
            fs_tex_instructions: 4000,
            tex_requests: 8000,
            bilinear_samples: 36000,
            vs_instructions: 2000,
            dropped_batches: 0,
            dropped_frames: 0,
        }
    }

    #[test]
    fn counters_roundtrip() {
        let f = sample();
        let v = f.to_counters();
        assert_eq!(v.len(), FrameSimStats::FIELD_COUNT);
        assert_eq!(FrameSimStats::from_counters(&v), f);
    }

    #[test]
    fn fault_counters_and_restore() {
        let mut run = SimStats::new();
        run.push_frame(sample());
        run.record_fault(FaultKind::ShaderFault);
        run.record_fault(FaultKind::ShaderFault);
        run.record_fault(FaultKind::MemoryFault);
        assert_eq!(run.total_faults(), 3);
        let by_kind = run.fault_counts();
        assert_eq!(by_kind[FaultKind::ShaderFault.index()], (FaultKind::ShaderFault, 2));
        let rebuilt = SimStats::restore(run.frames().to_vec(), run.raw_fault_counts());
        assert_eq!(rebuilt, run);
    }

    #[test]
    fn rates_and_ratios() {
        let f = sample();
        assert!((f.vertex_cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        let (c, k, t) = f.triangle_fates();
        assert!((c - 0.3).abs() < 1e-12);
        assert!((k - 0.2).abs() < 1e-12);
        assert!((t - 0.5).abs() < 1e-12);
        let sizes = f.triangle_sizes();
        assert_eq!(sizes.0, 100.0);
        assert_eq!(sizes.3, 36.0);
        let (hz, zst, alpha, mask, blend) = f.quad_fates();
        // The sample partitions all 1400 quads across the five fates.
        assert!((hz + zst + alpha + mask + blend - 1.0).abs() < 1e-9);
        let (qr, qz) = f.quad_efficiency();
        assert!((qr - 1300.0 / 1400.0).abs() < 1e-12);
        assert!((qz - 7.0 / 8.0).abs() < 1e-12);
        assert!((f.bilinears_per_request() - 4.5).abs() < 1e-12);
        assert!((f.alu_per_bilinear() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overdraw_per_pixel() {
        let f = sample();
        let (r, z, s, b) = f.overdraw(1000);
        assert_eq!(r, 5.0);
        assert_eq!(z, 4.0);
        assert_eq!(s, 2.0);
        assert_eq!(b, 1.8);
    }

    #[test]
    fn empty_frame_is_zero() {
        let f = FrameSimStats::default();
        assert_eq!(f.vertex_cache_hit_rate(), 0.0);
        assert_eq!(f.triangle_fates(), (0.0, 0.0, 0.0));
        assert_eq!(f.quad_efficiency(), (0.0, 0.0));
        assert_eq!(f.bilinears_per_request(), 0.0);
        assert_eq!(f.overdraw(0), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn run_merge_sums_totals_and_faults() {
        let mut a = SimStats::new();
        a.push_frame(sample());
        a.record_fault(FaultKind::ShaderFault);
        let mut b = SimStats::new();
        b.push_frame(sample());
        b.push_frame(sample());
        b.record_fault(FaultKind::MemoryFault);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.frames().len(), 3);
        assert_eq!(merged.totals().indices, 900);
        assert_eq!(merged.total_faults(), 2);
        // Associativity: (a+b) built from pieces equals pushing everything
        // into one record.
        let mut whole = SimStats::new();
        for f in merged.frames() {
            whole.push_frame(*f);
        }
        assert_eq!(whole.totals(), merged.totals());
    }

    #[test]
    fn merge_and_series() {
        let mut run = SimStats::new();
        run.push_frame(sample());
        run.push_frame(sample());
        assert_eq!(run.totals().indices, 600);
        assert_eq!(run.frames().len(), 2);
        let s = run.series("hit rate", |f| f.vertex_cache_hit_rate());
        assert_eq!(s.len(), 2);
        assert!((s.mean() - 2.0 / 3.0).abs() < 1e-12);
    }
}
