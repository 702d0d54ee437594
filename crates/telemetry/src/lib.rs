//! Deterministic in-pipeline observability for the gwc simulator.
//!
//! The collector records two kinds of data, both keyed by the simulator's
//! **work tick** — the same deterministic unit the budget/cancellation
//! machinery charges (one tick per API command, per assembled triangle, and
//! per rasterized fragment). No wall clocks are involved anywhere, so a
//! trace is a pure function of the replayed command stream: bit-identical
//! across worker counts and across checkpoint/resume.
//!
//! * **Per-frame time-series** ([`FrameSample`]): the paper's headline
//!   metrics — batches, vertices, fragments per stage, kill rates, cache
//!   hit rates, per-client bandwidth — one row per simulated frame.
//! * **Span events** ([`SpanEvent`]): begin/end intervals on fixed tracks
//!   (frame, command processor, and one track per stripe × pipeline stage),
//!   recorded into preallocated per-stripe ring buffers ([`SpanRing`]) and
//!   merged back in ascending stripe order, mirroring how `SimStats` shards
//!   merge.
//!
//! [`Collector::trace`] snapshots both into a [`reader::TraceFile`], the
//! one in-memory trace model. [`reader`] owns the GWTB binary container:
//! its one writer ([`reader::TraceFile::to_binary`]) and its typed
//! inverse [`reader::read_trace`] (total over byte slices — corruption
//! maps to [`reader::ReadError`], never a panic). [`export`] renders the
//! same model as Chrome/Perfetto `trace_event` JSON and per-frame CSV,
//! [`tracks`] is the shared track-naming table, and [`validate`] checks
//! exported JSON without any external tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod reader;
pub mod tracks;
pub mod validate;

/// Default capacity, in spans, of each per-track ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

// ---- level ------------------------------------------------------------

/// How much the collector records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// Record nothing. A collector at this level is behaviorally identical
    /// to no collector at all.
    #[default]
    Off,
    /// Per-frame time-series only, no span events.
    Counters,
    /// Everything: the time-series plus span events in the per-stripe rings.
    Spans,
}

impl Level {
    /// Parses `off`, `counters`, or `spans` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        if s.eq_ignore_ascii_case("off") {
            Some(Level::Off)
        } else if s.eq_ignore_ascii_case("counters") {
            Some(Level::Counters)
        } else if s.eq_ignore_ascii_case("spans") {
            Some(Level::Spans)
        } else {
            None
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Spans => "spans",
        }
    }

    /// Stable one-byte tag used by the binary format.
    pub fn tag(self) -> u8 {
        match self {
            Level::Off => 0,
            Level::Counters => 1,
            Level::Spans => 2,
        }
    }

    /// Inverse of [`Level::tag`].
    pub fn from_tag(tag: u8) -> Option<Level> {
        Some(match tag {
            0 => Level::Off,
            1 => Level::Counters,
            2 => Level::Spans,
            _ => return None,
        })
    }
}

// ---- stages -----------------------------------------------------------

/// Pipeline stage a span belongs to. Also the track-naming vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One simulated frame, on the frame track.
    Frame,
    /// One draw call, on the command-processor track.
    Draw,
    /// One clear, on the command-processor track (zero duration).
    Clear,
    /// One draw's geometry front end (vertex shading through triangle
    /// setup), on the dedicated geometry track.
    Geometry,
    /// Triangle traversal / fragment generation inside one stripe.
    Raster,
    /// Hierarchical-Z quad rejection inside one stripe.
    HiZ,
    /// Z/stencil test inside one stripe.
    ZStencil,
    /// Fragment shading inside one stripe.
    Shade,
    /// Blend / color write inside one stripe.
    Blend,
}

/// The per-stripe stages, in fixed track order.
pub const STRIPE_STAGES: [Stage; 5] =
    [Stage::Raster, Stage::HiZ, Stage::ZStencil, Stage::Shade, Stage::Blend];

impl Stage {
    /// Stable one-byte tag used by the binary format.
    pub fn tag(self) -> u8 {
        match self {
            Stage::Frame => 0,
            Stage::Draw => 1,
            Stage::Clear => 2,
            Stage::Raster => 3,
            Stage::HiZ => 4,
            Stage::ZStencil => 5,
            Stage::Shade => 6,
            Stage::Blend => 7,
            // Appended after the stripe stages so existing tags (and the
            // binary traces that embed them) keep their values.
            Stage::Geometry => 8,
        }
    }

    /// Inverse of [`Stage::tag`].
    pub fn from_tag(tag: u8) -> Option<Stage> {
        Some(match tag {
            0 => Stage::Frame,
            1 => Stage::Draw,
            2 => Stage::Clear,
            3 => Stage::Raster,
            4 => Stage::HiZ,
            5 => Stage::ZStencil,
            6 => Stage::Shade,
            7 => Stage::Blend,
            8 => Stage::Geometry,
            _ => return None,
        })
    }

    /// Human-readable stage name, used for trace event and track names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Frame => "Frame",
            Stage::Draw => "Draw",
            Stage::Clear => "Clear",
            Stage::Raster => "Raster",
            Stage::HiZ => "HiZ",
            Stage::ZStencil => "ZStencil",
            Stage::Shade => "Shade",
            Stage::Blend => "Blend",
            Stage::Geometry => "Geometry",
        }
    }

    /// Index of a per-stripe stage within [`STRIPE_STAGES`], if it is one.
    pub fn stripe_slot(self) -> Option<usize> {
        STRIPE_STAGES.iter().position(|s| *s == self)
    }
}

// ---- span events and rings --------------------------------------------

/// One recorded interval: `[start, start + dur)` in work ticks.
///
/// The two argument slots carry stage-specific payloads (documented per
/// stage in DESIGN.md §4e): e.g. a `Raster` span stores rasterized quads
/// and visited tiles, a `Shade` span stores executed and texture
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage the span belongs to (selects the track within its ring).
    pub stage: Stage,
    /// Start work tick.
    pub start: u64,
    /// Duration in work ticks (0 for instant events such as `Clear`).
    pub dur: u64,
    /// First stage-specific argument.
    pub arg0: u64,
    /// Second stage-specific argument.
    pub arg1: u64,
}

/// Fixed-capacity span ring buffer. The buffer is preallocated once;
/// when full, the oldest span is overwritten and `dropped` counts it.
/// Iteration yields spans oldest-first, so exports stay deterministic
/// under overflow as well.
#[derive(Debug, Clone, Default)]
pub struct SpanRing {
    buf: Vec<SpanEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        SpanRing { buf: Vec::with_capacity(capacity), capacity, head: 0, dropped: 0 }
    }

    /// Records a span, overwriting the oldest when full.
    pub fn push(&mut self, span: SpanEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.capacity {
            self.buf.push(span);
        } else {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates spans oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }
}

// ---- per-frame samples ------------------------------------------------

/// Declares [`FrameSample`] from its one list of scalar columns: the
/// struct fields, [`FrameSample::SCALAR_COLUMNS`] (via `stringify!`),
/// [`FrameSample::scalars`] and its inverse `from_scalars` all expand
/// from it, so the CSV header, the GWTB schema and the row
/// codec cannot disagree on the column order.
macro_rules! frame_sample {
    ($($(#[$doc:meta])* $field:ident,)+) => {
        /// Number of scalar columns in a [`FrameSample`].
        pub(crate) const SCALAR_COUNT: usize = [$(stringify!($field)),+].len();

        /// One row of the per-frame time-series. All counters are per-frame
        /// deltas (the collector converts the simulator's cumulative cache
        /// counters internally). Rates are derived at export time, never
        /// stored.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct FrameSample {
            $($(#[$doc])* pub $field: u64,)+
            /// Bytes read from memory this frame, one entry per client in
            /// [`TraceMeta::clients`] order.
            pub bw_read: Vec<u64>,
            /// Bytes written to memory this frame, same order as `bw_read`.
            pub bw_written: Vec<u64>,
        }

        impl FrameSample {
            /// Column names of [`FrameSample::scalars`], in order. The binary
            /// format embeds this list so readers never guess the layout.
            pub const SCALAR_COLUMNS: [&'static str; SCALAR_COUNT] = [$(stringify!($field)),+];

            /// The fixed scalar fields, in [`FrameSample::SCALAR_COLUMNS`] order.
            pub fn scalars(&self) -> [u64; SCALAR_COUNT] {
                [$(self.$field),+]
            }

            /// Inverse of [`FrameSample::scalars`], plus the per-client
            /// bandwidth columns.
            pub(crate) fn from_scalars(
                scalars: [u64; SCALAR_COUNT],
                bw_read: Vec<u64>,
                bw_written: Vec<u64>,
            ) -> FrameSample {
                let [$($field),+] = scalars;
                FrameSample { $($field,)+ bw_read, bw_written }
            }
        }
    };
}

frame_sample! {
    /// Zero-based frame index across the whole run (resume-aware).
    frame,
    /// Work tick at which the frame ended.
    end_tick,
    /// Draw batches submitted this frame.
    batches,
    /// Indices fetched by the streamer.
    indices,
    /// Vertices actually shaded (post-vertex-cache).
    shaded_vertices,
    /// Vertex cache hits.
    vcache_hits,
    /// Triangles traversed by the rasterizer.
    triangles,
    /// Fragments generated by traversal.
    frags_raster,
    /// Fragment lanes entering Z/stencil test.
    frags_zst,
    /// Fragments shaded.
    frags_shaded,
    /// Fragments blended / written to color.
    frags_blended,
    /// Quads generated by traversal.
    quads_raster,
    /// Quads killed by hierarchical Z.
    quads_hz_removed,
    /// Quads killed by Z/stencil test.
    quads_zst_removed,
    /// Quads killed by alpha test / shader kill.
    quads_alpha_removed,
    /// Texture requests issued by shading.
    tex_requests,
    /// Bilinear samples performed for those requests.
    bilinear_samples,
    /// Z cache accesses.
    z_accesses,
    /// Z cache hits.
    z_hits,
    /// Color cache accesses.
    color_accesses,
    /// Color cache hits.
    color_hits,
    /// Texture L0 cache accesses.
    tex_l0_accesses,
    /// Texture L0 cache hits.
    tex_l0_hits,
    /// Texture L1 cache accesses.
    tex_l1_accesses,
    /// Texture L1 cache hits.
    tex_l1_hits,
}

impl FrameSample {
    /// Total bytes read this frame across all clients.
    pub fn total_read(&self) -> u64 {
        self.bw_read.iter().sum()
    }

    /// Total bytes written this frame across all clients.
    pub fn total_written(&self) -> u64 {
        self.bw_written.iter().sum()
    }
}

/// `100 * n / d` as a ratio, 0 when the denominator is 0. Used for every
/// derived percentage so all exporters round identically.
pub fn pct(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

// ---- metadata ---------------------------------------------------------

/// Static description of the traced run, embedded in every export.
/// Deliberately excludes the worker count: traces are thread-invariant
/// and their bytes must be too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Game profile name (e.g. `Doom3/trdemo2`).
    pub game: String,
    /// Framebuffer width in pixels.
    pub width: u32,
    /// Framebuffer height in pixels.
    pub height: u32,
    /// Rows per framebuffer stripe.
    pub stripe_rows: u32,
    /// Number of stripes.
    pub stripes: u32,
    /// Memory client names, fixing the order of per-client bandwidth
    /// columns in [`FrameSample`].
    pub clients: Vec<String>,
    /// Capacity of each span ring.
    pub span_capacity: u32,
}

// ---- collector --------------------------------------------------------

/// The telemetry collector. Owned by the GPU; all recording entry points
/// are O(1) and return immediately at [`Level::Off`], so an attached-but-
/// disabled collector cannot perturb the simulation (and the simulation
/// state never depends on whether one is attached at all).
#[derive(Debug, Clone)]
pub struct Collector {
    level: Level,
    meta: TraceMeta,
    frames: Vec<FrameSample>,
    frame_track: SpanRing,
    cp_track: SpanRing,
    geom_track: SpanRing,
    stripe_tracks: Vec<SpanRing>,
    frame_start_tick: u64,
    draws_this_frame: u64,
    /// Previous cumulative (accesses, hits) for z / color / tex L0 /
    /// tex L1, used to turn the simulator's monotonic cache counters into
    /// per-frame deltas.
    prev_cache: [(u64, u64); 4],
}

impl Collector {
    /// Creates a collector for a run described by `meta`. Ring buffers
    /// (one per stripe, plus the frame and command-processor tracks) are
    /// preallocated here; recording never allocates.
    pub fn new(level: Level, meta: TraceMeta) -> Self {
        let cap = if level == Level::Spans { meta.span_capacity as usize } else { 0 };
        Collector {
            level,
            frame_track: SpanRing::new(cap),
            cp_track: SpanRing::new(cap),
            geom_track: SpanRing::new(cap),
            stripe_tracks: (0..meta.stripes).map(|_| SpanRing::new(cap)).collect(),
            meta,
            frames: Vec::new(),
            frame_start_tick: 0,
            draws_this_frame: 0,
            prev_cache: [(0, 0); 4],
        }
    }

    /// The configured level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// True unless the level is [`Level::Off`].
    pub fn enabled(&self) -> bool {
        self.level != Level::Off
    }

    /// True when span events are being recorded.
    pub fn spans_enabled(&self) -> bool {
        self.level == Level::Spans
    }

    /// Run metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The per-frame time-series collected so far.
    pub fn frames(&self) -> &[FrameSample] {
        &self.frames
    }

    /// Snapshots everything recorded so far as a [`reader::TraceFile`], the
    /// model every exporter renders from. Rings come in container order —
    /// frame, command processor, geometry, then one per stripe — each named
    /// by [`tracks::ring_name`], with its spans oldest-first.
    pub fn trace(&self) -> reader::TraceFile {
        let rings = [&self.frame_track, &self.cp_track, &self.geom_track]
            .into_iter()
            .chain(&self.stripe_tracks)
            .enumerate()
            .map(|(index, ring)| reader::TrackRing {
                name: tracks::ring_name(index),
                dropped: ring.dropped(),
                spans: ring.iter().copied().collect(),
            })
            .collect();
        reader::TraceFile {
            level: self.level,
            meta: self.meta.clone(),
            frames: self.frames.clone(),
            rings,
        }
    }

    /// Spans dropped across all rings due to overflow.
    pub fn spans_dropped(&self) -> u64 {
        self.frame_track.dropped()
            + self.cp_track.dropped()
            + self.geom_track.dropped()
            + self.stripe_tracks.iter().map(SpanRing::dropped).sum::<u64>()
    }

    /// Spans currently held across all rings.
    pub fn spans_recorded(&self) -> usize {
        self.frame_track.len()
            + self.cp_track.len()
            + self.geom_track.len()
            + self.stripe_tracks.iter().map(SpanRing::len).sum::<usize>()
    }

    /// Seeds the frame timebase after a checkpoint restore, so the first
    /// post-resume frame span starts at the restored tick rather than 0.
    pub fn resume_at(&mut self, tick: u64) {
        self.frame_start_tick = tick;
    }

    /// Records a completed draw spanning `[start, end)` work ticks.
    pub fn record_draw(&mut self, start: u64, end: u64, triangles: u64) {
        if self.level == Level::Off {
            return;
        }
        self.draws_this_frame += 1;
        if self.level == Level::Spans {
            self.cp_track.push(SpanEvent {
                stage: Stage::Draw,
                start,
                dur: end - start,
                arg0: triangles,
                arg1: 0,
            });
        }
    }

    /// Records one draw's geometry front end spanning `[start, end)` work
    /// ticks: vertex shading through triangle setup, on the dedicated
    /// geometry track. `shaded` and `setup` carry the draw's shaded-vertex
    /// and surviving-triangle counts as span args.
    pub fn record_geometry(&mut self, start: u64, end: u64, shaded: u64, setup: u64) {
        if self.level != Level::Spans {
            return;
        }
        self.geom_track.push(SpanEvent {
            stage: Stage::Geometry,
            start,
            dur: end - start,
            arg0: shaded,
            arg1: setup,
        });
    }

    /// Records a clear at `tick`.
    pub fn record_clear(&mut self, tick: u64) {
        if self.level == Level::Spans {
            self.cp_track
                .push(SpanEvent { stage: Stage::Clear, start: tick, dur: 0, arg0: 0, arg1: 0 });
        }
    }

    /// Detaches the per-stripe rings so stripe jobs can record into them
    /// without borrowing the collector. Returns `None` below
    /// [`Level::Spans`]. The caller must hand them back via
    /// [`Collector::restore_stripe_rings`] in ascending stripe order —
    /// the same fixed order `SimStats` shards merge in.
    pub fn take_stripe_rings(&mut self) -> Option<Vec<SpanRing>> {
        if self.level == Level::Spans {
            Some(std::mem::take(&mut self.stripe_tracks))
        } else {
            None
        }
    }

    /// Reattaches rings taken by [`Collector::take_stripe_rings`].
    pub fn restore_stripe_rings(&mut self, rings: Vec<SpanRing>) {
        self.stripe_tracks = rings;
    }

    /// Closes the current frame at `end_tick`. `sample` carries the
    /// frame's counters, with the four cache fields still *cumulative*
    /// (as the simulator tracks them); this converts them to per-frame
    /// deltas, stamps the batch count, and records the frame span.
    pub fn end_frame(&mut self, end_tick: u64, mut sample: FrameSample) {
        if self.level == Level::Off {
            return;
        }
        sample.end_tick = end_tick;
        sample.batches = self.draws_this_frame;
        self.draws_this_frame = 0;

        let cum = [
            (sample.z_accesses, sample.z_hits),
            (sample.color_accesses, sample.color_hits),
            (sample.tex_l0_accesses, sample.tex_l0_hits),
            (sample.tex_l1_accesses, sample.tex_l1_hits),
        ];
        let d = |i: usize| {
            (cum[i].0.wrapping_sub(self.prev_cache[i].0), cum[i].1.wrapping_sub(self.prev_cache[i].1))
        };
        (sample.z_accesses, sample.z_hits) = d(0);
        (sample.color_accesses, sample.color_hits) = d(1);
        (sample.tex_l0_accesses, sample.tex_l0_hits) = d(2);
        (sample.tex_l1_accesses, sample.tex_l1_hits) = d(3);
        self.prev_cache = cum;

        if self.level == Level::Spans {
            self.frame_track.push(SpanEvent {
                stage: Stage::Frame,
                start: self.frame_start_tick,
                dur: end_tick - self.frame_start_tick,
                arg0: sample.batches,
                arg1: sample.frags_raster,
            });
        }
        self.frame_start_tick = end_tick;
        self.frames.push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(stripes: u32, cap: u32) -> TraceMeta {
        TraceMeta {
            game: "Test/demo".into(),
            width: 64,
            height: 48,
            stripe_rows: 16,
            stripes,
            clients: vec!["a".into(), "b".into()],
            span_capacity: cap,
        }
    }

    #[test]
    fn level_parses_case_insensitively() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("Counters"), Some(Level::Counters));
        assert_eq!(Level::parse("SPANS"), Some(Level::Spans));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::Spans.name(), "spans");
    }

    #[test]
    fn stage_tags_roundtrip() {
        for stage in [
            Stage::Frame,
            Stage::Draw,
            Stage::Clear,
            Stage::Raster,
            Stage::HiZ,
            Stage::ZStencil,
            Stage::Shade,
            Stage::Blend,
            Stage::Geometry,
        ] {
            assert_eq!(Stage::from_tag(stage.tag()), Some(stage));
        }
        assert_eq!(Stage::from_tag(200), None);
        for level in [Level::Off, Level::Counters, Level::Spans] {
            assert_eq!(Level::from_tag(level.tag()), Some(level));
        }
        assert_eq!(Level::from_tag(3), None);
        for (i, stage) in STRIPE_STAGES.iter().enumerate() {
            assert_eq!(stage.stripe_slot(), Some(i));
        }
        assert_eq!(Stage::Frame.stripe_slot(), None);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = SpanRing::new(3);
        let span = |start| SpanEvent { stage: Stage::Raster, start, dur: 1, arg0: 0, arg1: 0 };
        for t in 0..5 {
            ring.push(span(t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let starts: Vec<u64> = ring.iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![2, 3, 4], "oldest-first iteration after wraparound");
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = SpanRing::new(0);
        ring.push(SpanEvent { stage: Stage::Draw, start: 0, dur: 0, arg0: 0, arg1: 0 });
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn off_collector_records_nothing() {
        let mut c = Collector::new(Level::Off, meta(3, 16));
        c.record_draw(0, 10, 5);
        c.record_geometry(0, 4, 3, 2);
        c.record_clear(11);
        c.end_frame(20, FrameSample::default());
        assert!(c.frames().is_empty());
        assert_eq!(c.spans_recorded(), 0);
        assert!(c.take_stripe_rings().is_none());
    }

    #[test]
    fn counters_level_skips_spans() {
        let mut c = Collector::new(Level::Counters, meta(2, 16));
        c.record_draw(0, 10, 5);
        c.end_frame(20, FrameSample::default());
        assert_eq!(c.frames().len(), 1);
        assert_eq!(c.frames()[0].batches, 1);
        assert_eq!(c.spans_recorded(), 0);
        assert!(c.take_stripe_rings().is_none());
    }

    #[test]
    fn cache_counters_become_per_frame_deltas() {
        let mut c = Collector::new(Level::Counters, meta(1, 16));
        let mut s = FrameSample { z_accesses: 100, z_hits: 80, ..FrameSample::default() };
        c.end_frame(10, s.clone());
        s.z_accesses = 250;
        s.z_hits = 180;
        c.end_frame(20, s);
        assert_eq!(c.frames()[0].z_accesses, 100);
        assert_eq!(c.frames()[0].z_hits, 80);
        assert_eq!(c.frames()[1].z_accesses, 150);
        assert_eq!(c.frames()[1].z_hits, 100);
    }

    #[test]
    fn frame_spans_chain_and_resume_seeds_the_timebase() {
        let mut c = Collector::new(Level::Spans, meta(1, 16));
        c.resume_at(1000);
        c.end_frame(1500, FrameSample::default());
        c.end_frame(1800, FrameSample::default());
        let spans = c.trace().frame_ring().spans.clone();
        assert_eq!((spans[0].start, spans[0].dur), (1000, 500));
        assert_eq!((spans[1].start, spans[1].dur), (1500, 300));
    }

    #[test]
    fn stripe_rings_roundtrip_through_take_restore() {
        let mut c = Collector::new(Level::Spans, meta(2, 8));
        let mut rings = c.take_stripe_rings().expect("spans level hands out rings");
        assert_eq!(rings.len(), 2);
        rings[1].push(SpanEvent { stage: Stage::Shade, start: 5, dur: 3, arg0: 9, arg1: 0 });
        c.restore_stripe_rings(rings);
        assert_eq!(c.spans_recorded(), 1);
        let trace = c.trace();
        let names: Vec<&str> = trace.rings.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["frames", "command-processor", "geometry", "stripe0", "stripe1"]);
        assert_eq!(trace.stripe_rings()[1].spans.len(), 1);
    }

    #[test]
    fn geometry_spans_land_on_their_own_track() {
        let mut c = Collector::new(Level::Spans, meta(1, 8));
        c.record_geometry(10, 25, 40, 12);
        let spans = c.trace().geom_ring().spans.clone();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::Geometry);
        assert_eq!((spans[0].start, spans[0].dur), (10, 15));
        assert_eq!((spans[0].arg0, spans[0].arg1), (40, 12));
        assert_eq!(c.spans_recorded(), 1);

        let mut counters_only = Collector::new(Level::Counters, meta(1, 8));
        counters_only.record_geometry(10, 25, 40, 12);
        assert_eq!(counters_only.spans_recorded(), 0);
    }

    #[test]
    fn pct_handles_zero_denominator() {
        assert_eq!(pct(1, 0), 0.0);
        assert_eq!(pct(1, 4), 25.0);
    }
}
