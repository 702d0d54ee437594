//! Trace exporters: Chrome/Perfetto `trace_event` JSON, per-frame CSV,
//! and the GWTB self-describing binary container.
//!
//! All three are pure functions of the collector's contents, which are
//! themselves pure functions of the replayed command stream — so exported
//! bytes are bit-identical across worker counts and checkpoint/resume.

use crate::tracks::{self, PID, TID_CP, TID_FRAMES, TID_GEOM};
use crate::{pct, Collector, FrameSample, SpanEvent, SpanRing, STRIPE_STAGES};
use std::fmt::Write as _;

// ---- Chrome / Perfetto JSON -------------------------------------------
// Track ids and names all come from `crate::tracks` — the one table the
// GWTB reader shares, so exporter and reader can never disagree.

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn push_meta_event(out: &mut String, name: &str, tid: u32, value: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(value)
    );
}

fn push_begin_end(out: &mut String, tid: u32, span: &SpanEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"gwc\",\"ph\":\"B\",\"ts\":{},\"pid\":{PID},\
         \"tid\":{tid},\"args\":{{\"count\":{},\"aux\":{}}}}},",
        span.stage.name(),
        span.start,
        span.arg0,
        span.arg1
    );
    let _ = write!(
        out,
        "{{\"ph\":\"E\",\"ts\":{},\"pid\":{PID},\"tid\":{tid}}}",
        span.start + span.dur
    );
}

fn push_ring(out: &mut String, first: &mut bool, tid: u32, ring: &SpanRing) {
    for span in ring.iter() {
        if !*first {
            out.push(',');
        }
        *first = false;
        push_begin_end(out, tid, span);
    }
}

/// Renders the collector as Chrome `trace_event` JSON (the format
/// Perfetto's UI and `chrome://tracing` both open). Work ticks are mapped
/// onto the format's microsecond timestamps. Every span becomes a `B`/`E`
/// pair on its own track: frames on track 0, command-processor events on
/// track 1, geometry front-end spans on track 2, and one track per
/// stripe × pipeline stage after that, so no
/// track ever nests or interleaves and timestamps are monotonic per track.
/// Per-frame counters additionally become `C` (counter) events.
pub fn chrome_json(c: &Collector) -> String {
    let meta = c.meta();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"game\":\"{}\",\"width\":{},\
         \"height\":{},\"stripe_rows\":{},\"stripes\":{},\"level\":\"{}\",\
         \"timebase\":\"work-ticks\"}},\"traceEvents\":[",
        json_escape(&meta.game),
        meta.width,
        meta.height,
        meta.stripe_rows,
        meta.stripes,
        c.level().name()
    );

    push_meta_event(&mut out, "process_name", TID_FRAMES, tracks::PROCESS_NAME);
    out.push(',');
    push_meta_event(&mut out, "thread_name", TID_FRAMES, tracks::FRAMES_TRACK);
    out.push(',');
    push_meta_event(&mut out, "thread_name", TID_CP, tracks::CP_TRACK);
    out.push(',');
    push_meta_event(&mut out, "thread_name", TID_GEOM, tracks::GEOM_TRACK);
    let tid_counters = tracks::counters_tid(meta.stripes);
    out.push(',');
    push_meta_event(&mut out, "thread_name", tid_counters, tracks::COUNTERS_TRACK);
    for stripe in 0..meta.stripes {
        for (slot, stage) in STRIPE_STAGES.iter().enumerate() {
            out.push(',');
            let tid = tracks::stripe_tid(stripe, slot);
            push_meta_event(&mut out, "thread_name", tid, &tracks::stripe_track_name(stripe, *stage));
        }
    }

    // Per-frame counter tracks (visible even at `counters` level).
    for f in c.frames() {
        let _ = write!(
            out,
            ",{{\"name\":\"fragments\",\"ph\":\"C\",\"ts\":{},\"pid\":{PID},\"tid\":{tid_counters},\
             \"args\":{{\"raster\":{},\"shaded\":{},\"blended\":{}}}}}",
            f.end_tick, f.frags_raster, f.frags_shaded, f.frags_blended
        );
        let _ = write!(
            out,
            ",{{\"name\":\"bandwidth_bytes\",\"ph\":\"C\",\"ts\":{},\"pid\":{PID},\
             \"tid\":{tid_counters},\"args\":{{\"read\":{},\"written\":{}}}}}",
            f.end_tick,
            f.total_read(),
            f.total_written()
        );
    }

    let mut first = false; // metadata events already emitted
    push_ring(&mut out, &mut first, TID_FRAMES, c.frame_track());
    push_ring(&mut out, &mut first, TID_CP, c.cp_track());
    push_ring(&mut out, &mut first, TID_GEOM, c.geom_track());
    // Fixed ascending stripe order — the same order stat shards merge in.
    for (stripe, ring) in c.stripe_tracks().iter().enumerate() {
        for (slot, stage) in STRIPE_STAGES.iter().enumerate() {
            for span in ring.iter().filter(|s| s.stage == *stage) {
                out.push(',');
                push_begin_end(&mut out, tracks::stripe_tid(stripe as u32, slot), span);
            }
        }
    }

    out.push_str("]}");
    out
}

// ---- per-frame CSV -----------------------------------------------------

/// Derived-rate column names appended after the scalar columns.
pub const DERIVED_COLUMNS: [&str; 8] = [
    "vcache_hit_pct",
    "hz_kill_pct",
    "zst_kill_pct",
    "alpha_kill_pct",
    "z_hit_pct",
    "color_hit_pct",
    "tex_l0_hit_pct",
    "tex_l1_hit_pct",
];

fn derived(f: &FrameSample) -> [f64; 8] {
    [
        pct(f.vcache_hits, f.indices),
        pct(f.quads_hz_removed, f.quads_raster),
        pct(f.quads_zst_removed, f.quads_raster),
        pct(f.quads_alpha_removed, f.quads_raster),
        pct(f.z_hits, f.z_accesses),
        pct(f.color_hits, f.color_accesses),
        pct(f.tex_l0_hits, f.tex_l0_accesses),
        pct(f.tex_l1_hits, f.tex_l1_accesses),
    ]
}

/// Renders the per-frame time-series as CSV: the fixed scalar columns,
/// the derived Figure-style percentages (formatted to 4 decimal places so
/// bytes are deterministic), then `bw_<client>_read` / `bw_<client>_written`
/// pairs for every memory client.
pub fn frames_csv(c: &Collector) -> String {
    let mut out = String::new();
    for (i, col) in FrameSample::SCALAR_COLUMNS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(col);
    }
    for col in DERIVED_COLUMNS {
        let _ = write!(out, ",{col}");
    }
    for client in &c.meta().clients {
        let _ = write!(out, ",bw_{client}_read,bw_{client}_written");
    }
    out.push('\n');
    for f in c.frames() {
        for (i, v) in f.scalars().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        for v in derived(f) {
            let _ = write!(out, ",{v:.4}");
        }
        for i in 0..c.meta().clients.len() {
            let _ = write!(
                out,
                ",{},{}",
                f.bw_read.get(i).copied().unwrap_or(0),
                f.bw_written.get(i).copied().unwrap_or(0)
            );
        }
        out.push('\n');
    }
    out
}

// ---- GWTB binary container --------------------------------------------

/// GWTB container magic.
pub const BINARY_MAGIC: [u8; 4] = *b"GWTB";
/// GWTB container version.
pub const BINARY_VERSION: u16 = 1;

// IEEE CRC-32 (reflected). This crate has no dependencies, so it hosts
// the workspace's one copy: the GWCK checkpoint container, the harness
// manifest and the server WAL all call it.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Serializes the collector into the GWTB binary container:
///
/// ```text
/// magic "GWTB", version u16, level u8
/// meta:   game, width, height, stripe_rows, stripes, span_capacity,
///         client names (count-prefixed)
/// schema: scalar column names (count-prefixed) — self-describing
/// frames: count, then per frame the scalar columns in schema order
///         followed by (read, written) u64 pairs per client
/// rings:  count (frame + cp + geometry + stripes), then per ring dropped u64,
///         span count u32, spans as (stage u8, start, dur, arg0, arg1)
/// crc32 u32 over every preceding byte
/// ```
///
/// Strings are `u32` length + UTF-8 bytes; integers are little-endian.
pub fn binary(c: &Collector) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(&BINARY_MAGIC);
    w.u16(BINARY_VERSION);
    w.u8(c.level().tag());

    let meta = c.meta();
    w.str(&meta.game);
    w.u32(meta.width);
    w.u32(meta.height);
    w.u32(meta.stripe_rows);
    w.u32(meta.stripes);
    w.u32(meta.span_capacity);
    w.u32(meta.clients.len() as u32);
    for client in &meta.clients {
        w.str(client);
    }

    w.u32(FrameSample::SCALAR_COLUMNS.len() as u32);
    for col in FrameSample::SCALAR_COLUMNS {
        w.str(col);
    }

    w.u32(c.frames().len() as u32);
    for f in c.frames() {
        for v in f.scalars() {
            w.u64(v);
        }
        for i in 0..meta.clients.len() {
            w.u64(f.bw_read.get(i).copied().unwrap_or(0));
            w.u64(f.bw_written.get(i).copied().unwrap_or(0));
        }
    }

    let rings: Vec<&SpanRing> = std::iter::once(c.frame_track())
        .chain(std::iter::once(c.cp_track()))
        .chain(std::iter::once(c.geom_track()))
        .chain(c.stripe_tracks().iter())
        .collect();
    w.u32(rings.len() as u32);
    for ring in rings {
        w.u64(ring.dropped());
        w.u32(ring.len() as u32);
        for span in ring.iter() {
            w.u8(span.stage.tag());
            w.u64(span.start);
            w.u64(span.dur);
            w.u64(span.arg0);
            w.u64(span.arg1);
        }
    }

    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

/// Level tag helper for the binary header.
impl crate::Level {
    /// Stable one-byte tag used by the binary format.
    pub fn tag(self) -> u8 {
        match self {
            crate::Level::Off => 0,
            crate::Level::Counters => 1,
            crate::Level::Spans => 2,
        }
    }

    /// Inverse of [`crate::Level::tag`].
    pub fn from_tag(tag: u8) -> Option<crate::Level> {
        Some(match tag {
            0 => crate::Level::Off,
            1 => crate::Level::Counters,
            2 => crate::Level::Spans,
            _ => return None,
        })
    }
}

/// Summary returned by [`validate_binary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinarySummary {
    /// Game name from the embedded metadata.
    pub game: String,
    /// Number of per-frame rows.
    pub frames: u32,
    /// Total spans across all rings.
    pub spans: u64,
    /// Total spans dropped to ring overflow.
    pub dropped: u64,
}

/// Verifies a GWTB blob end to end — magic, version, CRC-32 trailer, and
/// full structural decode — returning a summary of its contents. This is
/// a thin wrapper over the typed reader ([`crate::reader::read_trace`]);
/// one decoder serves both validation and analytics.
pub fn validate_binary(bytes: &[u8]) -> Result<BinarySummary, String> {
    let trace = crate::reader::read_trace(bytes).map_err(|e| e.to_string())?;
    Ok(BinarySummary {
        game: trace.meta.game.clone(),
        frames: trace.frames.len() as u32,
        spans: trace.spans(),
        dropped: trace.dropped(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Stage, TraceMeta};

    fn sample_collector(level: Level) -> Collector {
        let meta = TraceMeta {
            game: "Test/demo".into(),
            width: 64,
            height: 48,
            stripe_rows: 16,
            stripes: 3,
            clients: vec!["cp".into(), "tex".into()],
            span_capacity: 64,
        };
        let mut c = Collector::new(level, meta);
        c.record_command();
        c.record_geometry(1, 9, 16, 12);
        c.record_draw(1, 40, 12);
        c.record_clear(41);
        if let Some(mut rings) = c.take_stripe_rings() {
            rings[0].push(SpanEvent { stage: Stage::Raster, start: 13, dur: 27, arg0: 9, arg1: 4 });
            rings[0].push(SpanEvent { stage: Stage::Shade, start: 13, dur: 20, arg0: 100, arg1: 6 });
            rings[2].push(SpanEvent { stage: Stage::Blend, start: 13, dur: 5, arg0: 2, arg1: 0 });
            c.restore_stripe_rings(rings);
        }
        c.end_frame(
            50,
            FrameSample {
                indices: 36,
                vcache_hits: 20,
                shaded_vertices: 16,
                triangles: 12,
                frags_raster: 27,
                frags_shaded: 20,
                frags_blended: 18,
                quads_raster: 9,
                z_accesses: 30,
                z_hits: 21,
                bw_read: vec![100, 50],
                bw_written: vec![30, 0],
                ..FrameSample::default()
            },
        );
        c
    }

    #[test]
    fn chrome_json_is_valid_and_balanced() {
        let c = sample_collector(Level::Spans);
        let json = chrome_json(&c);
        let summary = crate::validate::validate_chrome(&json).expect("validates");
        // Frame + Geometry + Draw + Clear + 3 stripe spans = 7 B/E pairs
        // (the clear is an instant pair too).
        assert_eq!(summary.begin_events, 7);
        assert!(summary.counter_events >= 2);
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn chrome_json_counters_level_has_no_spans() {
        let c = sample_collector(Level::Counters);
        let json = chrome_json(&c);
        let summary = crate::validate::validate_chrome(&json).expect("validates");
        assert_eq!(summary.begin_events, 0);
        assert_eq!(summary.counter_events, 2);
    }

    #[test]
    fn csv_has_header_and_one_row_per_frame() {
        let c = sample_collector(Level::Counters);
        let csv = frames_csv(&c);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("frame,end_tick,batches"));
        assert!(lines[0].ends_with("bw_cp_read,bw_cp_written,bw_tex_read,bw_tex_written"));
        assert!(lines[0].contains("hz_kill_pct"));
        // vcache 20/36 ≈ 55.5556%, z hit 21/30 = 70%.
        assert!(lines[1].contains("55.5556"), "derived pct present: {}", lines[1]);
        assert!(lines[1].contains("70.0000"), "z hit rate present: {}", lines[1]);
        assert!(lines[1].ends_with("100,30,50,0"));
    }

    #[test]
    fn binary_roundtrips_and_crc_detects_flips() {
        let c = sample_collector(Level::Spans);
        let blob = binary(&c);
        let summary = validate_binary(&blob).expect("validates");
        assert_eq!(summary.game, "Test/demo");
        assert_eq!(summary.frames, 1);
        assert_eq!(summary.spans, 7);
        assert_eq!(summary.dropped, 0);

        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(validate_binary(&bad).unwrap_err().contains("CRC"));

        let mut wrong_magic = blob;
        wrong_magic[0] = b'X';
        assert!(validate_binary(&wrong_magic).unwrap_err().contains("magic"));
    }

    #[test]
    fn crc32_known_vector() {
        // The empty input and the canonical CRC-32 check value.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
