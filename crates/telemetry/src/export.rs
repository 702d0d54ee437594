//! Text exporters: Chrome/Perfetto `trace_event` JSON and per-frame CSV,
//! both rendered from a [`TraceFile`] snapshot (the GWTB container is
//! written by [`TraceFile::to_binary`] beside its reader), plus the
//! workspace's one CRC-32.
//!
//! Both are pure functions of the trace, which is itself a pure function
//! of the replayed command stream — so exported bytes are bit-identical
//! across worker counts and checkpoint/resume.

use crate::reader::{TraceFile, TrackRing};
use crate::tracks::{self, PID, TID_CP, TID_FRAMES, TID_GEOM};
use crate::{pct, FrameSample, SpanEvent, STRIPE_STAGES};
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

fn push_ring(out: &mut String, first: &mut bool, tid: u32, ring: &TrackRing) {
    for span in &ring.spans {
        if !*first {
            out.push(',');
        }
        *first = false;
        push_begin_end(out, tid, span);
    }
}

/// Renders the trace as Chrome `trace_event` JSON (the format
/// Perfetto's UI and `chrome://tracing` both open). Work ticks are mapped
/// onto the format's microsecond timestamps. Every span becomes a `B`/`E`
/// pair on its own track: frames on track 0, command-processor events on
/// track 1, geometry front-end spans on track 2, and one track per
/// stripe × pipeline stage after that, so no
/// track ever nests or interleaves and timestamps are monotonic per track.
/// Per-frame counters additionally become `C` (counter) events.
pub fn chrome_json(t: &TraceFile) -> String {
    let meta = &t.meta;
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
        t.level.name()
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
    for f in &t.frames {
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
    push_ring(&mut out, &mut first, TID_FRAMES, t.frame_ring());
    push_ring(&mut out, &mut first, TID_CP, t.cp_ring());
    push_ring(&mut out, &mut first, TID_GEOM, t.geom_ring());
    // Fixed ascending stripe order — the same order stat shards merge in.
    for (stripe, ring) in t.stripe_rings().iter().enumerate() {
        for (slot, stage) in STRIPE_STAGES.iter().enumerate() {
            for span in ring.spans.iter().filter(|s| s.stage == *stage) {
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
pub fn frames_csv(t: &TraceFile) -> String {
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
    for client in &t.meta.clients {
        let _ = write!(out, ",bw_{client}_read,bw_{client}_written");
    }
    out.push('\n');
    for f in &t.frames {
        for (i, v) in f.scalars().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        for v in derived(f) {
            let _ = write!(out, ",{v:.4}");
        }
        for i in 0..t.meta.clients.len() {
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

// ---- CRC-32 -------------------------------------------------------------

// IEEE CRC-32 (reflected). This crate has no dependencies, so it hosts
// the workspace's one copy: the GWTB and GWCK containers, the harness
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, Level, Stage, TraceMeta};

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
        let json = chrome_json(&sample_collector(Level::Spans).trace());
        let summary = crate::validate::validate_chrome(&json).expect("validates");
        // Frame + Geometry + Draw + Clear + 3 stripe spans = 7 B/E pairs
        // (the clear is an instant pair too).
        assert_eq!(summary.begin_events, 7);
        assert!(summary.counter_events >= 2);
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn chrome_json_counters_level_has_no_spans() {
        let json = chrome_json(&sample_collector(Level::Counters).trace());
        let summary = crate::validate::validate_chrome(&json).expect("validates");
        assert_eq!(summary.begin_events, 0);
        assert_eq!(summary.counter_events, 2);
    }

    #[test]
    fn csv_has_header_and_one_row_per_frame() {
        let csv = frames_csv(&sample_collector(Level::Counters).trace());
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

    /// The three exports of [`sample_collector`] at `level`: Chrome JSON,
    /// frames CSV and GWTB.
    fn exported(level: Level) -> (String, String, Vec<u8>) {
        let t = sample_collector(level).trace();
        (chrome_json(&t), frames_csv(&t), t.to_binary())
    }

    /// Known values for every exported byte. The CSV is pinned as text,
    /// Chrome JSON and GWTB as length plus CRC-32. For GWTB the CRC is
    /// taken over the bytes before its trailer: the CRC-32 of a whole
    /// blob that ends in its own CRC is the same constant for every blob.
    #[test]
    fn exported_bytes_are_pinned() {
        const CSV: &str = "frame,end_tick,batches,indices,shaded_vertices,vcache_hits,\
            triangles,frags_raster,frags_zst,frags_shaded,frags_blended,quads_raster,\
            quads_hz_removed,quads_zst_removed,quads_alpha_removed,tex_requests,\
            bilinear_samples,z_accesses,z_hits,color_accesses,color_hits,tex_l0_accesses,\
            tex_l0_hits,tex_l1_accesses,tex_l1_hits,vcache_hit_pct,hz_kill_pct,zst_kill_pct,\
            alpha_kill_pct,z_hit_pct,color_hit_pct,tex_l0_hit_pct,tex_l1_hit_pct,\
            bw_cp_read,bw_cp_written,bw_tex_read,bw_tex_written\n\
            0,50,1,36,16,20,12,27,0,20,18,9,0,0,0,0,0,30,21,0,0,0,0,0,0,\
            55.5556,0.0000,0.0000,0.0000,70.0000,0.0000,0.0000,0.0000,100,30,50,0\n";
        for (level, chrome_pin, bin_pin) in [
            (Level::Spans, (2838, 0x4125_B157), (1000, 0x3FC3_3CA8)),
            (Level::Counters, (1966, 0xFB18_CA4B), (769, 0x224F_A651)),
        ] {
            let (chrome, csv, bin) = exported(level);
            assert_eq!(csv, CSV, "{level:?}: frames CSV");
            assert_eq!((chrome.len(), crc32(chrome.as_bytes())), chrome_pin, "{level:?}: Chrome JSON");
            assert_eq!((bin.len(), crc32(&bin[..bin.len() - 4])), bin_pin, "{level:?}: GWTB");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The empty input and the canonical CRC-32 check value.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
