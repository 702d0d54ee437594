//! The GWTB binary trace container: its layout, its one writer
//! ([`TraceFile::to_binary`]) and its typed reader ([`read_trace`]).
//!
//! ```text
//! magic "GWTB", version u16, level u8
//! meta:   game, width, height, stripe_rows, stripes, span_capacity,
//!         client names (count-prefixed)
//! schema: scalar column names (count-prefixed) — self-describing
//! frames: count, then per frame the scalar columns in schema order
//!         followed by (read, written) u64 pairs per client
//! rings:  count (frame + cp + geometry + stripes), then per ring dropped u64,
//!         span count u32, spans as (stage u8, start, dur, arg0, arg1)
//! crc32 u32 over every preceding byte
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes; integers are little-endian.
//!
//! [`read_trace`] parses the container into the same [`TraceFile`] model
//! the writer encodes, so for every collector `c`,
//! `read_trace(&c.trace().to_binary()) == Ok(c.trace())`. It is a *total*
//! function over byte slices: every malformed input maps to a
//! [`ReadError`] variant, never a panic, mirroring the checkpoint restore
//! path. Decoding is a single forward pass over the borrowed input with no
//! intermediate buffer copies; only the decoded values themselves
//! (strings, frame rows, spans) are materialized.

use crate::export::crc32;
use crate::{tracks, FrameSample, Level, SpanEvent, Stage, TraceMeta, SCALAR_COUNT};

/// GWTB container magic.
pub const BINARY_MAGIC: [u8; 4] = *b"GWTB";
/// GWTB container version.
pub const BINARY_VERSION: u16 = 1;

/// Longest plausible embedded string, matching the writer's own bound.
const MAX_STRING: u32 = 1 << 20;

/// A typed GWTB decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Input shorter than the fixed header + CRC trailer.
    TooShort {
        /// Actual input length in bytes.
        len: usize,
    },
    /// The first four bytes are not `GWTB`.
    BadMagic,
    /// The CRC-32 trailer does not match the preceding bytes.
    CrcMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// Header version this reader does not understand.
    UnsupportedVersion(u16),
    /// The body ended in the middle of the named field.
    Truncated {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// A length-prefixed string claims an implausible length.
    StringTooLong {
        /// Which field was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u32,
    },
    /// A length-prefixed string holds invalid UTF-8.
    BadUtf8 {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// The level byte is not a known [`Level`] tag.
    BadLevelTag(u8),
    /// A span's stage byte is not a known [`Stage`] tag.
    BadStageTag(u8),
    /// The embedded schema has the wrong number of columns.
    SchemaColumnCount {
        /// Column count found in the container.
        got: u32,
        /// Column count this reader expects.
        expected: u32,
    },
    /// An embedded schema column name differs from the fixed layout.
    SchemaColumnMismatch {
        /// Zero-based column index.
        index: usize,
        /// Name found in the container.
        got: String,
        /// Name the fixed layout requires.
        expected: &'static str,
    },
    /// The ring count does not equal `3 + stripes`.
    RingCountMismatch {
        /// Ring count found in the container.
        got: u32,
        /// Ring count implied by the stripe count.
        expected: u32,
    },
    /// A ring's spans are not ordered by non-decreasing start tick.
    UnorderedSpans {
        /// Zero-based ring index.
        ring: usize,
    },
    /// Bytes remain between the last ring and the CRC trailer.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::TooShort { len } => write!(f, "binary trace too short ({len} bytes)"),
            ReadError::BadMagic => write!(f, "not a GWTB trace (bad magic)"),
            ReadError::CrcMismatch { stored, computed } => write!(
                f,
                "GWTB CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ReadError::UnsupportedVersion(v) => write!(f, "unsupported GWTB version {v}"),
            ReadError::Truncated { what } => write!(f, "GWTB truncated while reading {what}"),
            ReadError::StringTooLong { what, len } => {
                write!(f, "GWTB {what} string length {len} implausible")
            }
            ReadError::BadUtf8 { what } => write!(f, "GWTB {what} string not UTF-8"),
            ReadError::BadLevelTag(t) => write!(f, "GWTB has unknown level tag {t}"),
            ReadError::BadStageTag(t) => write!(f, "GWTB span has unknown stage tag {t}"),
            ReadError::SchemaColumnCount { got, expected } => {
                write!(f, "GWTB schema has {got} columns, expected {expected}")
            }
            ReadError::SchemaColumnMismatch { index, got, expected } => write!(
                f,
                "GWTB schema column {index} is '{got}' where '{expected}' expected"
            ),
            ReadError::RingCountMismatch { got, expected } => write!(
                f,
                "GWTB has {got} rings, expected {expected} (frame + cp + geometry + stripes)"
            ),
            ReadError::UnorderedSpans { ring } => {
                write!(f, "GWTB ring {ring} spans are not tick-ordered")
            }
            ReadError::TrailingBytes { extra } => {
                write!(f, "GWTB has {extra} trailing bytes before the CRC")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// One span ring, labeled with its canonical track name from
/// [`crate::tracks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackRing {
    /// Canonical track name (`frames`, `command-processor`, `geometry`,
    /// or `stripe<N>`).
    pub name: String,
    /// Spans dropped to ring overflow before the snapshot.
    pub dropped: u64,
    /// Spans, oldest first.
    pub spans: Vec<SpanEvent>,
}

/// A whole trace: what [`crate::Collector::trace`] snapshots, every
/// exporter renders, and [`read_trace`] decodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Collection level the trace was recorded at.
    pub level: Level,
    /// Run metadata.
    pub meta: TraceMeta,
    /// Per-frame time-series rows.
    pub frames: Vec<FrameSample>,
    /// Span rings in container order: frame, command processor, geometry,
    /// then one per stripe. Always at least three entries.
    pub rings: Vec<TrackRing>,
}

impl TraceFile {
    /// The frame-span ring.
    pub fn frame_ring(&self) -> &TrackRing {
        &self.rings[0]
    }

    /// The command-processor ring.
    pub fn cp_ring(&self) -> &TrackRing {
        &self.rings[1]
    }

    /// The geometry front-end ring.
    pub fn geom_ring(&self) -> &TrackRing {
        &self.rings[2]
    }

    /// The per-stripe rings, ascending stripe order.
    pub fn stripe_rings(&self) -> &[TrackRing] {
        &self.rings[3..]
    }

    /// Total spans across all rings.
    pub fn spans(&self) -> u64 {
        self.rings.iter().map(|r| r.spans.len() as u64).sum()
    }

    /// Total spans dropped to ring overflow across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// Work tick at which the trace ends: the last frame's end tick, or
    /// the furthest span end when no frame row exists.
    pub fn end_tick(&self) -> u64 {
        let frame_end = self.frames.last().map_or(0, |f| f.end_tick);
        let span_end = self
            .rings
            .iter()
            .flat_map(|r| r.spans.iter())
            .map(|s| s.start + s.dur)
            .max()
            .unwrap_or(0);
        frame_end.max(span_end)
    }

    /// Encodes the trace as a GWTB container (layout in the module docs).
    /// This is the only GWTB writer; [`read_trace`] is its inverse.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut buf: Vec<u8> = Vec::new();
        let push_u32 = |buf: &mut Vec<u8>, v: u32| buf.extend_from_slice(&v.to_le_bytes());
        let push_u64 = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        let push_str = |buf: &mut Vec<u8>, s: &str| {
            push_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        };

        buf.extend_from_slice(&BINARY_MAGIC);
        buf.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        buf.push(self.level.tag());

        push_str(&mut buf, &self.meta.game);
        push_u32(&mut buf, self.meta.width);
        push_u32(&mut buf, self.meta.height);
        push_u32(&mut buf, self.meta.stripe_rows);
        push_u32(&mut buf, self.meta.stripes);
        push_u32(&mut buf, self.meta.span_capacity);
        push_u32(&mut buf, self.meta.clients.len() as u32);
        for client in &self.meta.clients {
            push_str(&mut buf, client);
        }

        push_u32(&mut buf, SCALAR_COUNT as u32);
        for col in FrameSample::SCALAR_COLUMNS {
            push_str(&mut buf, col);
        }

        push_u32(&mut buf, self.frames.len() as u32);
        for f in &self.frames {
            for v in f.scalars() {
                push_u64(&mut buf, v);
            }
            for i in 0..self.meta.clients.len() {
                push_u64(&mut buf, f.bw_read.get(i).copied().unwrap_or(0));
                push_u64(&mut buf, f.bw_written.get(i).copied().unwrap_or(0));
            }
        }

        push_u32(&mut buf, self.rings.len() as u32);
        for ring in &self.rings {
            push_u64(&mut buf, ring.dropped);
            push_u32(&mut buf, ring.spans.len() as u32);
            for span in &ring.spans {
                buf.push(span.stage.tag());
                push_u64(&mut buf, span.start);
                push_u64(&mut buf, span.dur);
                push_u64(&mut buf, span.arg0);
                push_u64(&mut buf, span.arg1);
            }
        }

        let crc = crc32(&buf);
        push_u32(&mut buf, crc);
        buf
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ReadError> {
        if n > self.buf.len() - self.pos {
            return Err(ReadError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ReadError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ReadError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ReadError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ReadError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self, what: &'static str) -> Result<String, ReadError> {
        let n = self.u32(what)?;
        if n > MAX_STRING {
            return Err(ReadError::StringTooLong { what, len: n });
        }
        String::from_utf8(self.take(n as usize, what)?.to_vec())
            .map_err(|_| ReadError::BadUtf8 { what })
    }
}

/// Parses a GWTB blob into a [`TraceFile`].
///
/// The CRC-32 trailer is verified before any structural decode, so a
/// single flipped bit anywhere fails typed rather than producing a
/// silently-wrong trace. Counts are never trusted for allocation — a
/// corrupt count runs into [`ReadError::Truncated`] instead of an
/// out-of-memory abort.
pub fn read_trace(bytes: &[u8]) -> Result<TraceFile, ReadError> {
    if bytes.len() < 11 {
        return Err(ReadError::TooShort { len: bytes.len() });
    }
    if bytes[..4] != BINARY_MAGIC {
        return Err(ReadError::BadMagic);
    }
    let body = &bytes[..bytes.len() - 4];
    let mut trailer = [0u8; 4];
    trailer.copy_from_slice(&bytes[bytes.len() - 4..]);
    let stored = u32::from_le_bytes(trailer);
    let computed = crc32(body);
    if stored != computed {
        return Err(ReadError::CrcMismatch { stored, computed });
    }

    let mut r = Cursor { buf: body, pos: 4 };
    let version = r.u16("version")?;
    if version != BINARY_VERSION {
        return Err(ReadError::UnsupportedVersion(version));
    }
    let level_tag = r.u8("level")?;
    let level = Level::from_tag(level_tag).ok_or(ReadError::BadLevelTag(level_tag))?;

    let game = r.str("game name")?;
    let width = r.u32("width")?;
    let height = r.u32("height")?;
    let stripe_rows = r.u32("stripe rows")?;
    let stripes = r.u32("stripe count")?;
    let span_capacity = r.u32("span capacity")?;
    let client_count = r.u32("client count")?;
    let mut clients = Vec::new();
    for _ in 0..client_count {
        clients.push(r.str("client name")?);
    }
    let meta = TraceMeta { game, width, height, stripe_rows, stripes, clients, span_capacity };

    let column_count = r.u32("schema column count")?;
    if column_count as usize != SCALAR_COUNT {
        return Err(ReadError::SchemaColumnCount {
            got: column_count,
            expected: SCALAR_COUNT as u32,
        });
    }
    for (index, expected) in FrameSample::SCALAR_COLUMNS.iter().enumerate() {
        let got = r.str("schema column")?;
        if got != *expected {
            return Err(ReadError::SchemaColumnMismatch { index, got, expected });
        }
    }

    let frame_count = r.u32("frame count")?;
    let mut frames = Vec::new();
    for _ in 0..frame_count {
        let mut scalars = [0u64; SCALAR_COUNT];
        for slot in &mut scalars {
            *slot = r.u64("frame scalar")?;
        }
        let mut bw_read = Vec::new();
        let mut bw_written = Vec::new();
        for _ in 0..meta.clients.len() {
            bw_read.push(r.u64("client bytes read")?);
            bw_written.push(r.u64("client bytes written")?);
        }
        frames.push(FrameSample::from_scalars(scalars, bw_read, bw_written));
    }

    let ring_count = r.u32("ring count")?;
    let expected_rings = 3u32.saturating_add(meta.stripes);
    if ring_count != expected_rings {
        return Err(ReadError::RingCountMismatch { got: ring_count, expected: expected_rings });
    }
    let mut rings = Vec::new();
    for index in 0..ring_count as usize {
        let dropped = r.u64("ring dropped count")?;
        let span_count = r.u32("ring span count")?;
        let mut spans = Vec::new();
        let mut prev_start = 0u64;
        for _ in 0..span_count {
            let tag = r.u8("span stage tag")?;
            let stage = Stage::from_tag(tag).ok_or(ReadError::BadStageTag(tag))?;
            let start = r.u64("span start")?;
            let dur = r.u64("span duration")?;
            let arg0 = r.u64("span arg0")?;
            let arg1 = r.u64("span arg1")?;
            if start < prev_start {
                return Err(ReadError::UnorderedSpans { ring: index });
            }
            prev_start = start;
            spans.push(SpanEvent { stage, start, dur, arg0, arg1 });
        }
        rings.push(TrackRing { name: tracks::ring_name(index), dropped, spans });
    }

    if r.pos != body.len() {
        return Err(ReadError::TrailingBytes { extra: body.len() - r.pos });
    }
    Ok(TraceFile { level, meta, frames, rings })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collector-driven round-trip coverage lives in the export tests and
    // the `reader_props` proptest suite; these unit tests pin the typed
    // error surface on hand-built corruptions.

    fn tiny_collector() -> crate::Collector {
        let meta = TraceMeta {
            game: "Test/demo".into(),
            width: 32,
            height: 24,
            stripe_rows: 8,
            stripes: 2,
            clients: vec!["cp".into()],
            span_capacity: 8,
        };
        let mut c = crate::Collector::new(Level::Spans, meta);
        c.record_draw(1, 6, 3);
        c.end_frame(
            10,
            FrameSample { indices: 9, bw_read: vec![64], bw_written: vec![16], ..Default::default() },
        );
        c
    }

    fn tiny_blob() -> Vec<u8> {
        tiny_collector().trace().to_binary()
    }

    #[test]
    fn reads_writer_output_and_reencodes_identically() {
        let blob = tiny_blob();
        let t = read_trace(&blob).expect("reads");
        assert_eq!(t, tiny_collector().trace(), "the reader inverts the writer");
        assert_eq!(t.level, Level::Spans);
        assert_eq!(t.meta.game, "Test/demo");
        assert_eq!(t.frames.len(), 1);
        assert_eq!(t.frames[0].indices, 9);
        assert_eq!(t.frames[0].bw_read, vec![64]);
        assert_eq!(t.rings.len(), 5);
        assert_eq!(t.frame_ring().name, "frames");
        assert_eq!(t.cp_ring().spans.len(), 1);
        assert_eq!(t.stripe_rings().len(), 2);
        assert_eq!(t.spans(), 2, "frame span + draw span");
        assert_eq!(t.end_tick(), 10);
        assert_eq!(t.to_binary(), blob);
    }

    #[test]
    fn every_truncation_is_typed() {
        let blob = tiny_blob();
        for cut in 0..blob.len() {
            let err = read_trace(&blob[..cut]).expect_err("truncation must fail");
            match err {
                ReadError::TooShort { .. }
                | ReadError::BadMagic
                | ReadError::CrcMismatch { .. } => {}
                other => panic!("unexpected error for cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut blob = tiny_blob();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x04;
        assert!(matches!(read_trace(&blob), Err(ReadError::CrcMismatch { .. })));

        let mut wrong_magic = tiny_blob();
        wrong_magic[0] = b'X';
        assert_eq!(read_trace(&wrong_magic), Err(ReadError::BadMagic));
    }

    #[test]
    fn structural_lies_with_fixed_crc_are_typed() {
        // Corrupt a field, then re-stamp a valid CRC so the structural
        // checks (not the checksum) must catch the lie.
        let restamp = |mut b: Vec<u8>| {
            let n = b.len();
            let crc = crc32(&b[..n - 4]);
            b[n - 4..].copy_from_slice(&crc.to_le_bytes());
            b
        };

        let mut wrong_version = tiny_blob();
        wrong_version[4] = 9;
        assert!(matches!(
            read_trace(&restamp(wrong_version)),
            Err(ReadError::UnsupportedVersion(9))
        ));

        let mut wrong_level = tiny_blob();
        wrong_level[6] = 7;
        assert!(matches!(read_trace(&restamp(wrong_level)), Err(ReadError::BadLevelTag(7))));

        let mut huge_string = tiny_blob();
        // The game-name length prefix sits right after magic+version+level.
        huge_string[7..11].copy_from_slice(&(MAX_STRING + 1).to_le_bytes());
        assert!(matches!(
            read_trace(&restamp(huge_string)),
            Err(ReadError::StringTooLong { what: "game name", .. })
        ));

        let trailing = {
            let mut b = tiny_blob();
            let n = b.len();
            b.splice(n - 4..n - 4, [0u8]);
            restamp(b)
        };
        assert!(matches!(read_trace(&trailing), Err(ReadError::TrailingBytes { extra: 1 })));
    }

    #[test]
    fn error_display_is_stable() {
        assert!(ReadError::BadMagic.to_string().contains("magic"));
        assert!(ReadError::CrcMismatch { stored: 1, computed: 2 }.to_string().contains("CRC"));
        assert!(ReadError::Truncated { what: "span start" }.to_string().contains("span start"));
    }
}
