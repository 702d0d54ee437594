//! GWCK checkpoint container: frame-boundary GPU state serialization.
//!
//! Layout (all little-endian), following the GWCT trace codec conventions:
//!
//! ```text
//! magic  "GWCK"            4 bytes
//! version u16              2 bytes
//! sections, repeated:
//!   tag   [u8; 4]
//!   len   u64              payload length
//!   crc32 u32              IEEE CRC-32 of the payload
//!   payload               `len` bytes
//! ```
//!
//! This module owns the container (framing, integrity, primitive codecs);
//! [`crate::Gpu::save_checkpoint`] and [`crate::Gpu::restore_checkpoint`]
//! own which sections exist and what their payloads mean.

use gwc_telemetry::export::crc32;

/// File magic: `GWCK`.
const MAGIC: [u8; 4] = *b"GWCK";
/// Container format version. Version 2 added the stripe layout to `CONF`
/// and made the framebuffer cache records per-stripe in `FRAM` (the
/// stripe-parallel fragment pipeline). Version 3 appended the work-tick
/// clock to `CONF` so resumed runs continue the telemetry timebase.
/// Version 4 widened the `STAT` fault counters from 6 to 7 slots
/// (`FaultKind::Storage`). Older blobs are rejected.
const VERSION: u16 = 4;

/// Errors produced when reading a checkpoint blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the checkpoint magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u16),
    /// The blob ended mid-section.
    Truncated,
    /// A section's payload failed its CRC check.
    BadCrc([u8; 4]),
    /// A required section is absent.
    MissingSection([u8; 4]),
    /// A section decoded but its contents are inconsistent with the
    /// configuration or with each other.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = |t: &[u8; 4]| String::from_utf8_lossy(t).into_owned();
        match self {
            CheckpointError::BadMagic => write!(f, "not a GWCK checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint ends mid-section"),
            CheckpointError::BadCrc(t) => write!(f, "section {} failed CRC check", tag(t)),
            CheckpointError::MissingSection(t) => write!(f, "section {} missing", tag(t)),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint inconsistent: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---- container framing ------------------------------------------------

/// Builds a checkpoint blob section by section.
pub(crate) struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    pub(crate) fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        SectionWriter { buf }
    }

    pub(crate) fn section(&mut self, tag: [u8; 4], payload: &[u8]) {
        self.buf.extend_from_slice(&tag);
        self.buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Parsed `(tag, payload)` section pairs.
pub(crate) type Sections<'a> = Vec<([u8; 4], &'a [u8])>;

/// Parses a checkpoint blob into `(tag, payload)` pairs, verifying the
/// header and every section's CRC.
pub(crate) fn read_sections(bytes: &[u8]) -> Result<Sections<'_>, CheckpointError> {
    if bytes.len() < 6 {
        return Err(if bytes.len() >= 4 && bytes[..4] != MAGIC {
            CheckpointError::BadMagic
        } else {
            CheckpointError::Truncated
        });
    }
    if bytes[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let mut pos = 6usize;
    let mut sections = Vec::new();
    while pos < bytes.len() {
        if bytes.len() - pos < 16 {
            return Err(CheckpointError::Truncated);
        }
        let tag: [u8; 4] =
            bytes[pos..pos + 4].try_into().map_err(|_| CheckpointError::Truncated)?;
        let len = u64::from_le_bytes(
            bytes[pos + 4..pos + 12].try_into().map_err(|_| CheckpointError::Truncated)?,
        ) as usize;
        let crc = u32::from_le_bytes(
            bytes[pos + 12..pos + 16].try_into().map_err(|_| CheckpointError::Truncated)?,
        );
        pos += 16;
        if len > bytes.len() - pos {
            return Err(CheckpointError::Truncated);
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        if crc32(payload) != crc {
            return Err(CheckpointError::BadCrc(tag));
        }
        sections.push((tag, payload));
    }
    Ok(sections)
}

/// Finds a required section by tag.
pub(crate) fn require<'a>(
    sections: &[([u8; 4], &'a [u8])],
    tag: [u8; 4],
) -> Result<&'a [u8], CheckpointError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
        .ok_or(CheckpointError::MissingSection(tag))
}

// ---- payload primitives -----------------------------------------------

/// Little-endian payload encoder for section bodies.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Little-endian payload decoder for section bodies.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.buf.len() - self.pos {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn arr<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        self.take(N)?.try_into().map_err(|_| CheckpointError::Truncated)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.arr()?))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.arr()?))
    }
    pub(crate) fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.arr()?))
    }
    /// Everything not yet consumed.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
    pub(crate) fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_roundtrip() {
        let mut w = SectionWriter::new();
        w.section(*b"AAAA", b"hello");
        w.section(*b"BBBB", b"");
        w.section(*b"CCCC", &[0u8; 1000]);
        let blob = w.finish();
        let sections = read_sections(&blob).expect("parses");
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0], (*b"AAAA", b"hello".as_slice()));
        assert_eq!(sections[1].1.len(), 0);
        assert_eq!(require(&sections, *b"CCCC").unwrap().len(), 1000);
        assert_eq!(
            require(&sections, *b"ZZZZ").unwrap_err(),
            CheckpointError::MissingSection(*b"ZZZZ")
        );
    }

    #[test]
    fn header_checks() {
        assert_eq!(read_sections(b"nope??").unwrap_err(), CheckpointError::BadMagic);
        assert_eq!(read_sections(b"GW").unwrap_err(), CheckpointError::Truncated);
        let mut blob = SectionWriter::new().finish();
        blob[4] = 0xff;
        assert!(matches!(read_sections(&blob).unwrap_err(), CheckpointError::BadVersion(_)));
    }

    #[test]
    fn payload_corruption_detected_by_crc() {
        let mut w = SectionWriter::new();
        w.section(*b"STAT", b"some payload bytes");
        let mut blob = w.finish();
        let n = blob.len();
        blob[n - 3] ^= 0x40; // flip one payload bit
        assert_eq!(read_sections(&blob).unwrap_err(), CheckpointError::BadCrc(*b"STAT"));
    }

    #[test]
    fn truncation_detected() {
        let mut w = SectionWriter::new();
        w.section(*b"MEMC", &[7u8; 64]);
        let blob = w.finish();
        for cut in [7, 10, 20, blob.len() - 1] {
            assert_eq!(read_sections(&blob[..cut]).unwrap_err(), CheckpointError::Truncated);
        }
    }

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f32(-0.25);
        e.bytes(b"xyz");
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f32().unwrap(), -0.25);
        assert_eq!(d.take(3).unwrap(), b"xyz");
        assert!(d.done());
        assert_eq!(d.u8().unwrap_err(), CheckpointError::Truncated);
    }
}
