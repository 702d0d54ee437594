//! The write-ahead journal (`jobs.wal`): every job state transition is
//! durable *before* it is visible.
//!
//! # Frame format
//!
//! The journal is a flat sequence of length-prefixed, CRC-guarded
//! frames:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The payload is one JSON document of the manifest subset
//! ([`gwc_harness::json`]). Three record kinds exist, tagged by `"ev"`:
//!
//! - `submitted` — the full job spec, appended (and fsynced) before the
//!   submission is acknowledged to the client;
//! - `started` — a worker picked the job up (crash forensics: a
//!   `started` with no later `done` is the job that was in flight);
//! - `done` — the terminal [`ManifestEntry`] (success *or* exhausted
//!   failure), appended and fsynced before the in-memory state flips.
//!
//! # Recovery
//!
//! [`scan`] reads frames until the first torn or corrupt one — a
//! partial length prefix, a short payload, a CRC mismatch, or an
//! unparseable document — and reports the byte length of the valid
//! prefix. The caller truncates the file there (repairing the torn tail
//! a `kill -9` during `append` leaves behind) and folds the surviving
//! records: a job with a `done` record is cached; a job without one is
//! re-admitted in original submission order, which makes a recovered
//! daemon converge to the bit-identical results of an uninterrupted one
//! (job execution itself is deterministic and seeded).
//!
//! # Rotation
//!
//! The journal grows by one `started` + one `done` per executed job and
//! is compacted once it crosses a size threshold: the live state (one
//! `submitted` plus, where terminal, one `done` per job) is written to a
//! temp file, fsynced, and atomically renamed over the journal — the
//! same temp-and-rename discipline the campaign manifest uses.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

use gwc_harness::json::{parse, Json};
use gwc_harness::{crc32, ManifestEntry};

use crate::jobspec::JobSpec;

/// Journal file name inside the data directory.
pub const WAL_FILE: &str = "jobs.wal";

/// Upper bound on a single frame payload; anything larger is corruption
/// (a real record is a few KB).
const MAX_FRAME_BYTES: u32 = 16 << 20;

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job entered the system.
    Submitted(JobSpec),
    /// A worker began executing the job with this content hash.
    Started(String),
    /// The job with this content hash reached a terminal state.
    Done {
        /// Content hash of the finished job.
        hash: String,
        /// Its durable outcome row.
        entry: ManifestEntry,
    },
}

impl Record {
    /// Serializes to the journal payload document.
    pub fn to_json(&self) -> Json {
        match self {
            Record::Submitted(spec) => Json::Obj(vec![
                ("ev".into(), Json::Str("submitted".into())),
                ("job".into(), spec.to_json()),
            ]),
            Record::Started(hash) => Json::Obj(vec![
                ("ev".into(), Json::Str("started".into())),
                ("hash".into(), Json::Str(hash.clone())),
            ]),
            Record::Done { hash, entry } => Json::Obj(vec![
                ("ev".into(), Json::Str("done".into())),
                ("hash".into(), Json::Str(hash.clone())),
                ("entry".into(), entry.to_json()),
            ]),
        }
    }

    /// Parses a journal payload document.
    pub fn from_json(v: &Json) -> Option<Record> {
        match v.get("ev")?.as_str()? {
            "submitted" => Some(Record::Submitted(JobSpec::from_json(v.get("job")?)?)),
            "started" => Some(Record::Started(v.get("hash")?.as_str()?.to_owned())),
            "done" => Some(Record::Done {
                hash: v.get("hash")?.as_str()?.to_owned(),
                entry: ManifestEntry::from_json(v.get("entry")?)?,
            }),
            _ => None,
        }
    }
}

/// Frames one payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The result of scanning a journal file.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Every record in the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    /// Whether bytes past the valid prefix existed (torn tail or
    /// corruption) — they are discarded by [`Wal::open`].
    pub tail_discarded: bool,
}

/// Scans journal bytes up to the first torn or corrupt frame.
pub fn scan(bytes: &[u8]) -> ReplayOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            // A clean end has zero remaining bytes; 1–7 is a torn prefix.
            return ReplayOutcome {
                records,
                valid_bytes: pos as u64,
                tail_discarded: !rest.is_empty(),
            };
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let torn = len > MAX_FRAME_BYTES
            || rest.len() < 8 + len as usize
            || crc32(&rest[8..8 + len as usize]) != crc;
        if torn {
            return ReplayOutcome { records, valid_bytes: pos as u64, tail_discarded: true };
        }
        let payload = &rest[8..8 + len as usize];
        let record = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| parse(text).ok())
            .and_then(|doc| Record::from_json(&doc));
        match record {
            Some(r) => records.push(r),
            // CRC passed but the document is garbage: written by
            // something that is not us. Stop trusting the file here.
            None => {
                return ReplayOutcome { records, valid_bytes: pos as u64, tail_discarded: true }
            }
        }
        pos += 8 + len as usize;
    }
}

/// An open journal: appends are framed, CRC-guarded, and fsynced before
/// `append` returns — callers may flip in-memory state only after.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
}

impl Wal {
    /// Opens (creating if absent) the journal in `dir`, replaying the
    /// valid prefix and truncating any torn tail so subsequent appends
    /// start from a consistent frame boundary.
    pub fn open(dir: &Path) -> io::Result<(Wal, ReplayOutcome)> {
        let path = dir.join(WAL_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let outcome = scan(&bytes);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if outcome.tail_discarded {
            gwc_failpoints::check("wal.open.truncate")?;
            file.set_len(outcome.valid_bytes)?;
            file.sync_all()?;
        }
        let wal = Wal { file, path, len: outcome.valid_bytes };
        Ok((wal, outcome))
    }

    /// Appends one record and fsyncs. The record is durable when this
    /// returns `Ok`.
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        let payload = record.to_json().to_pretty();
        let framed = frame(payload.as_bytes());
        gwc_failpoints::write_all("wal.append.write", &mut self.file, &framed)?;
        gwc_failpoints::check("wal.append.fsync")?;
        self.file.sync_data()?;
        self.len += framed.len() as u64;
        Ok(())
    }

    /// Current journal length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the journal holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compacts the journal to exactly `live` (in order), via temp file,
    /// fsync, and atomic rename. The replacement append handle is opened
    /// on the temp file *before* the rename — afterwards that inode *is*
    /// the journal, so the swap cannot half-complete and leave appends
    /// going to an unlinked file.
    ///
    /// Failures split in two by [`RotateError::journal_intact`]:
    ///
    /// - every step up to and including the rename leaves the original
    ///   journal and handle untouched on failure (`journal_intact:
    ///   true`) — genuinely non-fatal, the caller keeps appending to the
    ///   uncompacted journal;
    /// - a failed *directory fsync after the rename* is a durability
    ///   hole (`journal_intact: false`): appends now land in the new
    ///   inode, but a crash could resurface the old directory entry and
    ///   silently drop them. Callers must treat it like a failed append
    ///   and fail-stop.
    pub fn rotate(&mut self, live: &[Record]) -> Result<(), RotateError> {
        let intact = |error: io::Error| RotateError { error, journal_intact: true };
        let tmp_path = self.path.with_extension("wal.tmp");
        let mut framed = Vec::new();
        for record in live {
            framed.extend_from_slice(&frame(record.to_json().to_pretty().as_bytes()));
        }
        let written = framed.len() as u64;
        {
            let mut tmp = File::create(&tmp_path).map_err(intact)?;
            gwc_failpoints::write_all("wal.rotate.write", &mut tmp, &framed).map_err(intact)?;
            gwc_failpoints::check("wal.rotate.fsync").map_err(intact)?;
            tmp.sync_all().map_err(intact)?;
        }
        let file = OpenOptions::new().append(true).open(&tmp_path).map_err(intact)?;
        gwc_failpoints::check("wal.rotate.rename").map_err(intact)?;
        fs::rename(&tmp_path, &self.path).map_err(intact)?;
        // The rename has happened: from here the temp inode IS the
        // journal, so the handle and length swap over even on error.
        self.file = file;
        self.len = written;
        // Make the rename itself durable. If this fails, a crash can
        // resurface the pre-rotation directory entry while our appends go
        // to the new inode — report it as journal-compromising.
        let dirsync = gwc_failpoints::check("wal.rotate.dirsync").and_then(|()| {
            match self.path.parent() {
                Some(dir) => File::open(dir)?.sync_all(),
                None => Ok(()),
            }
        });
        dirsync.map_err(|error| RotateError { error, journal_intact: false })
    }
}

/// Why a [`Wal::rotate`] failed, and whether the journal survived it.
#[derive(Debug)]
pub struct RotateError {
    /// The underlying I/O failure.
    pub error: io::Error,
    /// `true`: the pre-rotation journal and append handle are untouched
    /// (the caller may keep going). `false`: the compaction rename is
    /// not durably published — further appends risk silent loss across a
    /// crash, so the caller must fail-stop.
    pub journal_intact: bool,
}

impl fmt::Display for RotateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.journal_intact {
            write!(f, "journal rotation failed (journal intact): {}", self.error)
        } else {
            write!(f, "journal rotation not durable (rename unsynced): {}", self.error)
        }
    }
}

impl std::error::Error for RotateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_core::RunConfig;
    use gwc_harness::{Experiment, Rung};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gwc-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn spec(seq: u32) -> JobSpec {
        JobSpec {
            hash: format!("{seq:016x}"),
            id: seq,
            game: "Doom3/trdemo2".into(),
            experiment: Experiment::Characterize,
            rung: Rung::Quick,
            config: RunConfig::quick(),
            trace: seq.is_multiple_of(2),
        }
    }

    fn entry(id: u32) -> ManifestEntry {
        ManifestEntry {
            id,
            game: "Doom3/trdemo2".into(),
            experiment: Experiment::Characterize,
            start_rung: Rung::Quick,
            final_rung: Rung::Quick,
            outcome: gwc_harness::Outcome::Ok,
            attempts: vec!["ok".into()],
            backoff_ms: vec![0],
            work: 123,
            detail: String::new(),
            output: Some(format!("art-{id:016x}.out")),
            output_crc: 0xABCD,
            checkpoint: None,
            trace: None,
            config: RunConfig::quick(),
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let records = vec![
            Record::Submitted(spec(0)),
            Record::Started("0000000000000000".into()),
            Record::Done { hash: "0000000000000000".into(), entry: entry(0) },
            Record::Submitted(spec(1)),
        ];
        {
            let (mut wal, outcome) = Wal::open(&dir).expect("open fresh");
            assert!(outcome.records.is_empty());
            for r in &records {
                wal.append(r).expect("append");
            }
        }
        let (_, outcome) = Wal::open(&dir).expect("reopen");
        assert_eq!(outcome.records, records);
        assert!(!outcome.tail_discarded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = temp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir).expect("open");
            wal.append(&Record::Started("aa".into())).expect("append");
            wal.append(&Record::Started("bb".into())).expect("append");
        }
        // Tear the last frame mid-payload, the shape a kill -9 leaves.
        let path = dir.join(WAL_FILE);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        let (mut wal, outcome) = Wal::open(&dir).expect("reopen");
        assert_eq!(outcome.records, vec![Record::Started("aa".into())]);
        assert!(outcome.tail_discarded);
        // The file was repaired: a new append lands on a frame boundary.
        wal.append(&Record::Started("cc".into())).expect("append after repair");
        let (_, outcome) = Wal::open(&dir).expect("re-reopen");
        assert_eq!(
            outcome.records,
            vec![Record::Started("aa".into()), Record::Started("cc".into())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let dir = temp_dir("crc");
        {
            let (mut wal, _) = Wal::open(&dir).expect("open");
            wal.append(&Record::Started("aa".into())).expect("append");
            wal.append(&Record::Started("bb".into())).expect("append");
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).expect("read");
        // Flip one payload byte of the second frame.
        let second = 8 + (u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize);
        bytes[second + 12] ^= 0x40;
        fs::write(&path, &bytes).expect("corrupt");
        let (_, outcome) = Wal::open(&dir).expect("reopen");
        assert_eq!(outcome.records, vec![Record::Started("aa".into())]);
        assert!(outcome.tail_discarded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_compacts_to_live_state() {
        let dir = temp_dir("rotate");
        let (mut wal, _) = Wal::open(&dir).expect("open");
        for i in 0..20 {
            wal.append(&Record::Submitted(spec(i))).expect("append");
            wal.append(&Record::Started(format!("{i:016x}"))).expect("append");
            wal.append(&Record::Done { hash: format!("{i:016x}"), entry: entry(i) })
                .expect("append");
        }
        let before = wal.len();
        let live = vec![
            Record::Submitted(spec(3)),
            Record::Done { hash: "0000000000000003".into(), entry: entry(3) },
        ];
        wal.rotate(&live).expect("rotate");
        assert!(wal.len() < before, "rotation must shrink the journal");
        let (_, outcome) = Wal::open(&dir).expect("reopen");
        assert_eq!(outcome.records, live);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rotation_leaves_the_journal_intact_and_durable() {
        let dir = temp_dir("rotate-fail");
        let (mut wal, _) = Wal::open(&dir).expect("open");
        wal.append(&Record::Started("aa".into())).expect("append");
        // Block the temp path with a directory so rotation fails before
        // the rename; the live handle must keep appending to the real,
        // linked journal.
        fs::create_dir(dir.join("jobs.wal.tmp")).expect("block tmp path");
        let live = vec![Record::Started("aa".into())];
        assert!(wal.rotate(&live).is_err(), "blocked rotation must fail");
        wal.append(&Record::Started("bb".into())).expect("append after failed rotate");
        let (_, outcome) = Wal::open(&dir).expect("reopen");
        assert_eq!(
            outcome.records,
            vec![Record::Started("aa".into()), Record::Started("bb".into())],
            "appends after a failed rotation must survive a reopen"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_file_is_discarded_entirely() {
        let dir = temp_dir("garbage");
        fs::write(dir.join(WAL_FILE), b"this is not a journal").expect("plant");
        let (wal, outcome) = Wal::open(&dir).expect("open");
        assert!(outcome.records.is_empty());
        assert!(outcome.tail_discarded);
        assert!(wal.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
