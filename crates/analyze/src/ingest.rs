//! Directory ingest: from a data dir to a typed, deterministic run index.
//!
//! [`scan`] walks a directory tree (a campaign dir, a sweep dir, a
//! daemon data dir, or any ancestor of several) and decodes every
//! `*.trace.bin` it finds through the typed GWTB reader. Where a
//! `campaign.json` manifest sits next to traces, its entries contribute
//! the run's configuration and seed; traces without a manifest (e.g.
//! `repro trace` output) fall back to the metadata embedded in the
//! container itself. The resulting index is sorted by
//! (workload, config, seed, path) so every later pass — and every
//! exported byte — is independent of filesystem iteration order.

use std::fs;
use std::io;
use std::path::Path;

use gwc_harness::json::{self, Json};
use gwc_telemetry::reader::{read_trace, TraceFile};

/// Maximum directory depth [`scan`] descends, a symlink-cycle backstop.
const MAX_DEPTH: usize = 16;

/// One decoded run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Game or scenario name, from the trace's embedded metadata.
    pub workload: String,
    /// Configuration key: `<width>x<height>/f<frames>`, from the
    /// manifest when present, else from the trace itself.
    pub config: String,
    /// Supervision seed from the manifest entry; `None` for bare traces.
    pub seed: Option<u64>,
    /// Path relative to the scan root, `/`-separated.
    pub rel_path: String,
    /// The decoded trace.
    pub trace: TraceFile,
    /// CRC-32 trailer of the container, used for replica-divergence
    /// checks (equal key ⇒ equal bytes ⇒ equal CRC).
    pub crc: u32,
}

impl Run {
    /// Display label: `workload@config#seed` (seed omitted when unknown).
    pub fn label(&self) -> String {
        match self.seed {
            Some(seed) => format!("{}@{}#{seed}", self.workload, self.config),
            None => format!("{}@{}", self.workload, self.config),
        }
    }
}

/// A file the scan saw but could not use, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skipped {
    /// Path relative to the scan root.
    pub rel_path: String,
    /// Why it was skipped (typed reader error, unreadable file, …).
    pub reason: String,
}

/// The deterministic run index [`scan`] builds.
#[derive(Debug, Clone, Default)]
pub struct RunIndex {
    /// Usable runs, sorted by (workload, config, seed, path).
    pub runs: Vec<Run>,
    /// Trace files that failed to read or decode, sorted by path.
    pub skipped: Vec<Skipped>,
}

/// Manifest-supplied metadata for one trace file name.
struct ManifestMeta {
    trace_name: String,
    config: String,
    seed: u64,
}

/// Pulls (trace file name, config, seed) rows out of a `campaign.json`,
/// leniently: rows missing fields are ignored rather than fatal, and no
/// seed or version check applies — analytics reads what it can, unlike
/// the resume path which must refuse mismatched manifests.
fn manifest_rows(text: &str) -> Vec<ManifestMeta> {
    let Ok(doc) = json::parse(text) else { return Vec::new() };
    if doc.get("format").and_then(Json::as_str) != Some("gwc-campaign") {
        return Vec::new();
    }
    let Some(jobs) = doc.get("jobs").and_then(Json::as_arr) else { return Vec::new() };
    let mut rows = Vec::new();
    for job in jobs {
        let Some(trace_name) = job.get("trace").and_then(Json::as_str) else { continue };
        let Some(config) = job.get("config") else { continue };
        let field = |key: &str| config.get(key).and_then(Json::as_u64);
        let (Some(w), Some(h), Some(frames), Some(seed)) =
            (field("width"), field("height"), field("sim_frames"), field("seed"))
        else {
            continue;
        };
        rows.push(ManifestMeta {
            trace_name: trace_name.to_owned(),
            config: format!("{w}x{h}/f{frames}"),
            seed,
        });
    }
    rows
}

fn walk(
    root: &Path,
    dir: &Path,
    depth: usize,
    index: &mut RunIndex,
) -> io::Result<()> {
    if depth > MAX_DEPTH {
        return Ok(());
    }
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());

    // Manifest metadata applies to trace files in the same directory.
    let manifest: Vec<ManifestMeta> = match fs::read_to_string(dir.join("campaign.json")) {
        Ok(text) => manifest_rows(&text),
        Err(_) => Vec::new(),
    };

    for entry in entries {
        let path = entry.path();
        let file_type = entry.file_type()?;
        if file_type.is_dir() {
            walk(root, &path, depth + 1, index)?;
            continue;
        }
        if !file_type.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".trace.bin") {
            continue;
        }
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                index.skipped.push(Skipped { rel_path, reason: e.to_string() });
                continue;
            }
        };
        match read_trace(&bytes) {
            Ok(trace) => {
                let mut crc_bytes = [0u8; 4];
                crc_bytes.copy_from_slice(&bytes[bytes.len() - 4..]);
                let meta = manifest.iter().find(|m| m.trace_name == name);
                let config = match meta {
                    Some(m) => m.config.clone(),
                    None => format!(
                        "{}x{}/f{}",
                        trace.meta.width,
                        trace.meta.height,
                        trace.frames.len()
                    ),
                };
                index.runs.push(Run {
                    workload: trace.meta.game.clone(),
                    config,
                    seed: meta.map(|m| m.seed),
                    rel_path,
                    trace,
                    crc: u32::from_le_bytes(crc_bytes),
                });
            }
            Err(e) => {
                index.skipped.push(Skipped { rel_path, reason: e.to_string() });
            }
        }
    }
    Ok(())
}

/// Scans `root` recursively and builds the [`RunIndex`].
///
/// I/O errors on the root itself are fatal (there is nothing to analyze);
/// individual unreadable or corrupt trace files are recorded in
/// [`RunIndex::skipped`] and the scan continues.
pub fn scan(root: &Path) -> io::Result<RunIndex> {
    let mut index = RunIndex::default();
    walk(root, root, 0, &mut index)?;
    index.runs.sort_by(|a, b| {
        (&a.workload, &a.config, a.seed, &a.rel_path)
            .cmp(&(&b.workload, &b.config, b.seed, &b.rel_path))
    });
    index.skipped.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_telemetry::{Collector, FrameSample, Level, TraceMeta};

    fn blob(game: &str, w: u32, h: u32) -> Vec<u8> {
        let meta = TraceMeta {
            game: game.into(),
            width: w,
            height: h,
            stripe_rows: 16,
            stripes: 1,
            clients: vec!["Texture".into()],
            span_capacity: 16,
        };
        let mut c = Collector::new(Level::Spans, meta);
        c.record_draw(0, 10, 4);
        c.end_frame(12, FrameSample { bw_read: vec![8], bw_written: vec![2], ..Default::default() });
        c.trace().to_binary()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gwc-analyze-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn scan_finds_traces_joins_manifests_and_skips_corruption() {
        let dir = tmpdir("scan");
        fs::create_dir_all(dir.join("sub")).expect("mkdir sub");
        fs::write(dir.join("sub/job-000.trace.bin"), blob("GameA/demo", 64, 48)).expect("write");
        fs::write(dir.join("bare.trace.bin"), blob("GameB/demo", 32, 24)).expect("write");
        let mut corrupt = blob("GameC/demo", 32, 24);
        corrupt[10] ^= 0xFF;
        fs::write(dir.join("sub/broken.trace.bin"), corrupt).expect("write");
        fs::write(dir.join("sub/notes.txt"), "ignored").expect("write");
        fs::write(
            dir.join("sub/campaign.json"),
            r#"{"format": "gwc-campaign", "version": 2, "seed": 7, "jobs": [
                {"game": "GameA/demo", "trace": "job-000.trace.bin",
                 "config": {"width": 64, "height": 48, "sim_frames": 1, "seed": 7}}
            ]}"#,
        )
        .expect("write manifest");

        let index = scan(&dir).expect("scan");
        assert_eq!(index.runs.len(), 2);
        assert_eq!(index.runs[0].workload, "GameA/demo");
        assert_eq!(index.runs[0].config, "64x48/f1");
        assert_eq!(index.runs[0].seed, Some(7));
        assert_eq!(index.runs[0].label(), "GameA/demo@64x48/f1#7");
        assert_eq!(index.runs[1].workload, "GameB/demo");
        assert_eq!(index.runs[1].seed, None, "bare trace has no manifest seed");
        assert_eq!(index.runs[1].config, "32x24/f1", "config derived from the trace");
        assert_eq!(index.skipped.len(), 1);
        assert!(index.skipped[0].rel_path.ends_with("broken.trace.bin"));
        assert!(index.skipped[0].reason.contains("CRC"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_order_is_independent_of_discovery_order() {
        let dir = tmpdir("order");
        // Names chosen so filesystem order and sorted-key order differ.
        fs::write(dir.join("z-first.trace.bin"), blob("AGame/demo", 16, 16)).expect("write");
        fs::write(dir.join("a-second.trace.bin"), blob("ZGame/demo", 16, 16)).expect("write");
        let index = scan(&dir).expect("scan");
        let names: Vec<&str> = index.runs.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(names, vec!["AGame/demo", "ZGame/demo"], "sorted by workload, not path");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_manifests_are_ignored_not_fatal() {
        let dir = tmpdir("badmanifest");
        fs::write(dir.join("campaign.json"), "not json at all").expect("write");
        fs::write(dir.join("run.trace.bin"), blob("GameA/demo", 16, 16)).expect("write");
        let index = scan(&dir).expect("scan");
        assert_eq!(index.runs.len(), 1);
        assert_eq!(index.runs[0].seed, None);
        let _ = fs::remove_dir_all(&dir);
    }
}
