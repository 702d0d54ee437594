//! Exit-code contract of the `repro` binary.
//!
//! `repro` distinguishes three exits: 0 — every experiment succeeded;
//! 1 — at least one supervised job produced no result (timed-out,
//! panicked, skipped) or a campaign was interrupted; 2 — malformed
//! invocation or unusable input file. These tests drive the real binary
//! (cheap configurations throughout) and pin each code, plus the chaos
//! campaign's resume bit-identity, end to end.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("repro must exit, not die on a signal")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gwc-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Cheap study flags: 2 API frames, no simulated pass, tiny raster.
const CHEAP: &[&str] = &["--api-frames", "2", "--sim-frames", "0", "--res", "48x36"];

#[test]
fn healthy_experiment_exits_zero() {
    let out = repro(&[&["table1"], CHEAP].concat());
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("Doom3/trdemo2"), "table 1 lists the Table I demos");
    // Healthy supervision stays out of the golden output entirely.
    assert!(!stdout(&out).contains("supervised"), "stdout must stay clean");
}

#[test]
fn malformed_flags_exit_two() {
    for args in [
        &["table1", "--res", "banana"] as &[&str],
        &["--deadline-ms", "0"],
        &["--frobnicate"],
        &["replay", "--checkpoint-every", "0"],
        &["--api-frames"], // missing value
        &["trace", "--level", "banana"],
    ] {
        let out = repro(args);
        assert_eq!(code(&out), 2, "args {args:?}: stderr: {}", stderr(&out));
        assert!(stderr(&out).contains("repro:"), "args {args:?} must explain the rejection");
    }
}

#[test]
fn unknown_experiment_exits_two() {
    let out = repro(&[&["table99"], CHEAP].concat());
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown experiment 'table99'"), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_subcommand_exits_two_listing_known_ones() {
    // Rejected at parse time — before any study burns cycles.
    let out = repro(&["frobnicate"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown experiment 'frobnicate'"), "stderr: {err}");
    assert!(err.contains("known experiments:"), "stderr must teach the vocabulary: {err}");
    for known in ["all", "ablations", "replay", "parallel", "campaign", "trace"] {
        assert!(err.contains(known), "stderr must list '{known}': {err}");
    }
}

#[test]
fn help_exits_zero_listing_every_flag() {
    // Both the bare binary and the trace subcommand honour --help.
    for args in [&["--help"] as &[&str], &["trace", "--help"], &["-h"]] {
        let out = repro(args);
        assert_eq!(code(&out), 0, "args {args:?}: stderr: {}", stderr(&out));
        let text = stdout(&out);
        for flag in [
            "--paper", "--quick", "--api-frames", "--sim-frames", "--res", "--seed", "--csv", "--trace",
            "--game", "--level", "--out", "--checkpoint-every", "--resume", "--threads", "--dir",
            "--fail-fast", "--keep-going", "--max-retries", "--deadline-ms", "--work-budget",
            "--breaker", "--backoff-ms", "--chaos", "--stop-after", "--help",
        ] {
            assert!(text.contains(flag), "args {args:?}: usage must list {flag}");
        }
        for experiment in ["all", "ablations", "replay", "parallel", "campaign", "trace"] {
            assert!(text.contains(experiment), "args {args:?}: usage must list {experiment}");
        }
    }
}

#[test]
fn trace_smoke_writes_validated_artifacts() {
    let dir = temp_dir("trace");
    fs::create_dir_all(&dir).expect("mkdir");
    // `--game doom3` exercises the lenient fragment resolution too.
    let out = repro(&[
        "trace", "--game", "doom3", "--api-frames", "2", "--sim-frames", "1",
        "--res", "48x36", "--out", dir.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("Doom3_trdemo2.trace.json"), "stdout: {}", stdout(&out));
    for suffix in ["trace.json", "frames.csv", "trace.bin"] {
        let path = dir.join(format!("Doom3_trdemo2.{suffix}"));
        assert!(path.is_file(), "{} must exist", path.display());
        assert!(fs::metadata(&path).expect("stat").len() > 0, "{} must be non-empty", path.display());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ambiguous_game_fragment_exits_two() {
    // "riddick" matches two demos, neither simulated: no tiebreak applies.
    let out = repro(&["replay", "--game", "riddick", "--sim-frames", "1", "--res", "48x36"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("ambiguous game 'riddick'"), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_game_exits_two_and_lists_table1_names() {
    let out = repro(&["replay", "--game", "HalfLife3", "--sim-frames", "1", "--res", "48x36"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown game 'HalfLife3'"), "stderr: {err}");
    // The rejection teaches the valid vocabulary.
    for name in ["Oblivion/Anvil Castle", "Doom3/trdemo2", "Splinter Cell 3/first level"] {
        assert!(err.contains(name), "stderr must list {name}; got: {err}");
    }
}

#[test]
fn unreadable_or_corrupt_checkpoint_exits_two_naming_the_file() {
    // Missing file.
    let missing = std::env::temp_dir().join("gwc-cli-no-such-checkpoint.gwck");
    let _ = fs::remove_file(&missing);
    let out = repro(&[
        "replay", "--resume", missing.to_str().unwrap(),
        "--sim-frames", "1", "--res", "48x36",
    ]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot read checkpoint")
            && stderr(&out).contains("no-such-checkpoint.gwck"),
        "stderr must name the unreadable file; got: {}",
        stderr(&out)
    );

    // Present but corrupt: the typed CheckpointError reaches stderr.
    let corrupt = std::env::temp_dir()
        .join(format!("gwc-cli-corrupt-{}.gwck", std::process::id()));
    fs::write(&corrupt, b"GWCKnot really a checkpoint").expect("write corrupt blob");
    let out = repro(&[
        "replay", "--resume", corrupt.to_str().unwrap(),
        "--sim-frames", "1", "--res", "48x36",
    ]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot restore checkpoint"),
        "stderr must name the corrupt file; got: {}",
        stderr(&out)
    );
    let _ = fs::remove_file(&corrupt);
}

/// Fast chaos-campaign flags: every injected hang burns its small work
/// budget in milliseconds, retries back off by ~1ms.
fn chaos_args(dir: &std::path::Path, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = ["campaign", "--dir"].iter().map(|s| s.to_string()).collect();
    args.push(dir.display().to_string());
    for s in [
        "--api-frames", "2", "--sim-frames", "1", "--res", "48x36",
        "--chaos", "1", "--work-budget", "4000000", "--max-retries", "1",
        "--breaker", "2", "--backoff-ms", "1", "--deadline-ms", "30000",
    ] {
        args.push(s.to_string());
    }
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

#[test]
fn chaos_campaign_exits_one_with_full_outcome_taxonomy() {
    let dir = temp_dir("chaos");
    let args = chaos_args(&dir, &[]);
    let out = repro(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let summary = stdout(&out);
    // Chaos seed 1 over 16 jobs exercises every terminal classification.
    for outcome in ["ok", "retried", "degraded", "timed-out", "panicked", "skipped"] {
        assert!(summary.contains(outcome), "summary must mention '{outcome}': {summary}");
    }
    assert!(dir.join("campaign.json").is_file(), "manifest persisted");
    assert!(dir.join("campaign-report.txt").is_file(), "report assembled");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_chaos_campaign_resumes_bit_identically() {
    // Reference: one uninterrupted chaotic campaign.
    let dir_full = temp_dir("resume-full");
    let args = chaos_args(&dir_full, &[]);
    let out = repro(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));

    // The same campaign killed after 6 jobs...
    let dir_cut = temp_dir("resume-cut");
    let args = chaos_args(&dir_cut, &["--stop-after", "6"]);
    let out = repro(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(code(&out), 1, "an interrupted campaign is a failed campaign");
    assert!(
        stderr(&out).contains("campaign interrupted after 6"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(!dir_cut.join("campaign-report.txt").exists(), "no report until finished");

    // ...then resumed, re-running only the unfinished jobs.
    let args = chaos_args(&dir_cut, &["--resume"]);
    let out = repro(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));

    let full = fs::read(dir_full.join("campaign-report.txt")).expect("full report");
    let resumed = fs::read(dir_cut.join("campaign-report.txt")).expect("resumed report");
    assert_eq!(full, resumed, "resumed campaign must converge bit-identically");

    let _ = fs::remove_dir_all(&dir_full);
    let _ = fs::remove_dir_all(&dir_cut);
}

#[test]
fn supervised_study_under_chaos_exits_one_but_still_prints_tables() {
    // `repro <table>` routes through the supervised study: chaos costs
    // the afflicted games their rows (and the exit code), not the run.
    let out = repro(&[
        "table1", "--api-frames", "2", "--sim-frames", "0", "--res", "48x36",
        "--chaos", "2", "--work-budget", "100000", "--max-retries", "0",
        "--backoff-ms", "1", "--deadline-ms", "30000",
    ]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("Table"), "the table still prints for surviving games");
    let err = stderr(&out);
    assert!(
        err.contains("supervised jobs produced no result"),
        "stderr summarizes the losses: {err}"
    );
    for line in ["panicked", "timed-out"] {
        assert!(err.contains(line), "per-job summary must show '{line}': {err}");
    }
}

#[test]
fn fail_fast_stops_the_study_after_the_first_loss() {
    let out = repro(&[
        "table1", "--api-frames", "2", "--sim-frames", "0", "--res", "48x36",
        "--chaos", "2", "--work-budget", "100000", "--max-retries", "0",
        "--backoff-ms", "1", "--deadline-ms", "30000", "--fail-fast",
    ]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("fail-fast"),
        "later jobs are skipped by the latch: {}",
        stderr(&out)
    );
}
