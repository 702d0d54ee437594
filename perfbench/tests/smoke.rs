//! Seconds-long runs of every workload through the real binary: each
//! exits 0, passes its output checks against the pinned digest, and
//! prints every metric `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::Command;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir
}

/// Runs one workload for one nominal second and returns its stdout.
fn run(workload: &str, trace: bool) -> String {
    let dir = work_dir(&format!("{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .current_dir(&dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir
        .join(".perfbench/scratch")
        .read_dir()
        .is_ok_and(|mut d| d.next().is_some()));
    stdout
}

fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let section = &text[text.find(&format!("\"{key}\"")).expect(key)..];
    let section = &section[..section.find(']').expect("list end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name end")].to_owned())
        .collect()
}

fn check_result(stdout: &str, key: &str) {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for name in declared(key) {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
    assert!(
        stdout.contains("equals the pinned digest for seed 24301"),
        "{stdout}"
    );
}

#[test]
fn shadow_replay_smoke() {
    check_result(&run("shadow-replay", false), "end_to_end");
}

#[test]
fn crowd_trace_mt_smoke_traced() {
    let stdout = run("crowd-trace-mt", true);
    check_result(&stdout, "per_layer");
    assert!(stdout.contains("hottest layer: pipeline."), "{stdout}");
    assert!(stdout.contains("tracing overhead"), "{stdout}");
}

#[test]
fn serve_study_smoke() {
    check_result(&run("serve-study", false), "end_to_end");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
