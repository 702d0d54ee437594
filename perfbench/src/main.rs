//! `perfbench`: the repository benchmark. It runs one named workload
//! with a given seed through the crates' public APIs, checks the outputs,
//! and prints every end-to-end metric (or, with `--trace 1`, every
//! per-layer metric) by name with its unit. The last line of standard
//! output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! perfbench --workload shadow-replay|crowd-trace-mt|serve-study
//!           [--seed N] [--seconds S] [--trace 0|1] [--pin]
//! ```
//!
//! `perfbench serve-daemon <data-dir> <workers>` is the gwc-serve child
//! that serve-study starts; it is not meant to be run by hand.
//!
//! See README.md for the workloads, the metrics and what they map to.

mod digest;
mod host;
mod serve;
mod sim;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics, measured with tracing off, in output order.
const END_TO_END: [(&str, &str); 8] = [
    ("ticks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("hit_ms_p50", "ms"),
    ("hit_ms_tail", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: [(&str, &str); 52] = [
    ("workloads.emit_s", "s"),
    ("workloads.commands", "count"),
    ("api.submit_s", "s"),
    ("pipeline.new_s", "s"),
    ("pipeline.create_s", "s"),
    ("pipeline.create_calls", "count"),
    ("pipeline.draw_color.s", "s"),
    ("pipeline.draw_color.calls", "count"),
    ("pipeline.draw_color.ticks", "count"),
    ("pipeline.draw_color.ns_per_tick", "ns"),
    ("pipeline.draw_nocolor.s", "s"),
    ("pipeline.draw_nocolor.calls", "count"),
    ("pipeline.draw_nocolor.ticks", "count"),
    ("pipeline.draw_nocolor.ns_per_tick", "ns"),
    ("pipeline.draw_us_p50", "us"),
    ("pipeline.draw_us_tail", "us"),
    ("pipeline.cpu_util", "s/s"),
    ("pipeline.ctx_switches_per_draw", "count"),
    ("pipeline.state_s", "s"),
    ("pipeline.clear_s", "s"),
    ("pipeline.end_frame_s", "s"),
    ("pipeline.checkpoint_save_s", "s"),
    ("pipeline.checkpoint_restore_s", "s"),
    ("pipeline.checkpoint_bytes", "B"),
    ("telemetry.export_s", "s"),
    ("telemetry.validate_s", "s"),
    ("telemetry.gwtb_bytes", "B"),
    ("telemetry.spans", "count"),
    ("telemetry.dropped_frac", "fraction"),
    ("server.admit_ms_p50", "ms"),
    ("server.poll_ms_p50", "ms"),
    ("server.artifact_ms_p50", "ms"),
    ("server.api_job_ms_p50", "ms"),
    ("server.sim_job_ms_p50", "ms"),
    ("server.polls_per_job", "count"),
    ("server.journal_bytes_per_job", "B"),
    ("server.retried_frac", "fraction"),
    ("server.shed", "count"),
    ("sim.work_ticks", "count"),
    ("sim.indices", "count"),
    ("sim.vcache_hit_rate", "fraction"),
    ("sim.triangles_traversed", "count"),
    ("sim.frags_raster", "count"),
    ("sim.hz_removed_frac", "fraction"),
    ("sim.zst_removed_frac", "fraction"),
    ("sim.fs_instructions", "count"),
    ("sim.bilinear_samples", "count"),
    ("sim.tex_l0_hit_rate", "fraction"),
    ("sim.tex_l1_hit_rate", "fraction"),
    ("sim.z_hit_rate", "fraction"),
    ("sim.color_hit_rate", "fraction"),
    ("sim.mem_bytes", "B"),
];

const WORKLOADS: [&str; 3] = ["shadow-replay", "crowd-trace-mt", "serve-study"];

const USAGE: &str = "usage: perfbench --workload shadow-replay|crowd-trace-mt|serve-study \
[--seed N] [--seconds S] [--trace 0|1] [--pin]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Nominal measuring time.
    pub seconds: u32,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Write this run's digest as the pinned one for its seed.
    pub pin: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: digest::DEFAULT_SEED,
        seconds: 20,
        trace: false,
        pin: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| *w == name)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or("--seconds takes an integer from 1 to 600")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The `i`-th seed derived from a run's seed: `seed` itself for `i = 0`,
/// then seeds that no other small run seed derives.
pub fn derived_seed(seed: u64, i: u32) -> u64 {
    seed.wrapping_add(u64::from(i) << 32)
}

/// One end-to-end metric as measured, with how it was reduced.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name, one of [`END_TO_END`].
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Reduction and sample count, e.g. `p90 of 108 jobs`.
    pub detail: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Thread, worker and client counts actually used.
    pub host: Vec<(&'static str, String)>,
    /// End-to-end metrics of the untraced pass.
    pub e2e: Vec<Measured>,
    /// End-to-end metrics of the traced pass (traced runs only).
    pub e2e_traced: Vec<Measured>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Per-layer self-time tables and other traced-run text.
    pub report: String,
    /// Spans of the traced pass, as JSON lines.
    pub spans_jsonl: String,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// What the output checks established.
    pub checks: Vec<String>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// The run's digest, for `--pin`.
    pub digest: digest::Digest,
}

impl Outcome {
    /// A per-layer metric's value; 0 for a layer this workload does not
    /// exercise.
    fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Applies the pinned-digest check for `workload` at `seed`: a
    /// mismatch fails every operation.
    pub fn check_digest(&mut self, workload: &str, seed: u64, what: &str) {
        match digest::check(workload, seed, &self.digest) {
            digest::Check::Pinned => self.checks.push(format!(
                "digest: equals the pinned digest for seed {seed} ({} counters); {what}",
                self.digest.0.len()
            )),
            digest::Check::Unpinned => self.checks.push(format!(
                "digest: no digest pinned for seed {seed} (pinned: {} and {}); {what}",
                digest::DEFAULT_SEED,
                digest::HELD_OUT_SEED
            )),
            digest::Check::Mismatch(diff) => {
                self.failed = self.attempted;
                for d in diff.iter().take(10) {
                    self.failures
                        .push(format!("digest mismatch for seed {seed}: {d}"));
                }
            }
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The human-readable report printed above the JSON line.
fn render(args: &Args, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== perfbench {} seed {} ({} s nominal, tracing {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    let mut host = vec![("nproc", host::nproc().to_string())];
    host.extend(outcome.host.iter().cloned());
    host.extend([
        ("cpu", format!("\"{}\"", host::cpu_model())),
        ("rustc", format!("\"{}\"", host::rustc_version())),
        ("commit", host::git_commit()),
        ("seed", args.seed.to_string()),
    ]);
    let host: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(out, "host: {}", host.join(" "));

    let _ = writeln!(out, "\nend to end (tracing off):");
    let _ = writeln!(
        out,
        "  {:<14} {:>16} {:<6} detail",
        "metric", "value", "unit"
    );
    for m in &outcome.e2e {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or("", |(_, u)| u);
        let _ = writeln!(
            out,
            "  {:<14} {:>16} {:<6} {}",
            m.name,
            fmt_value(m.value),
            unit,
            m.detail
        );
    }
    let frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  {:<14} {:>16} {:<6} {} of {} operations failed or were refused",
        "failed_frac",
        fmt_value(frac),
        "",
        outcome.failed,
        outcome.attempted
    );
    for c in &outcome.checks {
        let _ = writeln!(out, "check: {c}");
    }
    for f in &outcome.failures {
        let _ = writeln!(out, "FAILED: {f}");
    }
    if args.trace {
        let _ = writeln!(
            out,
            "\ntracing overhead (traced pass against the untraced one):"
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>16} {:>16} {:>9}",
            "metric", "untraced", "traced", "change"
        );
        for (plain, traced) in outcome.e2e.iter().zip(&outcome.e2e_traced) {
            let change =
                100.0 * (traced.value - plain.value) / plain.value.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "  {:<14} {:>16} {:>16} {:>8.1}%",
                plain.name,
                fmt_value(plain.value),
                fmt_value(traced.value),
                change
            );
        }
        let _ = writeln!(out, "\n{}", outcome.report.trim_end());
        let _ = writeln!(out, "\nper layer:");
        for (name, unit) in PER_LAYER {
            let value = outcome.layer(name);
            let _ = writeln!(out, "  {name:<36} {:>16} {unit}", fmt_value(value));
        }
    }
    out
}

/// The final JSON line. Every metric of the selected list appears; a
/// per-layer metric the workload did not produce reads 0.
fn result_json(args: &Args, outcome: &Outcome) -> String {
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(outcome.layer(name))
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|(name, unit)| {
                let m = outcome.e2e.iter().find(|m| m.name == *name)?;
                Some(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(m.value)
                ))
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Where a run keeps its files: `.perfbench/` under the working
/// directory (the checkout root).
fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Writes the traced run's spans and its full report under `dir`.
fn write_traces(dir: &Path, report: &str, spans_jsonl: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (file, text) in [("spans.jsonl", spans_jsonl), ("report.txt", report)] {
        std::fs::write(dir.join(file), text)
            .map_err(|e| format!("cannot write {}: {e}", dir.join(file).display()))?;
    }
    Ok(())
}

fn run(args: &Args, scratch: &Path) -> Outcome {
    match args.workload {
        "shadow-replay" => sim::run(sim::Kind::Shadow, args, scratch),
        "crowd-trace-mt" => sim::run(sim::Kind::Crowd, args, scratch),
        _ => serve::run(args, scratch),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-daemon") {
        serve::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = work_dir().join("scratch").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    eprintln!("perfbench: {} seed {} ...", args.workload, args.seed);
    let mut outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let trace_dir = args.trace.then(|| {
        work_dir()
            .join("traces")
            .join(format!("{}-seed{}", args.workload, args.seed))
    });
    if let Some(dir) = &trace_dir {
        outcome
            .checks
            .push(format!("spans and report written to {}", dir.display()));
    }
    if args.pin {
        let path = digest::pin_path(args.workload, args.seed);
        if digest::pinned(args.workload, args.seed).is_none() {
            outcome
                .failures
                .push(format!("--pin: seed {} is not a pinned seed", args.seed));
        } else if let Err(e) = std::fs::write(&path, outcome.digest.render()) {
            outcome
                .failures
                .push(format!("--pin: cannot write {}: {e}", path.display()));
        } else {
            outcome
                .checks
                .push(format!("pinned the digest to {}", path.display()));
        }
    }
    let report = render(&args, &outcome);
    print!("{report}");
    if let Some(dir) = &trace_dir {
        if let Err(e) = write_traces(dir, &report, &outcome.spans_jsonl) {
            println!("FAILED: {e}");
            outcome.failures.push(e);
        }
    }
    println!("{}", result_json(&args, &outcome));
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here must be the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_the_benchmark_declaration() {
        use gwc_telemetry::validate::{parse_json, Json};
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let Ok(Json::Obj(doc)) = parse_json(&text) else {
            panic!("BENCHMARK.json is not an object")
        };
        let entries = |key: &str, field: &str| -> Vec<String> {
            let Some(Json::Arr(list)) = doc.get(key) else {
                panic!("{key} is not a list")
            };
            list.iter()
                .map(|m| match m {
                    Json::Obj(m) => match m.get(field) {
                        Some(Json::Str(s)) => s.clone(),
                        other => panic!("{key}.{field}: {other:?}"),
                    },
                    other => panic!("{key}: {other:?}"),
                })
                .collect()
        };
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = list.iter().map(|(_, u)| *u).collect();
            assert_eq!(entries(key, "name"), names, "{key} names");
            assert_eq!(entries(key, "unit"), units, "{key} units");
        }
        assert_eq!(entries("workloads", "name"), WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-study --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve-study", 7, 3, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload serve-study --trace 2",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
