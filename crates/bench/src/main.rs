//! `repro` — regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run -p gwc-bench --release --bin repro -- all
//! cargo run -p gwc-bench --release --bin repro -- table9 fig5 --quick
//! cargo run -p gwc-bench --release --bin repro -- all --paper   # 1024x768, slow
//! cargo run -p gwc-bench --release --bin repro -- ablations
//! cargo run -p gwc-bench --release --bin repro -- campaign --dir night1
//! cargo run -p gwc-bench --release --bin repro -- campaign --dir night1 --resume
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod torture;

use gwc_api::CommandSink;
use gwc_core::{figures, tables, RunConfig, Study};
use gwc_harness::{
    run_campaign, CampaignOptions, ChaosRunner, JobReport, JobRunner, Outcome, Rung, Supervisor,
    SupervisorConfig, REPORT_FILE,
};
use gwc_pipeline::{Gpu, GpuConfig};
use gwc_stats::Table;

const USAGE: &str = "usage: repro [EXPERIMENT...] [OPTIONS]

experiments:
  all                  every table and figure (default)
  table1 .. table17    one table
  fig1 .. fig8         one figure family (fig4 is a diagram in the paper)
  ablations            design-choice studies (HZ, compression, vertex
                       cache size, filtering level)
  replay               replay one timedemo through the simulator (see
                       --game, --checkpoint-every, --resume FILE)
  parallel             time the pipeline serial vs --threads workers in
                       two parallel modes (fragment stripes, then chunked
                       geometry as well), verify every run bit-identical,
                       and record work-tick throughput in
                       BENCH_parallel.json (see --check for the
                       regression gate)
  campaign             the full supervised campaign: characterize all
                       twelve games, checkpointed replays of the simulated
                       demos, and the ablation sweep — with panic
                       isolation, watchdog deadlines, bounded retry, and a
                       degradation ladder; progress persists to
                       <dir>/campaign.json for --resume
  sweep                expand a procedural-scenario grid (--grid) and run
                       every cell as a supervised campaign job: each cell
                       is a seeded synthetic workload that emits an
                       AIWC-style feature vector and asserts its declared
                       characteristics post-run; the summary ranks cells
                       by feature-space distance from the twelve paper
                       games and writes sweep-features.csv into --dir
                       (supervision flags --dir / --resume / --stop-after
                       apply exactly as for 'campaign')
  trace                run one timedemo with the telemetry collector and
                       export a Perfetto/Chrome JSON trace, a per-frame
                       CSV time-series, and a GWTB binary — validated
                       before the run counts as a success (see --game,
                       --level, --out)
  serve                run the characterization daemon: jobs arrive over
                       HTTP, every state transition is journaled to a
                       CRC-guarded write-ahead log in --data-dir before it
                       takes effect (kill -9 recovers on restart), results
                       are cached by content hash, overload is shed with
                       429 + Retry-After, and SIGTERM or a loopback-only
                       POST /shutdown
                       drains gracefully to exit 0
  submit               submit one job to a running daemon and print the
                       response (see --addr, --game, --kind, --wait)
  status               query a running daemon: overall /stats, or one job
                       by --hash
  analyze              cross-run trace analytics: scan --dir for GWTB
                       traces (campaign dirs, sweep dirs, daemon data
                       dirs), join campaign.json metadata, and emit a
                       deterministic CSV report plus a self-contained
                       HTML dashboard into --out — per-stage/per-stripe
                       utilization on the work-tick clock, bottleneck
                       attribution, cache-sensitivity spreads across
                       configs, replica-divergence checks, and
                       feature-space rankings (see --format); a running
                       daemon serves the same report at GET /analyze and
                       GET /dashboard
  torture              crash-test every durability boundary: for each
                       registered failpoint site, run a child daemon /
                       campaign / replay with that site armed (fail, torn
                       write, or abort exactly there), restart, and assert
                       the recovery invariants — no acked job lost, no
                       double-run, artifacts bit-identical or explicitly
                       demoted, manifest always parseable, lock never
                       wedged; report written to <dir>/torture-report.txt

options:
  --threads N          fragment-pipeline worker threads (default: the
                       GWC_THREADS environment variable, else 1 for
                       replay / all host cores for parallel)
  --check FILE         parallel: after benching, compare the fresh
                       ticks_per_second against the committed baseline
                       FILE (BENCH_parallel.json, whose \"bench\" field
                       must be \"parallel\"); exit 1 on a >10%
                       regression, exit 2 if FILE is missing or
                       malformed; repeatable
  --paper              full setting: 2000 API frames, 8 simulated frames
                       at 1024x768 (minutes of runtime); campaigns start
                       at the top of the degradation ladder
  --quick              small setting for smoke tests
  --api-frames N       API-level frames (default 300)
  --sim-frames N       simulated frames (default 4)
  --res WxH            simulated resolution (default 640x480)
  --seed N             workload generation seed (default 24301); a sweep
                       runs replica k of a cell at seed N+k
  --csv                emit CSV instead of aligned tables/charts
  --trace              also export per-job telemetry artifacts: 'all' and
                       table/figure runs write them to --out, campaigns
                       into their --dir (registered in campaign.json)

replay / trace options:
  --game NAME          Table I timedemo to run (default Doom3/trdemo2);
                       an unambiguous case-insensitive fragment works too
                       (doom3, quake4, primeval); 'trace' also accepts a
                       procedural scenario scn:<archetype>+<style>+<api>
                       (e.g. scn:corridor+prepass+sorted)
  --level LEVEL        telemetry detail for 'trace': off, counters, or
                       spans (default spans)
  --out DIR            directory for 'trace' artifacts (default traces)
  --checkpoint-every N write a GWCK checkpoint every N frames to
                       repro-<game>-frame<K>.gwck
  --resume FILE        restore GPU state from a GWCK checkpoint and replay
                       only the remaining frames; statistics are
                       bit-identical to an uninterrupted run

campaign / supervision options:
  --dir PATH           campaign directory (default: campaign)
  --resume             (no FILE) resume an interrupted campaign from its
                       manifest, re-running only unfinished jobs
  --fail-fast          stop admitting jobs after the first failed one
  --keep-going         admit every job regardless of failures (default)
  --max-retries N      extra attempts per ladder rung (default 2)
  --deadline-ms N      wall-clock deadline per attempt (default 300000)
  --work-budget N      pipeline work-tick budget per attempt (default none)
  --breaker N          consecutive failures on one game before its circuit
                       breaker opens and later jobs for that game are
                       skipped (default 3; 0 disables)
  --backoff-ms N       base retry backoff, doubling with seeded full
                       jitter (default 100)
  --chaos SEED         deterministically inject panics, hangs, and typed
                       failures into jobs (exercises the supervisor)
  --stop-after N       stop — as if killed — after executing N jobs
                       (exercises --resume)

sweep options:
  --grid SPEC          the scenario grid: 'key=value[,value...]' clauses
                       joined by ';', keys archetype (corridor, terrain,
                       storm, foliage, crowd), style (prepass, stencil,
                       manypass, post), api (sorted, tiny, mega, thrash),
                       seeds (replicas per cell); 'all' selects every
                       value of an axis, omitted axes default to a single
                       value (e.g. --grid 'archetype=all; style=prepass,
                       post; api=sorted; seeds=2')
  --dry-run            print the expanded grid and job list, run nothing
  --no-refs            skip the twelve reference-game jobs (faster, but
                       the summary then has no distance ranking)

serve / submit / status options:
  --addr HOST:PORT     daemon address: bind address for 'serve' (default
                       127.0.0.1:7341; port 0 picks a free one, written to
                       <data-dir>/addr); connect address for 'submit' and
                       'status' (default: read <data-dir>/addr, falling
                       back to 127.0.0.1:7341)
  --data-dir PATH      daemon data directory — journal, lock, artifacts
                       (default serve-data)
  --workers N          daemon worker threads; 0 journals submissions but
                       executes nothing (default 2)
  --queue-cap N        bounded admission queue depth; submissions past it
                       are shed with 429 + Retry-After (default 16);
                       --breaker doubles as the daemon's global circuit-
                       breaker threshold
  --kind KIND          experiment to submit: characterize, replay, or
                       ablations (default characterize)
  --wait               submit: poll until the job finishes, print its
                       terminal entry, and exit by its outcome
  --hash HEX           status: show one job by its 16-hex content hash
  --drain-timeout-ms N serve: graceful-drain deadline; when it expires
                       with a job still running the daemon forces exit 3
                       (a second SIGTERM/SIGINT forces it immediately;
                       default 600000)
  --wal-rotate-bytes N serve: journal size that triggers compacting
                       rotation (default 262144)

analyze options:
  --dir PATH           directory tree to scan for *.trace.bin (default:
                       campaign — point it at a campaign --dir, a sweep
                       --dir, or a daemon --data-dir)
  --out DIR            where report.csv / dashboard.html land (default
                       traces)
  --format FMT         which artifact to write: csv, html, or both
                       (default both)

torture options (fault injection):
  --all                torture: crash-test every registered site (default
                       when no --site is given)
  --site NAME          torture: test one site; repeatable
  --list               torture: list the registered failpoint sites
  --matrix             torture: print the durability matrix (site x
                       guarantee x recovery) as markdown and exit
  GWC_FAILPOINTS       arm failpoints in *this* process directly:
                       \"site=action[@N][%P];...\" with actions eio,
                       enospc, short, torn, abort, hang (the torture
                       runner sets this for its children); seeded by
                       GWC_FAILPOINTS_SEED
  --help, -h           print this usage and exit 0

exit status: 0 all experiments succeeded (for 'serve': a clean drain);
1 at least one supervised job ended timed-out, panicked, or skipped (or a
campaign was interrupted, or the daemon fail-stopped on a journal error,
or a torture scenario failed its recovery invariant);
2 malformed invocation or unusable input file;
3 (serve) a forced drain abandoned a hung job after the drain deadline or
a second SIGTERM";

fn help() -> ! {
    println!("{USAGE}");
    std::process::exit(0);
}

/// Reports a malformed invocation on stderr — naming the offending flag
/// and value — and exits non-zero.
fn bad_arg(message: String) -> ! {
    eprintln!("repro: {message}");
    eprintln!("run 'repro --help' for usage");
    std::process::exit(2);
}

struct Options {
    experiments: Vec<String>,
    config: RunConfig,
    rung: Rung,
    csv: bool,
    game: String,
    trace: bool,
    level: gwc_telemetry::Level,
    out: String,
    checkpoint_every: Option<u32>,
    resume_file: Option<String>,
    threads: u32,
    check: Vec<String>,
    dir: String,
    campaign_resume: bool,
    fail_fast: bool,
    max_retries: u32,
    deadline_ms: u64,
    work_budget: Option<u64>,
    breaker: u32,
    backoff_ms: u64,
    chaos: Option<u64>,
    stop_after: Option<usize>,
    addr: Option<String>,
    data_dir: String,
    workers: usize,
    queue_cap: usize,
    kind: gwc_harness::Experiment,
    wait: bool,
    hash: Option<String>,
    drain_timeout_ms: u64,
    wal_rotate_bytes: u64,
    torture_sites: Vec<String>,
    torture_all: bool,
    torture_list: bool,
    torture_matrix: bool,
    grid: Option<String>,
    dry_run: bool,
    no_refs: bool,
    format: String,
}

impl Options {
    /// The active configuration: the degradation-ladder rung selected by
    /// `--paper`/`--quick` applied to the parsed base config.
    fn run_config(&self) -> RunConfig {
        self.rung.apply(&self.config)
    }
}

/// The experiment vocabulary, for unknown-experiment diagnostics.
const KNOWN_EXPERIMENTS: &str =
    "known experiments: all, table1..table17, fig1..fig8, ablations, replay, parallel, campaign, sweep, trace, analyze, serve, submit, status, torture";

fn is_experiment_name(s: &str) -> bool {
    matches!(
        s,
        "all" | "ablations" | "replay" | "parallel" | "campaign" | "sweep" | "trace" | "analyze"
            | "serve" | "submit" | "status" | "torture"
    ) || s.starts_with("table")
        || s.starts_with("fig")
}

fn parse_args() -> Options {
    let mut experiments = Vec::new();
    let mut config =
        RunConfig { api_frames: 300, sim_frames: 4, width: 640, height: 480, seed: 0x5EED };
    let mut rung = Rung::Default;
    let mut csv = false;
    let mut game = "Doom3/trdemo2".to_string();
    let mut trace = false;
    let mut level = gwc_telemetry::Level::Spans;
    let mut out = "traces".to_string();
    let mut checkpoint_every = None;
    let mut resume_file = None;
    let mut threads = 0u32;
    let mut check = Vec::new();
    let mut dir = "campaign".to_string();
    let mut campaign_resume = false;
    let mut fail_fast = false;
    let mut max_retries = 2u32;
    let mut deadline_ms = 300_000u64;
    let mut work_budget = None;
    let mut breaker = 3u32;
    let mut backoff_ms = 100u64;
    let mut chaos = None;
    let mut stop_after = None;
    let mut addr = None;
    let mut data_dir = "serve-data".to_string();
    let mut workers = 2usize;
    let mut queue_cap = 16usize;
    let mut kind = gwc_harness::Experiment::Characterize;
    let mut wait = false;
    let mut hash = None;
    let mut drain_timeout_ms = 600_000u64;
    let mut wal_rotate_bytes = 256 * 1024u64;
    let mut torture_sites = Vec::new();
    let mut torture_all = false;
    let mut torture_list = false;
    let mut torture_matrix = false;
    let mut grid = None;
    let mut dry_run = false;
    let mut no_refs = false;
    let mut format = "both".to_string();
    let mut args = std::env::args().skip(1).peekable();

    // A flag's value: present, or a named complaint.
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next().unwrap_or_else(|| bad_arg(format!("option '{flag}' requires a value")))
    }
    fn parse<T: std::str::FromStr>(flag: &str, v: String, expected: &str) -> T {
        v.parse().unwrap_or_else(|_| {
            bad_arg(format!("invalid value '{v}' for '{flag}' (expected {expected})"))
        })
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => rung = Rung::Paper,
            "--quick" => rung = Rung::Quick,
            "--csv" => csv = true,
            "--api-frames" => {
                config.api_frames = parse(&arg, value(&mut args, &arg), "a frame count")
            }
            "--sim-frames" => {
                config.sim_frames = parse(&arg, value(&mut args, &arg), "a frame count")
            }
            "--res" => {
                let v = value(&mut args, &arg);
                let Some((w, h)) = v.split_once('x') else {
                    bad_arg(format!("invalid value '{v}' for '--res' (expected WxH, e.g. 640x480)"))
                };
                config.width = parse(&arg, w.to_string(), "WxH, e.g. 640x480");
                config.height = parse(&arg, h.to_string(), "WxH, e.g. 640x480");
            }
            "--game" => game = value(&mut args, &arg),
            "--trace" => trace = true,
            "--level" => {
                let v = value(&mut args, &arg);
                level = gwc_telemetry::Level::parse(&v).unwrap_or_else(|| {
                    bad_arg(format!(
                        "invalid value '{v}' for '--level' (expected off, counters, or spans)"
                    ))
                });
            }
            "--out" => out = value(&mut args, &arg),
            "--checkpoint-every" => {
                let n: u32 = parse(&arg, value(&mut args, &arg), "a positive frame interval");
                if n == 0 {
                    bad_arg("invalid value '0' for '--checkpoint-every' (expected a positive frame interval)".into());
                }
                checkpoint_every = Some(n);
            }
            "--resume" => {
                // `--resume FILE` resumes a replay from a checkpoint;
                // bare `--resume` resumes a campaign from its manifest.
                match args.peek() {
                    Some(v) if !v.starts_with('-') && !is_experiment_name(v) => {
                        resume_file = Some(value(&mut args, &arg));
                    }
                    _ => campaign_resume = true,
                }
            }
            "--threads" => {
                threads = parse(&arg, value(&mut args, &arg), "a worker thread count")
            }
            "--check" => check.push(value(&mut args, &arg)),
            "--dir" => dir = value(&mut args, &arg),
            "--fail-fast" => fail_fast = true,
            "--keep-going" => fail_fast = false,
            "--max-retries" => {
                max_retries = parse(&arg, value(&mut args, &arg), "a retry count")
            }
            "--deadline-ms" => {
                let n: u64 = parse(&arg, value(&mut args, &arg), "a positive millisecond count");
                if n == 0 {
                    bad_arg("invalid value '0' for '--deadline-ms' (expected a positive millisecond count)".into());
                }
                deadline_ms = n;
            }
            "--work-budget" => {
                work_budget = Some(parse(&arg, value(&mut args, &arg), "a tick count"))
            }
            "--breaker" => {
                breaker = parse(&arg, value(&mut args, &arg), "a failure count")
            }
            "--backoff-ms" => {
                backoff_ms = parse(&arg, value(&mut args, &arg), "a millisecond count")
            }
            "--chaos" => chaos = Some(parse(&arg, value(&mut args, &arg), "a seed")),
            "--stop-after" => {
                stop_after = Some(parse(&arg, value(&mut args, &arg), "a job count"))
            }
            "--addr" => addr = Some(value(&mut args, &arg)),
            "--data-dir" => data_dir = value(&mut args, &arg),
            "--workers" => workers = parse(&arg, value(&mut args, &arg), "a worker count"),
            "--queue-cap" => {
                queue_cap = parse(&arg, value(&mut args, &arg), "a queue depth");
                if queue_cap == 0 {
                    bad_arg("invalid value '0' for '--queue-cap' (expected a positive queue depth)".into());
                }
            }
            "--kind" => {
                let v = value(&mut args, &arg);
                kind = gwc_harness::Experiment::from_name(&v).unwrap_or_else(|| {
                    bad_arg(format!(
                        "invalid value '{v}' for '--kind' (expected characterize, replay, or ablations)"
                    ))
                });
            }
            "--wait" => wait = true,
            "--hash" => hash = Some(value(&mut args, &arg)),
            "--drain-timeout-ms" => {
                let n: u64 = parse(&arg, value(&mut args, &arg), "a positive millisecond count");
                if n == 0 {
                    bad_arg("invalid value '0' for '--drain-timeout-ms' (expected a positive millisecond count)".into());
                }
                drain_timeout_ms = n;
            }
            "--wal-rotate-bytes" => {
                wal_rotate_bytes = parse(&arg, value(&mut args, &arg), "a byte count")
            }
            "--site" => {
                let v = value(&mut args, &arg);
                if gwc_failpoints::site(&v).is_none() {
                    bad_arg(format!(
                        "invalid value '{v}' for '--site' (run 'repro torture --list' for the registered sites)"
                    ));
                }
                torture_sites.push(v);
            }
            "--format" => {
                let v = value(&mut args, &arg);
                if !matches!(v.as_str(), "csv" | "html" | "both") {
                    bad_arg(format!(
                        "invalid value '{v}' for '--format' (expected csv, html, or both)"
                    ));
                }
                format = v;
            }
            "--grid" => grid = Some(value(&mut args, &arg)),
            "--dry-run" => dry_run = true,
            "--seed" => config.seed = parse(&arg, value(&mut args, &arg), "a seed"),
            "--no-refs" => no_refs = true,
            "--all" => torture_all = true,
            "--list" => torture_list = true,
            "--matrix" => torture_matrix = true,
            "--help" | "-h" => help(),
            e if e.starts_with('-') => bad_arg(format!("unknown option '{e}'")),
            e if is_experiment_name(e) => experiments.push(e.to_string()),
            e => bad_arg(format!("unknown experiment '{e}'\n{KNOWN_EXPERIMENTS}")),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    // Resolve --game once, up front: exact Table I names pass through,
    // unambiguous fragments expand, scn: scenario names canonicalize,
    // anything else is a usage error listing games and the grammar.
    let game = match gwc_bench::resolve_workload(&game) {
        Ok(name) => name,
        Err(message) => bad_arg(format!("{message}\n(from '--game')")),
    };
    // Scenario workloads only make sense where the scenario generator is
    // wired in; the remaining --game consumers drive the Table I replay
    // machinery and would reject the name far less legibly.
    if game.starts_with(gwc_scenarios::SCENARIO_PREFIX) {
        for e in &experiments {
            if matches!(e.as_str(), "replay" | "parallel" | "submit") {
                bad_arg(format!(
                    "experiment '{e}' does not accept scenario workloads ('--game {game}'); \
                     scenarios run under 'trace' and 'sweep'"
                ));
            }
        }
    }
    Options {
        experiments,
        config,
        rung,
        csv,
        game,
        trace,
        level,
        out,
        checkpoint_every,
        resume_file,
        threads,
        check,
        dir,
        campaign_resume,
        fail_fast,
        max_retries,
        deadline_ms,
        work_budget,
        breaker,
        backoff_ms,
        chaos,
        stop_after,
        addr,
        data_dir,
        workers,
        queue_cap,
        kind,
        wait,
        hash,
        drain_timeout_ms,
        wal_rotate_bytes,
        torture_sites,
        torture_all,
        torture_list,
        torture_matrix,
        grid,
        dry_run,
        no_refs,
        format,
    }
}

fn supervisor_config(options: &Options) -> SupervisorConfig {
    SupervisorConfig {
        seed: options.chaos.unwrap_or(0x5EED),
        max_retries: options.max_retries,
        deadline: Duration::from_millis(options.deadline_ms),
        grace: Duration::from_millis((options.deadline_ms / 4).clamp(50, 2_000)),
        work_budget: options.work_budget,
        backoff_base_ms: options.backoff_ms,
        backoff_cap_ms: options.backoff_ms.saturating_mul(50),
        breaker_threshold: options.breaker,
        fail_fast: options.fail_fast,
    }
}

/// Builds the supervisor over the real runner, wrapping it in chaos
/// injection when `--chaos` asks for it. Returns the concrete runner too
/// so callers can drain collected characterizations.
fn build_supervisor(options: &Options) -> (Supervisor, Arc<gwc_bench::ReproRunner>) {
    let runner = Arc::new(gwc_bench::ReproRunner::new());
    let dyn_runner: Arc<dyn JobRunner> = match options.chaos {
        Some(seed) => Arc::new(ChaosRunner::new(Arc::clone(&runner) as Arc<dyn JobRunner>, seed)),
        None => Arc::clone(&runner) as Arc<dyn JobRunner>,
    };
    (Supervisor::new(supervisor_config(options), dyn_runner), runner)
}

/// Prints the per-job outcome summary (stderr, to keep table output
/// clean) and returns whether every job produced a usable result.
fn report_outcomes(reports: &[JobReport]) -> bool {
    if reports.iter().any(|r| r.outcome != Outcome::Ok) {
        for r in reports {
            eprintln!("{}", r.summary_line());
        }
    }
    let failed = reports.iter().filter(|r| !r.outcome.is_success()).count();
    if failed > 0 {
        eprintln!("repro: {failed} of {} supervised jobs produced no result", reports.len());
    }
    failed == 0
}

/// The supervised form of `run_study`: every game runs as an isolated
/// job; panics, hangs, and failures cost that game's rows, not the run.
fn build_study(options: &Options) -> (Study, bool) {
    let config = options.run_config();
    eprintln!(
        "running study: {} API frames, {} simulated frames at {}x{}...",
        config.api_frames, config.sim_frames, config.width, config.height
    );
    let (supervisor, runner) = build_supervisor(options);
    let trace_dir = options.trace.then(|| PathBuf::from(&options.out));
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot create trace directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let jobs = gwc_bench::study_jobs(options.config, options.rung, trace_dir.as_deref());
    let reports = supervisor.run_jobs(&jobs);
    let ok = report_outcomes(&reports);
    (runner.into_study(config), ok)
}

fn print_table(t: &Table, csv: bool) {
    if csv {
        println!("# {}", t.title());
        print!("{}", t.to_csv());
    } else {
        println!("{}", t.to_ascii());
    }
}

fn print_figures(figs: &[figures::Figure], csv: bool) {
    for f in figs {
        if csv {
            println!("# {}", f.title);
            print!("{}", f.to_csv());
        } else {
            println!("{}", f.chart);
        }
    }
}

fn run_experiment(study: &Study, name: &str, csv: bool) -> bool {
    let table_fns: [fn(&Study) -> Table; 17] = [
        tables::table1,
        tables::table2,
        tables::table3,
        tables::table4,
        tables::table5,
        tables::table6,
        tables::table7,
        tables::table8,
        tables::table9,
        tables::table10,
        tables::table11,
        tables::table12,
        tables::table13,
        tables::table14,
        tables::table15,
        tables::table16,
        tables::table17,
    ];
    if let Some(n) = name.strip_prefix("table") {
        if let Ok(i) = n.parse::<usize>() {
            if (1..=17).contains(&i) {
                print_table(&table_fns[i - 1](study), csv);
                return true;
            }
        }
        return false;
    }
    match name {
        "all" => {
            for f in table_fns {
                print_table(&f(study), csv);
            }
            print_figures(&figures::all_figures(study), csv);
            true
        }
        "fig1" => {
            print_figures(&figures::fig1(study), csv);
            true
        }
        "fig2" => {
            print_figures(&figures::fig2(study), csv);
            true
        }
        "fig3" => {
            print_figures(&figures::fig3(study), csv);
            true
        }
        "fig4" => {
            println!("(Figure 4 is an illustration of triangle primitives; nothing to measure)");
            true
        }
        "fig5" => {
            print_figures(&figures::fig5(study), csv);
            true
        }
        "fig6" => {
            print_figures(&figures::fig6(study), csv);
            true
        }
        "fig7" => {
            print_figures(&figures::fig7(study), csv);
            true
        }
        "fig8" => {
            print_figures(&figures::fig8(study), csv);
            true
        }
        _ => false,
    }
}

/// Design-choice ablations the paper's discussion motivates.
fn run_ablations(options: &Options) {
    let report = gwc_bench::ablations_report(&options.run_config(), None)
        .expect("uncancellable ablation sweep cannot be cancelled");
    print!("{report}");
}

/// One timed configuration of the parallel bench, checked bit-identical
/// against the serial reference.
struct BenchPass {
    label: String,
    seconds: f64,
    identical: bool,
}

/// The `ticks_per_second` of a `BENCH_parallel.json` baseline, or `None`
/// if `text` is not one.
fn baseline_ticks_per_second(text: &str) -> Option<u64> {
    use gwc_telemetry::validate::{parse_json, Json};
    let Ok(Json::Obj(map)) = parse_json(text) else {
        return None;
    };
    match (map.get("bench"), map.get("ticks_per_second")) {
        (Some(Json::Str(bench)), Some(&Json::Num(n)))
            if bench == "parallel" && n >= 0.0 && n.fract() == 0.0 =>
        {
            Some(n as u64)
        }
        _ => None,
    }
}

/// Reads the `--check` baseline files *before* the bench overwrites them
/// with fresh numbers. A missing or unreadable baseline is a hard failure
/// (exit 2) — that is the gate CI relies on, and a silently absent file
/// is how the last baseline vanished.
fn read_baselines(checks: &[String]) -> Vec<(String, String)> {
    checks
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("repro: --check {path}: cannot read baseline: {e}");
                eprintln!("(regenerate with 'repro parallel' and commit the file)");
                std::process::exit(2);
            });
            (path.clone(), text)
        })
        .collect()
}

/// The perf gate: compares each pre-read baseline's work-tick throughput
/// against the fresh measurement. A >10% regression exits 1.
fn check_baselines(baselines: &[(String, String)], current: u64) {
    let mut regressed = false;
    for (path, text) in baselines {
        let Some(baseline) = baseline_ticks_per_second(text) else {
            eprintln!(
                "repro: --check {path}: not a JSON object with \"bench\": \"parallel\" and an integer \"ticks_per_second\""
            );
            std::process::exit(2);
        };
        // Fresh throughput must reach 90% of the committed baseline.
        let floor = baseline - baseline / 10;
        let verdict = if current < floor { "REGRESSED" } else { "ok" };
        eprintln!(
            "perf gate [parallel]: {current} ticks/s vs baseline {baseline} (floor {floor}): {verdict}"
        );
        if current < floor {
            regressed = true;
        }
    }
    if regressed {
        eprintln!("repro: work-tick throughput regressed more than 10% against the committed baseline");
        std::process::exit(1);
    }
}

/// Times the replay serial vs `--threads` workers across the parallel
/// modes — fragment stripes, then chunked geometry as well — checks every
/// run bit-identical to serial, and records the honest numbers (including
/// the host's core count — a speedup claim from a 1-core container is
/// meaningless) in `BENCH_parallel.json`, keyed to the deterministic
/// work-tick clock.
fn run_parallel_bench(options: &Options) {
    let config = options.run_config();
    let frames = config.sim_frames.max(2);
    let (w, h) = (config.width, config.height);
    let host_cores =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    // --threads wins; then GWC_THREADS (as everywhere else); then every
    // host core, since this experiment exists to measure scaling.
    let threads = if options.threads > 0 {
        options.threads
    } else {
        std::env::var("GWC_THREADS")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(host_cores as u32)
    };
    // Read baselines up front: fail fast on a missing file, and never
    // compare a fresh result against the bytes it just wrote itself.
    let baselines = read_baselines(&options.check);

    let timed = |label: &str, geom: u32, frag: u32| {
        eprintln!("parallel bench: {} ({frames} frames at {w}x{h}), {label} pass...", options.game);
        let start = std::time::Instant::now();
        let gpu_config =
            GpuConfig { threads: frag, geometry_threads: geom, ..GpuConfig::r520(w, h) };
        let gpu = gwc_bench::simulate_workload(
            &options.game,
            frames,
            config.seed,
            gpu_config,
            None,
            gwc_telemetry::Level::Off,
            None,
        )
        .unwrap_or_else(|e| bad_arg(e))
        .expect("an uncancellable run cannot be cancelled");
        (start.elapsed().as_secs_f64(), gpu)
    };
    let (serial_secs, serial) = timed("serial", 1, 1);
    let work_ticks = serial.work_tick();
    let reference = serial.save_checkpoint();

    let pass = |label: String, geom: u32, frag: u32| {
        let (seconds, gpu) = timed(&label, geom, frag);
        let identical = serial.stats() == gpu.stats()
            && serial.framebuffer_crc() == gpu.framebuffer_crc()
            && reference == gpu.save_checkpoint();
        BenchPass { label, seconds, identical }
    };
    let fragment = pass(format!("{threads}-thread fragment"), 1, threads);
    let geometry = pass(format!("{threads}-thread geometry+fragment"), threads, threads);

    let mut t = Table::new(
        format!("Parallel pipeline: {} ({frames} frames at {w}x{h}, {work_ticks} work ticks)", options.game),
        &["configuration", "seconds", "speedup", "ticks/s", "bit-identical"],
    );
    t.numeric();
    let tps = |seconds: f64| (work_ticks as f64 / seconds) as u64;
    t.row(vec![
        "serial".into(),
        format!("{serial_secs:.3}"),
        "1.00".into(),
        tps(serial_secs).to_string(),
        "-".into(),
    ]);
    for p in [&fragment, &geometry] {
        t.row(vec![
            p.label.clone(),
            format!("{:.3}", p.seconds),
            format!("{:.2}", serial_secs / p.seconds),
            tps(p.seconds).to_string(),
            if p.identical { "yes".into() } else { "NO".into() },
        ]);
    }
    println!("{}", t.to_ascii());
    if host_cores == 1 {
        println!("(host exposes a single core: the speedup column measures scheduling overhead, not scaling)");
    }

    // BENCH_parallel.json carries the fully-parallel mode and gates on
    // work ticks per wall second — the numerator is deterministic, so only
    // the host's wall clock varies.
    let file = "BENCH_parallel.json";
    let json = format!(
        "{{\n  \"bench\": \"parallel\",\n  \"game\": \"{}\",\n  \"frames\": {frames},\n  \"width\": {w},\n  \"height\": {h},\n  \"host_cores\": {host_cores},\n  \"threads\": {threads},\n  \"work_ticks\": {work_ticks},\n  \"serial_seconds\": {serial_secs:.3},\n  \"parallel_seconds\": {:.3},\n  \"speedup\": {:.3},\n  \"ticks_per_second\": {},\n  \"bit_identical\": {}\n}}\n",
        options.game,
        geometry.seconds,
        serial_secs / geometry.seconds,
        tps(geometry.seconds),
        geometry.identical
    );
    match std::fs::write(file, &json) {
        Ok(()) => eprintln!("wrote {file}"),
        Err(e) => {
            eprintln!("repro: cannot write {file}: {e}");
            std::process::exit(1);
        }
    }
    if !(fragment.identical && geometry.identical) {
        eprintln!("repro: a parallel run diverged from serial — determinism bug");
        std::process::exit(1);
    }
    check_baselines(&baselines, tps(geometry.seconds));
}

/// A hardened replay of one timedemo: frame-boundary checkpoints on the
/// way out, optional resume from one on the way in.
fn run_replay(options: &Options) {
    let config = options.run_config();
    let frames = config.sim_frames.max(1);
    let trace = gwc_bench::record_workload(&options.game, frames, config.seed).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(1);
    });
    let mut gpu_config = GpuConfig::r520(config.width, config.height);
    // The worker count is execution policy, not persistent state: a resume
    // under any --threads lands in the checkpoint's stripe partitioning
    // and replays bit-identically.
    gpu_config.threads = options.threads;

    let (mut gpu, start_frame) = match &options.resume_file {
        Some(path) => {
            // An unreadable or corrupt checkpoint is an unusable input,
            // not a simulator failure: exit 2, naming the file and (for
            // corruption) the section that failed its check.
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("repro: cannot read checkpoint {path}: {e}");
                std::process::exit(2);
            });
            let gpu = Gpu::restore_checkpoint(gpu_config, &bytes).unwrap_or_else(|e| {
                eprintln!("repro: cannot restore checkpoint {path}: {e}");
                std::process::exit(2);
            });
            let done = gpu.stats().frames().len();
            eprintln!("resumed from {path} at frame boundary {done}");
            (gpu, done)
        }
        None => (Gpu::new(gpu_config), 0),
    };

    let file_stem = options.game.replace(['/', ' '], "_");
    let mut skipped = 0usize;
    let mut frame = start_frame;
    for c in trace.commands() {
        // Skip everything the checkpoint already accounts for, then feed
        // the remainder through the infallible replay path.
        if skipped < start_frame {
            if matches!(c, gwc_api::Command::EndFrame) {
                skipped += 1;
            }
            continue;
        }
        gpu.consume(c);
        if matches!(c, gwc_api::Command::EndFrame) {
            frame += 1;
            if let Some(every) = options.checkpoint_every {
                if frame % every as usize == 0 && frame < frames as usize {
                    let path = format!("repro-{file_stem}-frame{frame}.gwck");
                    let blob = gpu.save_checkpoint();
                    match gwc_failpoints::write_file("gwck.write", std::path::Path::new(&path), &blob)
                    {
                        Ok(()) => eprintln!("checkpoint: {path} ({} bytes)", blob.len()),
                        Err(e) => {
                            eprintln!("repro: cannot write checkpoint {path}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
            }
        }
    }

    let t = gpu.stats().totals();
    let mut table = Table::new(
        format!("Replay summary: {} ({} frames at {}x{})", options.game, frame, config.width, config.height),
        &["metric", "value"],
    );
    table.row(vec!["frames simulated".into(), gpu.stats().frames().len().to_string()]);
    table.row(vec!["indices".into(), t.indices.to_string()]);
    table.row(vec!["fragments rasterized".into(), t.frags_raster.to_string()]);
    table.row(vec!["dropped batches".into(), t.dropped_batches.to_string()]);
    table.row(vec!["dropped frames".into(), t.dropped_frames.to_string()]);
    table.row(vec!["classified faults".into(), gpu.stats().total_faults().to_string()]);
    table.row(vec![
        "first error".into(),
        gpu.first_error().map_or("none".into(), |e| e.to_string()),
    ]);
    println!("{}", table.to_ascii());
}

/// Runs one timedemo with the telemetry collector attached and exports
/// its three artifacts (Perfetto/Chrome JSON, per-frame CSV, GWTB
/// binary), re-reading and validating the JSON and the binary before
/// declaring success. Returns whether everything validated.
fn run_trace(options: &Options) -> bool {
    let config = options.run_config();
    let frames = config.sim_frames.max(1);
    let (w, h) = (config.width, config.height);
    if options.level == gwc_telemetry::Level::Off {
        eprintln!("trace: --level off collects nothing; nothing to export");
        return true;
    }
    eprintln!(
        "trace: {} ({frames} frames at {w}x{h}, level {})...",
        options.game,
        options.level.name()
    );
    let gpu_config = GpuConfig { threads: options.threads, ..GpuConfig::r520(w, h) };
    let mut gpu = gwc_bench::simulate_workload(
        &options.game,
        frames,
        config.seed,
        gpu_config,
        None,
        options.level,
        None,
    )
    .unwrap_or_else(|e| bad_arg(e))
    .expect("an uncancellable run cannot be cancelled");
    let collector = gpu.take_telemetry().expect("a non-off level always yields a collector");
    if let Err(e) = std::fs::create_dir_all(&options.out) {
        eprintln!("repro: cannot create trace directory {}: {e}", options.out);
        std::process::exit(1);
    }
    let stem = PathBuf::from(&options.out)
        .join(options.game.replace(['/', ' ', ':', '+'], "_"))
        .to_string_lossy()
        .into_owned();
    let artifacts = match gwc_bench::export_trace(&collector, &stem) {
        Ok(artifacts) => artifacts,
        Err(e) => {
            eprintln!("repro: cannot write trace {stem}: {e}");
            std::process::exit(1);
        }
    };

    // Validate what was just written, from disk — a malformed or
    // unreadable artifact is a failed experiment, not a deliverable.
    let chrome_text = match std::fs::read_to_string(&artifacts.chrome) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("repro: cannot re-read {}: {e}", artifacts.chrome);
            return false;
        }
    };
    let chrome = match gwc_telemetry::validate::validate_chrome(&chrome_text) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("repro: {} failed validation: {e}", artifacts.chrome);
            return false;
        }
    };
    let bin_bytes = match std::fs::read(&artifacts.binary) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("repro: cannot re-read {}: {e}", artifacts.binary);
            return false;
        }
    };
    let bin = match gwc_telemetry::reader::read_trace(&bin_bytes) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("repro: {} failed validation: {e}", artifacts.binary);
            return false;
        }
    };

    let mut t = Table::new(
        format!("Trace: {} ({} frames at {w}x{h})", options.game, collector.frames().len()),
        &["artifact", "detail"],
    );
    t.row(vec![
        artifacts.chrome.clone(),
        format!(
            "{} events ({} spans, {} counter samples), {} tracks, final tick {}",
            chrome.events, chrome.begin_events, chrome.counter_events, chrome.tracks, chrome.max_ts
        ),
    ]);
    t.row(vec![artifacts.csv.clone(), format!("{} frame rows", collector.frames().len())]);
    t.row(vec![
        artifacts.binary.clone(),
        format!("{} bytes, {} spans, CRC verified", bin_bytes.len(), bin.spans()),
    ]);
    t.row(vec!["framebuffer crc".into(), format!("{:#010x}", gpu.framebuffer_crc())]);
    println!("{}", t.to_ascii());
    if collector.spans_dropped() > 0 {
        eprintln!(
            "trace: {} spans overwrote older ones (per-stripe ring capacity {})",
            collector.spans_dropped(),
            collector.meta().span_capacity
        );
    }
    true
}

/// `repro analyze`: cross-run trace analytics over `--dir`, rendered to
/// `--out` as a deterministic CSV report and/or a self-contained HTML
/// dashboard. Exits 2 when there is nothing to analyze or a report
/// cannot be persisted (the typed-degrade contract of the
/// `analyze.write` failpoint site). Returns whether every discovered
/// trace decoded and no replica diverged.
fn run_analyze(options: &Options) -> bool {
    let dir = PathBuf::from(&options.dir);
    let index = match gwc_analyze::scan(&dir) {
        Ok(index) => index,
        Err(e) => {
            eprintln!("repro: analyze: cannot scan {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    for s in &index.skipped {
        eprintln!("repro: analyze: skipped {}: {}", s.rel_path, s.reason);
    }
    if index.runs.is_empty() {
        eprintln!(
            "repro: analyze: no usable GWTB traces (*.trace.bin) under {} ({} skipped)",
            dir.display(),
            index.skipped.len()
        );
        std::process::exit(2);
    }
    let report = gwc_analyze::aggregate(&index);

    let mut t = Table::new(
        format!("Analyze: {} runs in {} groups under {}", report.runs.len(), report.groups.len(), dir.display()),
        &["workload", "runs", "configs", "bottleneck", "share"],
    );
    t.numeric();
    for g in &report.groups {
        t.row(vec![
            g.workload.clone(),
            g.runs.to_string(),
            g.configs.to_string(),
            g.bottleneck.clone(),
            format!("{:.4}", g.bottleneck_share),
        ]);
    }
    println!("{}", t.to_ascii());
    for key in &report.divergent {
        eprintln!("repro: analyze: DIVERGENT replicas for {key} (same key, different trace bytes)");
    }

    let out_dir = PathBuf::from(&options.out);
    let artifacts: Vec<(&str, PathBuf, String)> = [
        ("csv", out_dir.join("report.csv"), gwc_analyze::csv(&report)),
        ("html", out_dir.join("dashboard.html"), gwc_analyze::html(&report)),
    ]
    .into_iter()
    .filter(|(kind, _, _)| options.format == "both" || options.format == *kind)
    .collect();
    for (_, path, contents) in &artifacts {
        if let Err(e) = gwc_analyze::write_report(path, contents) {
            eprintln!("repro: analyze: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", path.display());
    }
    report.skipped.is_empty() && report.divergent.is_empty()
}

/// The supervised campaign: every experiment as a job, progress durable
/// in `--dir`. Returns whether everything succeeded.
fn run_campaign_cmd(options: &Options) -> bool {
    let dir = PathBuf::from(&options.dir);
    let (supervisor, _runner) = build_supervisor(options);
    let jobs = gwc_bench::campaign_jobs(options.config, options.rung, &dir, options.trace);
    let campaign_opts = CampaignOptions {
        dir: dir.clone(),
        resume: options.campaign_resume,
        stop_after: options.stop_after,
    };
    eprintln!(
        "campaign: {} jobs into {} (resume={})",
        jobs.len(),
        dir.display(),
        options.campaign_resume
    );
    let outcome = match run_campaign(&supervisor, &jobs, &campaign_opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("repro: campaign failed: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", outcome.summary());
    if outcome.interrupted {
        eprintln!(
            "campaign interrupted after {} of {} jobs; finish with 'repro campaign --dir {} --resume'",
            outcome.entries.len(),
            jobs.len(),
            options.dir
        );
        return false;
    }
    eprintln!("campaign report: {}", dir.join(REPORT_FILE).display());
    outcome.failed() == 0
}

/// `repro sweep`: a procedural-scenario grid as a supervised campaign,
/// reduced to feature vectors and a distance ranking against the paper
/// games. Returns whether every cell succeeded with its declared
/// characteristics intact.
fn run_sweep(options: &Options) -> bool {
    use gwc_bench::sweep;

    let Some(spec) = &options.grid else {
        bad_arg(
            "'sweep' requires '--grid SPEC' (e.g. --grid 'archetype=corridor,storm; style=prepass; api=sorted'; try --dry-run first)"
                .into(),
        );
    };
    let grid = match gwc_scenarios::GridSpec::parse(spec) {
        Ok(grid) => grid,
        Err(e) => bad_arg(format!("invalid value for '--grid': {e}")),
    };
    let config = options.run_config();
    let include_refs = !options.no_refs;
    if options.dry_run {
        print!("{}", sweep::dry_run_text(&grid, &config, include_refs));
        return true;
    }
    let dir = PathBuf::from(&options.dir);
    let (supervisor, _runner) = build_supervisor(options);
    // Cell seeds ride in each job's RunConfig — Rung::apply preserves
    // seeds, so --quick/--paper clamp frames and resolution only.
    let jobs = sweep::sweep_jobs(&grid, options.config, options.rung, include_refs);
    let campaign_opts = CampaignOptions {
        dir: dir.clone(),
        resume: options.campaign_resume,
        stop_after: options.stop_after,
    };
    eprintln!(
        "sweep: {} cells + {} references into {} (resume={})",
        grid.cell_count(),
        jobs.len() - grid.cell_count(),
        dir.display(),
        options.campaign_resume
    );
    let outcome = match run_campaign(&supervisor, &jobs, &campaign_opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("repro: sweep failed: {e}");
            std::process::exit(2);
        }
    };
    if outcome.interrupted {
        eprintln!(
            "sweep interrupted after {} of {} jobs; finish with 'repro sweep --grid ... --dir {} --resume'",
            outcome.entries.len(),
            jobs.len(),
            options.dir
        );
        return false;
    }
    let summary = match sweep::assemble_sweep(&dir, &outcome) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("repro: sweep assembly failed: {e}");
            return false;
        }
    };
    for f in &summary.failed {
        eprintln!("sweep: FAILED {f}");
    }
    if !summary.rankings.is_empty() {
        println!("{}", summary.ranking_table());
    }
    println!(
        "sweep: {} cell vectors + {} reference vectors -> {}",
        summary.cells.len(),
        summary.refs.len(),
        dir.join(sweep::FEATURES_FILE).display()
    );
    summary.failed.is_empty()
}

/// The daemon address for `submit`/`status`: `--addr` wins, then the
/// `addr` file a running daemon writes into its data directory, then the
/// default port.
fn resolve_addr(options: &Options) -> String {
    if let Some(addr) = &options.addr {
        return addr.clone();
    }
    let path = PathBuf::from(&options.data_dir).join(gwc_server::ADDR_FILE);
    if let Ok(contents) = std::fs::read_to_string(&path) {
        let addr = contents.trim().to_string();
        if !addr.is_empty() {
            return addr;
        }
    }
    "127.0.0.1:7341".to_string()
}

/// Builds the `POST /jobs` body from the CLI flags. Every config field is
/// sent explicitly so the content hash is decided entirely client-side
/// visible state, never by server defaults.
fn submission_body(options: &Options) -> String {
    use gwc_harness::json::Json;
    Json::Obj(vec![
        ("game".into(), Json::Str(options.game.clone())),
        ("experiment".into(), Json::Str(options.kind.name().into())),
        ("rung".into(), Json::Str(options.rung.name().into())),
        ("config".into(), gwc_harness::run_config_to_json(&options.run_config())),
        ("trace".into(), Json::Bool(options.trace)),
    ])
    .to_pretty()
}

/// `repro serve`: the crash-safe characterization daemon. Blocks until
/// drained; returns whether the drain was clean.
fn run_serve(options: &Options) -> bool {
    let (supervisor, runner) = build_supervisor(options);
    // The daemon never assembles cross-game tables, but the runner still
    // collects every successful characterization for `into_study`. Drain
    // that collection periodically so a daemon that executes jobs for
    // days keeps bounded memory.
    let janitor = Arc::clone(&runner);
    let _ = std::thread::Builder::new().name("gwc-serve-janitor".into()).spawn(move || loop {
        std::thread::sleep(Duration::from_secs(10));
        let _ = janitor.into_study(RunConfig::quick());
    });
    let cfg = gwc_server::ServeConfig {
        addr: options.addr.clone().unwrap_or_else(|| "127.0.0.1:7341".into()),
        data_dir: PathBuf::from(&options.data_dir),
        workers: options.workers,
        policy: gwc_server::StatePolicy {
            queue_capacity: options.queue_cap,
            breaker_threshold: options.breaker,
        },
        wal_rotate_bytes: options.wal_rotate_bytes,
        drain_timeout: Duration::from_millis(options.drain_timeout_ms),
    };
    match gwc_server::run(&cfg, supervisor) {
        Ok(0) => true,
        // Distinct nonzero drain codes (1 fail-stop, 3 forced drain) are
        // contract surface: propagate them verbatim, not as a generic 1.
        Ok(code) => std::process::exit(code),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
            // The data directory is locked by another live process; that
            // is a usage error, and the message names the holder.
            eprintln!("repro: serve: {e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("repro: serve: {e}");
            false
        }
    }
}

/// `repro submit`: one job over HTTP; with `--wait`, polls to completion
/// and exits by the job's outcome.
fn run_submit(options: &Options) -> bool {
    use gwc_harness::json::{parse as parse_json, Json};
    let addr = resolve_addr(options);
    let body = submission_body(options);
    let response = match gwc_server::client::exchange(&addr, "POST", "/jobs", Some(&body)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: cannot reach daemon at {addr}: {e}");
            return false;
        }
    };
    println!("{}", response.text().trim_end());
    if response.status >= 400 {
        eprintln!("repro: submission rejected: HTTP {}", response.status);
        return false;
    }
    if !options.wait {
        return true;
    }
    let Some(hash) = parse_json(&response.text())
        .ok()
        .and_then(|doc| doc.get("hash").and_then(Json::as_str).map(str::to_owned))
    else {
        eprintln!("repro: daemon response carries no job hash");
        return false;
    };
    // Poll under the same deadline policy as a supervised attempt.
    let deadline = std::time::Instant::now() + Duration::from_millis(options.deadline_ms);
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let poll = match gwc_server::client::exchange(&addr, "GET", &format!("/jobs/{hash}"), None)
        {
            Ok(r) => r,
            // A daemon mid-restart is reachable again shortly; keep
            // polling until the deadline says otherwise.
            Err(_) if std::time::Instant::now() < deadline => continue,
            Err(e) => {
                eprintln!("repro: lost the daemon at {addr} while waiting: {e}");
                return false;
            }
        };
        let doc = match parse_json(&poll.text()) {
            Ok(doc) if poll.status == 200 => doc,
            _ => {
                eprintln!("repro: bad status response: HTTP {}", poll.status);
                return false;
            }
        };
        if doc.get("phase").and_then(Json::as_str) == Some("done") {
            println!("{}", poll.text().trim_end());
            let outcome = doc
                .get("entry")
                .and_then(|e| e.get("outcome"))
                .and_then(Json::as_str)
                .and_then(Outcome::from_name);
            return outcome.is_some_and(Outcome::is_success);
        }
        if std::time::Instant::now() >= deadline {
            eprintln!("repro: timed out waiting for job {hash}");
            return false;
        }
    }
}

/// `repro status`: `/stats`, or one job's row with `--hash`.
fn run_status(options: &Options) -> bool {
    let addr = resolve_addr(options);
    let path = match &options.hash {
        Some(hash) => format!("/jobs/{hash}"),
        None => "/stats".to_string(),
    };
    match gwc_server::client::exchange(&addr, "GET", &path, None) {
        Ok(response) => {
            println!("{}", response.text().trim_end());
            response.status == 200
        }
        Err(e) => {
            eprintln!("repro: cannot reach daemon at {addr}: {e}");
            false
        }
    }
}

fn main() {
    // Arm failpoints from the environment before anything touches disk;
    // a malformed spec is a usage error, not something to half-honor.
    if let Err(e) = gwc_failpoints::arm_from_env() {
        bad_arg(format!("GWC_FAILPOINTS: {e}"));
    }
    let options = parse_args();
    let mut all_ok = true;
    let needs_study = options.experiments.iter().any(|e| {
        !matches!(
            e.as_str(),
            "ablations" | "replay" | "parallel" | "campaign" | "sweep" | "trace" | "analyze"
                | "serve" | "submit" | "status" | "torture"
        )
    });
    let study = if needs_study {
        let (study, ok) = build_study(&options);
        all_ok &= ok;
        Some(study)
    } else {
        None
    };
    for experiment in &options.experiments {
        match experiment.as_str() {
            "ablations" => run_ablations(&options),
            "replay" => run_replay(&options),
            "parallel" => run_parallel_bench(&options),
            "campaign" => all_ok &= run_campaign_cmd(&options),
            "sweep" => all_ok &= run_sweep(&options),
            "trace" => all_ok &= run_trace(&options),
            "analyze" => all_ok &= run_analyze(&options),
            "serve" => all_ok &= run_serve(&options),
            "submit" => all_ok &= run_submit(&options),
            "status" => all_ok &= run_status(&options),
            "torture" => all_ok &= torture::run(&options),
            _ => {
                let study = study.as_ref().expect("study built for table/figure experiments");
                if !run_experiment(study, experiment, options.csv) {
                    bad_arg(format!("unknown experiment '{experiment}'\n{KNOWN_EXPERIMENTS}"));
                }
            }
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}
