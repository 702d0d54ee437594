//! The scenario determinism and declared-characteristics contract.
//!
//! A scenario is only useful as a workload point if it is *exactly*
//! reproducible: the same (spec, seed) must emit a byte-identical command
//! stream and reduce to a byte-identical feature vector no matter how
//! many worker threads the simulator runs, and a different seed must
//! produce a genuinely different workload. On top of that, every
//! archetype must actually deliver the characteristic it advertises.
//!
//! Runs here are deliberately small (two frames at 160x120) so the suite
//! stays affordable in debug builds; `repro sweep --grid
//! 'archetype=all; style=all; api=all'` runs the whole 80-scenario grid
//! in release mode.

use gwc_api::{encode_commands, ApiStats, Command, CommandSink, Tee};
use gwc_pipeline::{Gpu, GpuConfig};
use gwc_scenarios::{
    measure, ApiStyle, Archetype, RenderStyle, ScenarioConfig, ScenarioDemo, ScenarioRun,
    ScenarioSpec,
};

const W: u32 = 160;
const H: u32 = 120;

fn spec(archetype: Archetype, style: RenderStyle, api: ApiStyle) -> ScenarioSpec {
    ScenarioSpec { archetype, style, api }
}

/// Collects the raw command stream for byte-level comparison.
struct Recorder(Vec<Command>);

impl CommandSink for Recorder {
    fn consume(&mut self, c: &Command) {
        self.0.push(c.clone());
    }
}

fn stream_bytes(spec: ScenarioSpec, config: ScenarioConfig) -> Vec<u8> {
    let mut rec = Recorder(Vec::new());
    ScenarioDemo::new(spec, config).emit_all(&mut rec);
    encode_commands(&rec.0)
}

#[test]
fn same_seed_emits_byte_identical_streams() {
    // One spec per archetype, styles and API modes varied so every
    // emission path (prepass, stencil volumes, post chain, thrash
    // shuffling, tiny splitting, mega merging) is exercised.
    let specs = [
        spec(Archetype::Corridor, RenderStyle::Stencil, ApiStyle::Thrash),
        spec(Archetype::Terrain, RenderStyle::Prepass, ApiStyle::Mega),
        spec(Archetype::Storm, RenderStyle::ManyPass, ApiStyle::Tiny),
        spec(Archetype::Foliage, RenderStyle::Post, ApiStyle::Sorted),
        spec(Archetype::Crowd, RenderStyle::Prepass, ApiStyle::Thrash),
    ];
    for s in specs {
        let config = ScenarioConfig { frames: 2, seed: 7 };
        let first = stream_bytes(s, config);
        let second = stream_bytes(s, config);
        assert_eq!(first, second, "{} re-emitted differently for one seed", s.name());
        assert!(!first.is_empty());
    }
}

#[test]
fn different_seeds_emit_distinct_streams() {
    for s in [
        spec(Archetype::Corridor, RenderStyle::Prepass, ApiStyle::Sorted),
        spec(Archetype::Storm, RenderStyle::ManyPass, ApiStyle::Thrash),
    ] {
        let a = stream_bytes(s, ScenarioConfig { frames: 2, seed: 7 });
        let b = stream_bytes(s, ScenarioConfig { frames: 2, seed: 8 });
        assert_ne!(a, b, "{} ignored its seed", s.name());
    }
}

/// Runs one scenario through API statistics and a GPU with `threads`
/// workers in one emission pass, and measures it.
fn run_at_threads(s: ScenarioSpec, config: ScenarioConfig, threads: u32) -> ScenarioRun {
    let mut demo = ScenarioDemo::new(s, config);
    let mut api = ApiStats::new();
    let mut gpu_config = GpuConfig::r520(W, H);
    gpu_config.threads = threads;
    gpu_config.geometry_threads = threads;
    let mut gpu = Gpu::new(gpu_config);
    demo.emit_all(&mut Tee { a: &mut api, b: &mut gpu });
    measure(&s.name(), config.seed, &api, &gpu, W, H)
}

#[test]
fn feature_vector_is_identical_across_thread_counts() {
    let s = spec(Archetype::Storm, RenderStyle::Stencil, ApiStyle::Thrash);
    let config = ScenarioConfig { frames: 2, seed: 7 };
    let serial = run_at_threads(s, config, 1);
    let parallel = run_at_threads(s, config, 4);
    assert_eq!(
        serial.vector.to_csv_row(),
        parallel.vector.to_csv_row(),
        "feature vector depends on worker thread count"
    );
    assert_eq!(serial.fb_crc, parallel.fb_crc, "framebuffer depends on worker thread count");
}

#[test]
fn different_seeds_reduce_to_distinct_vectors() {
    let s = spec(Archetype::Foliage, RenderStyle::Prepass, ApiStyle::Sorted);
    let a = run_at_threads(s, ScenarioConfig { frames: 2, seed: 7 }, 1);
    let b = run_at_threads(s, ScenarioConfig { frames: 2, seed: 8 }, 1);
    assert_ne!(
        a.vector.to_csv_row().split_once(',').unwrap().1,
        b.vector.to_csv_row().split_once(',').unwrap().1,
        "two seeds measured identically"
    );
}

#[test]
fn every_archetype_delivers_its_declared_characteristics() {
    for archetype in Archetype::ALL {
        let s = spec(archetype, RenderStyle::Prepass, ApiStyle::Sorted);
        let run = run_at_threads(s, ScenarioConfig { frames: 2, seed: 0x5EED }, 1);
        for (e, r) in &run.verdicts {
            assert!(
                r.is_ok(),
                "{}: {} — {}",
                s.name(),
                e.describe(),
                r.as_ref().unwrap_err()
            );
        }
        assert!(run.all_green());
    }
}
