//! Round-trip identity: every trace the writer emits must decode
//! through the typed GWTB reader back to the collector's own trace —
//! over all twelve game profiles and a scenario grid, at both telemetry
//! levels.

use gwc_bench::simulate_workload;
use gwc_pipeline::GpuConfig;
use gwc_telemetry::reader::read_trace;
use gwc_telemetry::{Collector, Level};
use gwc_workloads::GameProfile;

/// Asserts `read_trace` inverts the writer: the bytes decode to exactly
/// the snapshot they were written from.
fn assert_roundtrip(label: &str, collector: &Collector) {
    let trace = collector.trace();
    let bytes = trace.to_binary();
    assert_eq!(read_trace(&bytes), Ok(trace), "{label}: decoded trace differs from the collector's");
}

/// Simulates `workload` at 48x36 with a collector at `level`.
fn traced(workload: &str, frames: u32, seed: u64, level: Level) -> Collector {
    let config = GpuConfig::r520(48, 36);
    let mut gpu = simulate_workload(workload, frames, seed, config, None, level, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .expect("no token, no cancellation");
    gpu.take_telemetry()
        .unwrap_or_else(|| panic!("{workload}: telemetry enabled but no collector"))
}

#[test]
fn every_game_trace_roundtrips_at_both_levels() {
    for profile in GameProfile::all() {
        for level in [Level::Counters, Level::Spans] {
            let collector = traced(profile.name, 1, 0x5EED, level);
            assert_roundtrip(&format!("{} @ {level:?}", profile.name), &collector);
        }
    }
}

#[test]
fn scenario_grid_traces_roundtrip() {
    // A 2x2 corner of the scenario grammar: two archetypes crossed with
    // two (style, api) pairings, all at full span fidelity.
    let grid = [
        "scn:corridor+prepass+sorted",
        "scn:corridor+manypass+thrash",
        "scn:storm+prepass+sorted",
        "scn:storm+manypass+thrash",
    ];
    for name in grid {
        assert_roundtrip(name, &traced(name, 2, 7, Level::Spans));
    }
}
