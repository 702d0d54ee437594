//! Round-trip identity: every trace the writer emits must decode
//! through the typed GWTB reader back to the collector's own trace —
//! over all twelve game profiles and a scenario grid, at both telemetry
//! levels.

use gwc_bench::{simulate_scenario_traced, simulate_traced};
use gwc_scenarios::ScenarioSpec;
use gwc_telemetry::reader::read_trace;
use gwc_telemetry::Level;
use gwc_workloads::GameProfile;

/// Asserts `read_trace` inverts the writer: the bytes decode to exactly
/// the snapshot they were written from.
fn assert_roundtrip(label: &str, collector: &gwc_telemetry::Collector) {
    let trace = collector.trace();
    let bytes = trace.to_binary();
    assert_eq!(read_trace(&bytes), Ok(trace), "{label}: decoded trace differs from the collector's");
}

#[test]
fn every_game_trace_roundtrips_at_both_levels() {
    for profile in GameProfile::all() {
        for level in [Level::Counters, Level::Spans] {
            let (_, collector) = simulate_traced(profile.name, 1, 48, 36, level, |_| {});
            let collector = collector
                .unwrap_or_else(|| panic!("{}: telemetry enabled but no collector", profile.name));
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
        let spec = match ScenarioSpec::parse(name) {
            Some(Ok(spec)) => spec,
            other => panic!("{name}: scenario did not parse: {other:?}"),
        };
        let (_, collector) = simulate_scenario_traced(spec, 2, 48, 36, 7, Level::Spans);
        let collector =
            collector.unwrap_or_else(|| panic!("{name}: telemetry enabled but no collector"));
        assert_roundtrip(name, &collector);
    }
}
