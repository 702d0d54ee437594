//! Workspace-level integration: the full methodology from workload
//! generation through simulation to table/figure rendering.

use gwc::api::{ApiStats, Device, Tee};
use gwc::core::{characterize, run_study, tables, RunConfig};
use gwc::pipeline::{Gpu, GpuConfig};
use gwc::workloads::{GameProfile, Timedemo, TimedemoConfig};

fn quick() -> RunConfig {
    RunConfig { api_frames: 8, sim_frames: 2, width: 128, height: 96, seed: 42 }
}

#[test]
fn study_renders_all_tables_and_figures() {
    let study = run_study(&quick());
    let tables = tables::all_tables(&study);
    assert_eq!(tables.len(), 17);
    let figures = gwc::core::figures::all_figures(&study);
    assert_eq!(figures.len(), 17);
    for f in figures {
        assert!(!f.chart.is_empty());
    }
}

#[test]
fn trace_record_then_replay_matches_live_stats() {
    // GLInterceptor methodology: a recorded trace replays bit-exactly, so
    // statistics computed live and from the trace must agree.
    let profile = GameProfile::by_name("Riddick/PrisonArea").unwrap();
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames: 4, seed: 9 });

    let mut live = ApiStats::new();
    let mut device = Device::new();
    demo.emit_all(&mut Tee { a: &mut live, b: &mut device });
    assert_eq!(device.first_error(), None, "generator emits valid streams");

    let trace = device.into_trace();
    let mut replayed = ApiStats::new();
    trace.replay(&mut replayed);
    assert_eq!(live.totals().batches, replayed.totals().batches);
    assert_eq!(live.totals().indices, replayed.totals().indices);
    assert_eq!(live.totals().state_calls, replayed.totals().state_calls);
    assert_eq!(live.frames(), replayed.frames());
}

#[test]
fn tee_feeds_stats_and_simulator_identically() {
    let profile = GameProfile::by_name("UT2004/Primeval").unwrap();
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames: 2, seed: 3 });
    let mut api = ApiStats::new();
    let mut gpu = Gpu::new(GpuConfig::r520(96, 72));
    let mut tee = Tee { a: &mut api, b: &mut gpu };
    demo.emit_all(&mut tee);
    // The simulator's index count equals the API-level count.
    assert_eq!(api.totals().indices, gpu.stats().totals().indices);
    assert_eq!(api.frames() as usize, gpu.stats().frames().len());
}

#[test]
fn api_statistics_match_published_tables() {
    // The generator is parameterized from the paper's tables; over a
    // moderate window the measured API statistics must come back close.
    let cfg = RunConfig { api_frames: 50, sim_frames: 0, width: 64, height: 48, seed: 1 };
    for name in ["Doom3/trdemo2", "FEAR/interval2", "Oblivion/Anvil Castle"] {
        let p = GameProfile::by_name(name).unwrap();
        let c = characterize(p, &cfg);
        let idx = c.api.avg_indices_per_frame();
        assert!(
            (idx - p.indices_per_frame).abs() / p.indices_per_frame < 0.2,
            "{name}: indices/frame {idx:.0} vs {:.0}",
            p.indices_per_frame
        );
        let fs = c.api.avg_fragment_instructions();
        assert!(
            (fs - p.fs_instructions).abs() / p.fs_instructions < 0.15,
            "{name}: fs {fs:.2} vs {:.2}",
            p.fs_instructions
        );
    }
}

#[test]
fn simulated_games_render_nonempty_frames() {
    let cfg = RunConfig { api_frames: 2, sim_frames: 2, width: 160, height: 120, seed: 2 };
    for p in GameProfile::simulated() {
        let c = characterize(p, &cfg);
        let sim = c.sim.expect("simulated");
        let t = sim.stats.totals();
        assert!(t.frags_blended > 0, "{}: nothing blended", p.name);
        assert!(t.traversed > 0, "{}: nothing traversed", p.name);
        assert!(sim.mean_bytes_per_frame() > 0.0, "{}: no memory traffic", p.name);
        // All quads are accounted for by the five fates plus survivor
        // bookkeeping invariants.
        assert!(
            t.quads_hz_removed
                + t.quads_zst_removed
                + t.quads_alpha_removed
                + t.quads_colormask
                + t.quads_blended
                <= t.quads_raster,
            "{}: quad fates exceed rasterized quads",
            p.name
        );
    }
}

#[test]
fn deterministic_study() {
    let a = run_study(&quick());
    let b = run_study(&quick());
    for (ga, gb) in a.games.iter().zip(b.games.iter()) {
        assert_eq!(ga.api.totals().indices, gb.api.totals().indices, "{}", ga.profile.name);
        match (&ga.sim, &gb.sim) {
            (Some(sa), Some(sb)) => {
                assert_eq!(
                    sa.stats.totals().frags_raster,
                    sb.stats.totals().frags_raster,
                    "{}",
                    ga.profile.name
                );
            }
            (None, None) => {}
            _ => panic!("simulation presence differs for {}", ga.profile.name),
        }
    }
}

#[test]
fn trace_file_roundtrip_replays_identically() {
    // Record a demo, serialize to the binary trace format, write/read a
    // temp file, decode, replay — statistics must be identical.
    let profile = GameProfile::by_name("Splinter Cell 3/first level").unwrap();
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames: 2, seed: 5 });
    let mut device = Device::new();
    demo.emit_all(&mut device);
    assert_eq!(device.first_error(), None);
    let trace = device.into_trace();

    let path = std::env::temp_dir().join("gwc_e2e_trace.bin");
    std::fs::write(&path, trace.to_bytes()).unwrap();
    let decoded = gwc::api::Trace::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(trace, decoded);

    let mut live = ApiStats::new();
    trace.replay(&mut live);
    let mut from_file = ApiStats::new();
    decoded.replay(&mut from_file);
    assert_eq!(live.totals().indices, from_file.totals().indices);
    assert_eq!(live.totals().state_calls, from_file.totals().state_calls);
}
