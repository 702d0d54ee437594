//! Parallel fragment pipeline determinism: any worker count must produce
//! bit-identical statistics, framebuffer contents, and checkpoint blobs to
//! the serial path, because the stripe partitioning is fixed by the
//! configuration (`stripe_rows`) and never by the thread count.

use gwc::api::{Device, Trace};
use gwc::pipeline::{CheckpointError, Gpu, GpuConfig};
use gwc::workloads::{GameProfile, Timedemo, TimedemoConfig};

fn record(name: &str, frames: u32) -> Trace {
    let profile = GameProfile::by_name(name).unwrap();
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames, seed: 0x5EED });
    let mut device = Device::new();
    demo.emit_all(&mut device);
    assert_eq!(device.first_error(), None, "{name} emitted an invalid stream");
    device.into_trace()
}

fn config_with_threads(width: u32, height: u32, threads: u32) -> GpuConfig {
    let mut config = GpuConfig::r520(width, height);
    config.threads = threads;
    config
}

/// As [`config_with_threads`], with an explicit geometry worker count.
fn config_with_split(width: u32, height: u32, geom_threads: u32, frag_threads: u32) -> GpuConfig {
    let mut config = config_with_threads(width, height, frag_threads);
    config.geometry_threads = geom_threads;
    config
}

/// Replays a trace on `threads` workers and returns the final GPU.
fn run(trace: &Trace, width: u32, height: u32, threads: u32) -> Gpu {
    run_striped(trace, width, height, threads, 32)
}

/// As [`run`], with an explicit stripe height.
fn run_striped(trace: &Trace, width: u32, height: u32, threads: u32, stripe_rows: u32) -> Gpu {
    let mut config = config_with_threads(width, height, threads);
    config.stripe_rows = stripe_rows;
    let mut gpu = Gpu::new(config);
    assert_eq!(gpu.threads(), threads, "explicit thread count wins over the environment");
    trace.replay(&mut gpu);
    gpu
}

#[test]
fn thread_count_does_not_change_results() {
    let trace = record("Doom3/trdemo2", 3);
    let serial = run(&trace, 128, 96, 1);
    let reference = serial.save_checkpoint();
    for threads in [2, 4, 8] {
        let parallel = run(&trace, 128, 96, threads);
        assert_eq!(serial.stats(), parallel.stats(), "{threads} threads: SimStats drifted");
        assert_eq!(
            serial.framebuffer_crc(),
            parallel.framebuffer_crc(),
            "{threads} threads: framebuffer drifted"
        );
        assert_eq!(serial.memory().frames(), parallel.memory().frames());
        assert_eq!(reference, parallel.save_checkpoint(), "{threads} threads: state drifted");
    }
}

#[test]
fn all_twelve_profiles_are_thread_count_invariant() {
    for profile in GameProfile::all() {
        // 48 rows at 16-row stripes → three stripes, so four workers race
        // over a genuinely partitioned framebuffer at smoke-test cost.
        let trace = record(profile.name, 2);
        let serial = run_striped(&trace, 64, 48, 1, 16);
        let parallel = run_striped(&trace, 64, 48, 4, 16);
        assert_eq!(
            serial.stats(),
            parallel.stats(),
            "{}: SimStats differ between 1 and 4 threads",
            profile.name
        );
        assert_eq!(
            serial.framebuffer_crc(),
            parallel.framebuffer_crc(),
            "{}: framebuffer differs between 1 and 4 threads",
            profile.name
        );
        assert_eq!(
            serial.save_checkpoint(),
            parallel.save_checkpoint(),
            "{}: checkpoint blobs differ between 1 and 4 threads",
            profile.name
        );
    }
}

#[test]
fn checkpoint_restore_mid_run_is_thread_count_invariant() {
    let trace = record("Quake4/demo4", 4);
    let serial = run(&trace, 96, 72, 1);
    let reference = serial.save_checkpoint();

    for threads in [1, 2, 4, 8] {
        // Interrupt after two frames, checkpoint, restore, finish.
        let mut head = Gpu::new(config_with_threads(96, 72, threads));
        trace.replay_frames(2, &mut head);
        let blob = head.save_checkpoint();
        drop(head);

        let mut tail =
            Gpu::restore_checkpoint(config_with_threads(96, 72, threads), &blob).expect("restores");
        trace.replay_from(2, &mut tail);
        assert_eq!(serial.stats(), tail.stats(), "{threads} threads after restore");
        assert_eq!(serial.framebuffer_crc(), tail.framebuffer_crc(), "{threads} threads");
        assert_eq!(reference, tail.save_checkpoint(), "{threads} threads after restore");
    }
}

/// A checkpoint written by a serial run restores into a parallel run (and
/// vice versa): the blob records the stripe layout, not the worker count,
/// so `repro replay --resume` with any `GWC_THREADS` lands in the same
/// partitioning and replays bit-identically — also when geometry and
/// fragment workers are split unequally on either side of the resume.
#[test]
fn resume_across_thread_counts_is_bit_identical() {
    let trace = record("Riddick/PrisonArea", 4);
    let serial = run(&trace, 96, 72, 1);
    let reference = serial.save_checkpoint();

    // (geometry, fragment) workers for the head and the tail: serial head,
    // parallel tail — and the reverse — then unequal splits.
    for ((head_gt, head_ft), (tail_gt, tail_ft)) in [
        ((1, 1), (8, 8)),
        ((8, 8), (1, 1)),
        ((2, 2), (4, 4)),
        ((4, 2), (1, 1)),
        ((2, 4), (8, 1)),
    ] {
        let mut head = Gpu::new(config_with_split(96, 72, head_gt, head_ft));
        trace.replay_frames(2, &mut head);
        let blob = head.save_checkpoint();

        let mut tail =
            Gpu::restore_checkpoint(config_with_split(96, 72, tail_gt, tail_ft), &blob)
                .expect("thread counts are not part of the persistent state");
        assert_eq!((tail.geometry_threads(), tail.threads()), (tail_gt, tail_ft));
        trace.replay_from(2, &mut tail);
        let tag = format!("head geom={head_gt}/frag={head_ft}, tail geom={tail_gt}/frag={tail_ft}");
        assert_eq!(serial.stats(), tail.stats(), "{tag}: SimStats drifted");
        assert_eq!(serial.framebuffer_crc(), tail.framebuffer_crc(), "{tag}: framebuffer");
        assert_eq!(reference, tail.save_checkpoint(), "{tag}: checkpoint bytes");
    }
}

// ---- telemetry determinism --------------------------------------------

use gwc::telemetry::reader::read_trace;
use gwc::telemetry::{export, Collector, Level};

/// Replays `trace` under `config` with a telemetry collector attached at
/// `level` and returns the GPU plus the detached collector.
fn run_traced(trace: &Trace, config: GpuConfig, level: Level) -> (Gpu, Collector) {
    let mut gpu = Gpu::new(config);
    gpu.enable_telemetry(level, "determinism-test", 256);
    trace.replay(&mut gpu);
    let collector = gpu.take_telemetry().expect("collector attached above");
    (gpu, collector)
}

/// Chrome JSON, frames CSV and GWTB bytes of one collector snapshot.
fn exports(collector: &Collector) -> (String, String, Vec<u8>) {
    let trace = collector.trace();
    (export::chrome_json(&trace), export::frames_csv(&trace), trace.to_binary())
}

/// Telemetry is observation, never participation: with the collector
/// disabled (`Level::Off`) — and even fully enabled — statistics,
/// framebuffer contents, and checkpoint blobs are bit-identical to a run
/// with no collector at all, for every profile that matters here.
#[test]
fn telemetry_does_not_change_simulation_results() {
    for name in ["Doom3/trdemo2", "Quake4/demo4"] {
        let trace = record(name, 3);
        let bare = run(&trace, 96, 72, 1);
        let reference = bare.save_checkpoint();
        for level in [Level::Off, Level::Counters, Level::Spans] {
            let (gpu, _) = run_traced(&trace, config_with_threads(96, 72, 1), level);
            assert_eq!(bare.stats(), gpu.stats(), "{name}: SimStats drifted at {level:?}");
            assert_eq!(
                bare.framebuffer_crc(),
                gpu.framebuffer_crc(),
                "{name}: framebuffer drifted at {level:?}"
            );
            assert_eq!(
                reference,
                gpu.save_checkpoint(),
                "{name}: checkpoint bytes drifted at {level:?}"
            );
        }
    }
}

/// The exported trace artifacts are keyed by work ticks, not wall time or
/// scheduling, so every worker count — including unequal geometry and
/// fragment splits — produces the same bytes.
#[test]
fn exported_traces_are_thread_count_invariant() {
    let trace = record("Doom3/trdemo2", 3);
    let (_, serial) = run_traced(&trace, config_with_threads(96, 72, 1), Level::Spans);
    let reference = exports(&serial);
    assert_eq!(read_trace(&reference.2), Ok(serial.trace()), "binary decodes to the snapshot");
    for (geom_threads, frag_threads) in [(2, 2), (4, 4), (2, 4), (8, 2)] {
        let config = config_with_split(96, 72, geom_threads, frag_threads);
        let (_, parallel) = run_traced(&trace, config, Level::Spans);
        let (json, csv, bin) = exports(&parallel);
        let tag = format!("geom={geom_threads} frag={frag_threads}");
        assert_eq!(reference.0, json, "{tag}: Chrome JSON drifted");
        assert_eq!(reference.1, csv, "{tag}: frames CSV drifted");
        assert_eq!(reference.2, bin, "{tag}: binary drifted");
    }
}

/// The work-tick clock is persistent state: a collector attached after a
/// checkpoint restore produces byte-identical tail traces to one attached
/// at the same frame boundary of an uninterrupted run — across thread
/// counts on either side of the boundary.
#[test]
fn resumed_tail_traces_are_bit_identical() {
    let trace = record("Quake4/demo4", 4);

    // Reference: uninterrupted run, collector attached after frame 2.
    let mut gpu = Gpu::new(config_with_threads(96, 72, 1));
    trace.replay_frames(2, &mut gpu);
    gpu.enable_telemetry(Level::Spans, "tail", 256);
    trace.replay_from(2, &mut gpu);
    let reference = gpu.take_telemetry().expect("collector attached");
    let (reference_json, _, reference_bin) = exports(&reference);
    assert!(!reference.frames().is_empty(), "tail collector saw frames");

    for (head_threads, tail_threads) in [(1, 1), (1, 4), (4, 1), (2, 4)] {
        let mut head = Gpu::new(config_with_threads(96, 72, head_threads));
        trace.replay_frames(2, &mut head);
        let blob = head.save_checkpoint();

        let mut tail = Gpu::restore_checkpoint(config_with_threads(96, 72, tail_threads), &blob)
            .expect("restores");
        tail.enable_telemetry(Level::Spans, "tail", 256);
        trace.replay_from(2, &mut tail);
        let (json, _, bin) = exports(&tail.take_telemetry().expect("collector attached"));
        assert_eq!(
            reference_json, json,
            "head at {head_threads}, tail at {tail_threads}: Chrome JSON drifted across resume"
        );
        assert_eq!(
            reference_bin, bin,
            "head at {head_threads}, tail at {tail_threads}: binary drifted across resume"
        );
    }
}

// ---- geometry front-end determinism -----------------------------------

/// Replays `trace` under an explicit geometry/fragment worker split.
fn run_geom(trace: &Trace, width: u32, height: u32, geom_threads: u32, frag_threads: u32) -> Gpu {
    let mut config = config_with_split(width, height, geom_threads, frag_threads);
    config.stripe_rows = 16;
    let mut gpu = Gpu::new(config);
    assert_eq!(gpu.geometry_threads(), geom_threads, "explicit geometry thread count wins");
    trace.replay(&mut gpu);
    gpu
}

/// The chunked geometry front end is bit-identical to the serial path for
/// every point of the geometry-threads × fragment-threads matrix. Each of
/// the eight points runs on its own game profile, because chunk
/// partitioning is fixed by the chunk size — never by who executes the
/// chunks. (`all_twelve_profiles_are_thread_count_invariant` runs every
/// profile with parallel geometry.)
#[test]
fn geometry_thread_matrix_is_bit_identical() {
    let combos = [1, 2, 4, 8].into_iter().flat_map(|g| [(g, 1), (g, 4)]);
    for (profile, (geom_threads, frag_threads)) in GameProfile::all().iter().zip(combos) {
        let name = profile.name;
        let trace = record(name, 2);
        // Reference: serial geometry, serial fragments.
        let serial = run_geom(&trace, 64, 48, 1, 1);
        let parallel = run_geom(&trace, 64, 48, geom_threads, frag_threads);
        let tag = format!("{name}: geom={geom_threads} frag={frag_threads}");
        assert_eq!(serial.stats(), parallel.stats(), "{tag}: SimStats drifted");
        assert_eq!(serial.framebuffer_crc(), parallel.framebuffer_crc(), "{tag}: framebuffer");
        assert_eq!(serial.save_checkpoint(), parallel.save_checkpoint(), "{tag}: checkpoint");
    }
}

/// The stripe layout *is* persistent state: restoring a checkpoint under a
/// different `stripe_rows` would scatter the per-stripe caches across the
/// wrong framebuffer bands, so it must be refused, not guessed at.
#[test]
fn stripe_layout_mismatch_is_rejected() {
    let trace = record("Doom3/trdemo2", 2);
    let mut gpu = Gpu::new(GpuConfig::r520(96, 72));
    trace.replay_frames(1, &mut gpu);
    let blob = gpu.save_checkpoint();

    let mut other = GpuConfig::r520(96, 72);
    other.stripe_rows = 16;
    match Gpu::restore_checkpoint(other, &blob) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("stripe"), "error names the stripe layout: {msg}")
        }
        other => panic!("expected a stripe-layout rejection, got {other:?}"),
    }
}
