//! Frame-boundary checkpoint/restart: a resumed replay must be
//! bit-identical to an uninterrupted one.

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

#[test]
fn resumed_replay_is_bit_identical() {
    let trace = record("Doom3/trdemo2", 6);
    let config = GpuConfig::r520(128, 96);

    // Uninterrupted run.
    let mut full = Gpu::new(config);
    trace.replay(&mut full);
    assert!(full.first_error().is_none(), "clean trace replays cleanly");

    // Interrupted run: 3 frames, checkpoint, restore, remaining 3 frames.
    let mut first_half = Gpu::new(config);
    trace.replay_frames(3, &mut first_half);
    let blob = first_half.save_checkpoint();
    drop(first_half);

    let mut resumed = Gpu::restore_checkpoint(config, &blob).expect("restores");
    trace.replay_from(3, &mut resumed);

    // Statistics are bit-identical...
    assert_eq!(full.stats(), resumed.stats());
    assert_eq!(full.stats().frames().len(), 6);
    assert_eq!(full.memory().frames(), resumed.memory().frames());
    assert_eq!(full.vram_allocated(), resumed.vram_allocated());
    // ...and so is the entire final GPU state, compared via its own
    // serialization (framebuffers, caches, compression directories, ...).
    assert_eq!(full.save_checkpoint(), resumed.save_checkpoint());
}

#[test]
fn checkpoint_at_every_boundary_resumes_exactly() {
    let trace = record("Quake4/demo4", 4);
    let config = GpuConfig::r520(96, 72);
    let mut full = Gpu::new(config);
    trace.replay(&mut full);
    let reference = full.save_checkpoint();

    for cut in 1..4 {
        let mut head = Gpu::new(config);
        trace.replay_frames(cut, &mut head);
        let blob = head.save_checkpoint();
        let mut tail = Gpu::restore_checkpoint(config, &blob).expect("restores");
        trace.replay_from(cut, &mut tail);
        assert_eq!(tail.save_checkpoint(), reference, "cut at frame {cut}");
    }
}

#[test]
fn corrupted_blob_is_rejected_not_trusted() {
    let trace = record("FEAR/interval2", 2);
    let config = GpuConfig::r520(64, 48);
    let mut gpu = Gpu::new(config);
    trace.replay(&mut gpu);
    let blob = gpu.save_checkpoint();

    // Payload bit flip → CRC failure.
    let mut bad = blob.clone();
    let n = bad.len();
    bad[n - 1] ^= 0x10;
    assert!(matches!(
        Gpu::restore_checkpoint(config, &bad).unwrap_err(),
        CheckpointError::BadCrc(_)
    ));

    // Truncation anywhere → Truncated.
    for cut in [3, 5, 40, blob.len() - 1] {
        assert_eq!(
            Gpu::restore_checkpoint(config, &blob[..cut]).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    // Wrong magic.
    let mut bad = blob.clone();
    bad[0] = b'X';
    assert_eq!(Gpu::restore_checkpoint(config, &bad).unwrap_err(), CheckpointError::BadMagic);

    // Configuration mismatch: the blob is internally valid but describes
    // a different resolution.
    let other = GpuConfig::r520(320, 240);
    assert!(matches!(
        Gpu::restore_checkpoint(other, &blob).unwrap_err(),
        CheckpointError::Corrupt(_)
    ));
}
