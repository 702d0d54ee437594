//! Fault-injection soak: every game profile replayed under corruption.
//!
//! Three layers of induced failure, all seeded and reproducible:
//!
//! 1. *Byte-level* — bit flips and truncation of encoded traces must make
//!    the codec return an error, never panic or over-allocate.
//! 2. *Structural* — decoded command streams with scrambled ids, inflated
//!    index ranges and non-finite data must surface as classified
//!    [`SimError`]s handled per the configured [`FaultPolicy`].
//! 3. *Memory* — seeded read corruption in the memory controller must be
//!    counted and classified, not crash the pipeline.
//!
//! [`SimError`]: gwc::pipeline::SimError
//! [`FaultPolicy`]: gwc::pipeline::FaultPolicy

use gwc::api::{Device, FaultInjector, Trace};
use gwc::pipeline::{FaultPolicy, Gpu, GpuConfig};
use gwc::workloads::{GameProfile, Timedemo, TimedemoConfig};

const FRAMES: u32 = 2;
const WIDTH: u32 = 64;
const HEIGHT: u32 = 48;
/// ~1% of commands structurally corrupted.
const CMD_RATE_PPM: u32 = 10_000;

fn record(profile: &'static GameProfile) -> Trace {
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames: FRAMES, seed: 0x5EED });
    let mut device = Device::new();
    demo.emit_all(&mut device);
    assert_eq!(device.first_error(), None, "{} emitted an invalid stream", profile.name);
    device.into_trace()
}

fn corrupted(profile: &'static GameProfile, seed: u64) -> (Trace, usize) {
    let mut inj = FaultInjector::new(seed);
    let mut commands = record(profile).commands().to_vec();
    // Both failure shapes: records silently missing and records damaged.
    let mut n = inj.drop_commands(&mut commands, CMD_RATE_PPM / 2);
    n += inj.corrupt_commands(&mut commands, CMD_RATE_PPM);
    let mut trace = Trace::new();
    trace.extend(commands);
    (trace, n)
}

fn config(policy: FaultPolicy) -> GpuConfig {
    let mut c = GpuConfig::r520(WIDTH, HEIGHT);
    c.fault_policy = policy;
    c
}

#[test]
fn skip_batch_soak_completes_every_frame_of_every_game() {
    let mut total_corrupted = 0usize;
    let mut total_classified = 0u64;
    let mut total_dropped = 0u64;
    for (i, profile) in GameProfile::all().iter().enumerate() {
        let (trace, n) = corrupted(profile, 0xC0FFEE ^ i as u64);
        total_corrupted += n;

        let mut gpu = Gpu::new(config(FaultPolicy::SkipBatch));
        // Layer 3: one read in ~10⁵ is corrupted in flight.
        gpu.enable_memory_fault_injection(0xBAD_5EED ^ i as u64, 10);
        trace.replay(&mut gpu); // infallible path: must not panic
        assert_eq!(
            gpu.stats().frames().len(),
            FRAMES as usize,
            "{}: SkipBatch must still complete every frame",
            profile.name
        );
        total_classified += gpu.stats().total_faults();
        total_dropped += gpu.stats().totals().dropped_batches;
        if gpu.stats().totals().dropped_batches > 0 {
            assert!(
                gpu.first_error().is_some(),
                "{}: dropped batches must leave a classified first error",
                profile.name
            );
        }
    }
    // At ~1% over 12 games the soak must actually have exercised faults.
    assert!(total_corrupted > 0, "corruption rate too low to soak anything");
    assert!(total_classified > 0, "no fault was ever classified");
    assert!(total_dropped > 0, "SkipBatch never dropped a faulty batch");
}

#[test]
fn strict_policy_surfaces_classified_errors() {
    // Under Strict the try_consume path must return the classified error
    // for at least one profile whose corrupted stream faults.
    let mut surfaced = 0;
    for (i, profile) in GameProfile::all().iter().enumerate() {
        let (trace, _) = corrupted(profile, 0xC0FFEE ^ i as u64);
        let mut gpu = Gpu::new(config(FaultPolicy::Strict));
        let mut first = None;
        for c in trace.commands() {
            if let Err(e) = gpu.try_consume(c) {
                first = Some(e);
                break;
            }
        }
        if let Some(e) = first {
            // The error is a classified taxonomy member with a display form.
            assert!(!e.to_string().is_empty());
            surfaced += 1;
        }
    }
    assert!(surfaced > 0, "no profile surfaced a strict error");
}

#[test]
fn soak_is_deterministic() {
    let profile = &GameProfile::all()[0];
    let run = |seed: u64| {
        let (trace, _) = corrupted(profile, seed);
        let mut gpu = Gpu::new(config(FaultPolicy::SkipBatch));
        gpu.enable_memory_fault_injection(seed, 10);
        trace.replay(&mut gpu);
        (gpu.stats().clone(), gpu.memory().injected_faults_total())
    };
    let (a, fa) = run(7);
    let (b, fb) = run(7);
    assert_eq!(a, b, "same seed must reproduce identical statistics");
    assert_eq!(fa, fb);
    let (c, _) = run(8);
    assert_ne!(a.totals(), c.totals(), "different corruption seeds should diverge");
}

#[test]
fn mid_run_checkpoint_resume_under_corruption_is_bit_identical() {
    // Structural corruption only (it lives in the trace, so both runs see
    // the same faults; the memory injector's RNG state is deliberately not
    // part of a checkpoint).
    let profile = GameProfile::by_name("Doom3/trdemo2").unwrap();
    let (trace, _) = corrupted(profile, 0xDEFEC7);
    let cfg = config(FaultPolicy::SkipBatch);

    let mut full = Gpu::new(cfg);
    trace.replay(&mut full);
    assert_eq!(full.stats().frames().len(), FRAMES as usize);

    let mut head = Gpu::new(cfg);
    trace.replay_frames(1, &mut head);
    let blob = head.save_checkpoint();
    let mut resumed = Gpu::restore_checkpoint(cfg, &blob).expect("restores");
    trace.replay_from(1, &mut resumed);

    assert_eq!(full.stats(), resumed.stats(), "resumed SimStats must be bit-identical");
    assert_eq!(full.save_checkpoint(), resumed.save_checkpoint());
}

#[test]
fn gwck_checkpoint_fuzz_returns_typed_errors_never_panics() {
    // Satellite of the supervised-campaign work: a GWCK blob damaged in
    // storage must surface as a typed `CheckpointError` from
    // `restore_checkpoint` — never a panic, never a silently-wrong GPU.
    let profile = GameProfile::by_name("Doom3/trdemo2").unwrap();
    let trace = record(profile);
    let cfg = config(FaultPolicy::SkipBatch);
    let mut gpu = Gpu::new(cfg);
    trace.replay_frames(1, &mut gpu);
    let clean = gpu.save_checkpoint();
    assert!(Gpu::restore_checkpoint(cfg, &clean).is_ok(), "pristine blob must restore");

    let mut flipped_rejected = 0usize;
    for seed in 0..64u64 {
        // Bit flips: CRC-32 per section catches any single-bit damage, so
        // every blob with at least one flip must be rejected.
        let mut inj = FaultInjector::new(0x67C4_u64.wrapping_add(seed));
        let mut bytes = clean.clone();
        let flips = inj.corrupt_bytes(&mut bytes, 200);
        let outcome = std::panic::catch_unwind(|| Gpu::restore_checkpoint(cfg, &bytes));
        let result = outcome.expect("restore_checkpoint must not panic on corrupt input");
        if flips > 0 {
            let err = result.expect_err("bit-flipped checkpoint must not restore");
            assert!(!err.to_string().is_empty(), "error must describe the damage");
            flipped_rejected += 1;
        } else {
            assert!(result.is_ok(), "an untouched blob must still restore");
        }

        // Truncation: a blob cut anywhere must be rejected (empty or
        // mid-header, mid-section, mid-CRC — all of it).
        let mut bytes = clean.clone();
        inj.truncate(&mut bytes);
        let outcome = std::panic::catch_unwind(|| Gpu::restore_checkpoint(cfg, &bytes));
        let result = outcome.expect("restore_checkpoint must not panic on truncated input");
        assert!(result.is_err(), "seed {seed}: truncated checkpoint must not restore");
    }
    assert!(flipped_rejected > 8, "fuzz rate too low to have exercised bit flips");
}

#[test]
fn byte_level_corruption_never_panics_the_codec() {
    let trace = record(&GameProfile::all()[0]);
    let clean = trace.to_bytes();
    for seed in 0..32u64 {
        let mut inj = FaultInjector::new(seed);
        let mut bytes = clean.clone();
        inj.corrupt_bytes(&mut bytes, 500);
        // Either decodes (flip hit a don't-care bit) or errors — never
        // panics, never allocation-bombs.
        let _ = Trace::from_bytes(&bytes);

        let mut bytes = clean.clone();
        inj.truncate(&mut bytes);
        assert!(
            Trace::from_bytes(&bytes).is_err(),
            "seed {seed}: truncated trace must not decode"
        );
    }
}
