//! A replay job simulates the workload generated at its configured seed
//! (the seed its artifact prints is the seed that ran), and a workload it
//! cannot record fails the job with a typed error rather than a panic.

use gwc_bench::replay_job;
use gwc_core::RunConfig;
use gwc_harness::JobError;
use gwc_pipeline::CancelToken;

/// The `fb_crc=` field of a one-frame Doom3 replay job's artifact.
fn replay_fb_crc(seed: u64) -> String {
    let config = RunConfig { api_frames: 1, sim_frames: 1, width: 64, height: 48, seed };
    let product = replay_job("Doom3/trdemo2", &config, None, None, &CancelToken::new())
        .unwrap_or_else(|e| panic!("seed {seed:#x}: replay failed: {e:?}"));
    assert!(product.text.contains(&format!("seed {seed:#x}")), "{}", product.text);
    product
        .text
        .split_whitespace()
        .find(|field| field.starts_with("fb_crc="))
        .unwrap_or_else(|| panic!("no fb_crc in {}", product.text))
        .to_owned()
}

#[test]
fn replay_jobs_at_different_seeds_render_different_frames() {
    assert_ne!(replay_fb_crc(7), replay_fb_crc(0x5EED));
}

#[test]
fn unknown_workload_fails_the_replay_job_typed() {
    let config = RunConfig { api_frames: 1, sim_frames: 1, width: 64, height: 48, seed: 7 };
    let result = replay_job("Nope/demo", &config, None, None, &CancelToken::new());
    assert!(matches!(result, Err(JobError::Failed(ref m)) if m.contains("Nope/demo")), "{result:?}");
}
