//! End-to-end determinism contract for the analytics pipeline: a data
//! directory with several runs must scan → aggregate → render to
//! byte-identical CSV and HTML on every invocation, independent of
//! discovery order or prior process state.

use std::fs;
use std::path::PathBuf;

use gwc_analyze::{aggregate, csv, html, scan, ATTRIBUTION_STAGES, CSV_HEADER};
use gwc_telemetry::{Collector, FrameSample, Level, SpanEvent, Stage, TraceMeta};

fn trace_blob(game: &str, seed: u64, frames: u64) -> Vec<u8> {
    let meta = TraceMeta {
        game: game.into(),
        width: 64,
        height: 48,
        stripe_rows: 16,
        stripes: 2,
        clients: vec!["Vertex".into(), "Texture".into(), "Color".into()],
        span_capacity: 64,
    };
    let mut c = Collector::new(Level::Spans, meta);
    let mut tick = 0u64;
    for f in 0..frames {
        c.record_draw(tick, tick + 10 + seed % 7, 12);
        if let Some(mut rings) = c.take_stripe_rings() {
            for (s, ring) in rings.iter_mut().enumerate() {
                ring.push(SpanEvent {
                    stage: Stage::Shade,
                    start: tick + s as u64,
                    dur: 20 + seed * 3,
                    arg0: f,
                    arg1: 0,
                });
            }
            c.restore_stripe_rings(rings);
        }
        tick += 50;
        c.end_frame(
            tick,
            FrameSample {
                batches: 3,
                indices: 36,
                triangles: 12,
                frags_raster: 400 + seed * 10,
                frags_shaded: 300,
                z_accesses: 100,
                z_hits: 80 + seed,
                tex_l0_accesses: 200,
                tex_l0_hits: 150,
                bw_read: vec![50, 120, 40],
                bw_written: vec![0, 0, 60],
                ..Default::default()
            },
        );
    }
    c.trace().to_binary()
}

fn campaign_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gwc-analyze-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("campaign")).expect("mkdir");
    // Three manifest-covered runs plus one bare trace: two games at one
    // config, one game at a second config (exercises cache spread), and
    // a manifest-less scenario trace.
    let jobs = [
        ("job-000.trace.bin", "GameA/demo", 1u64, 2u64),
        ("job-001.trace.bin", "GameB/demo", 2, 2),
        ("job-002.trace.bin", "GameA/demo", 5, 3),
    ];
    let mut manifest = String::from(
        r#"{"format": "gwc-campaign", "version": 2, "jobs": ["#,
    );
    for (i, (name, game, seed, frames)) in jobs.iter().enumerate() {
        fs::write(dir.join("campaign").join(name), trace_blob(game, *seed, *frames))
            .expect("write trace");
        if i > 0 {
            manifest.push(',');
        }
        manifest.push_str(&format!(
            r#"{{"trace": "{name}", "config": {{"width": 64, "height": 48, "sim_frames": {frames}, "seed": {seed}}}}}"#,
        ));
    }
    manifest.push_str("]}");
    fs::write(dir.join("campaign/campaign.json"), manifest).expect("write manifest");
    fs::write(
        dir.join("scn.corridor+prepass+sorted.trace.bin"),
        trace_blob("scn:corridor+prepass+sorted", 9, 2),
    )
    .expect("write scenario trace");
    dir
}

#[test]
fn csv_and_html_are_byte_identical_across_invocations() {
    let dir = campaign_dir("stable");
    let mut renders = Vec::new();
    for _ in 0..3 {
        let index = scan(&dir).expect("scan");
        assert_eq!(index.runs.len(), 4, "three campaign runs plus the bare scenario trace");
        assert!(index.skipped.is_empty());
        let report = aggregate(&index);
        renders.push((csv(&report), html(&report)));
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[1], renders[2]);
    assert!(renders[0].0.starts_with(CSV_HEADER));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn report_covers_every_run_group_and_stage_chart() {
    let dir = campaign_dir("coverage");
    let index = scan(&dir).expect("scan");
    let report = aggregate(&index);
    let text = csv(&report);
    assert_eq!(text.lines().filter(|l| l.starts_with("run,")).count(), 4);
    // Groups: GameA/demo, GameB/demo, scn:corridor+prepass+sorted.
    assert_eq!(text.lines().filter(|l| l.starts_with("group,")).count(), 3);
    assert!(
        text.lines().any(|l| l.starts_with("group,GameA/demo,") && l.contains(",2,2,")),
        "GameA group spans 2 runs over 2 configs"
    );
    let page = html(&report);
    for stage in ATTRIBUTION_STAGES {
        assert!(
            page.contains(&format!("id=\"stage-{}\"", stage.name())),
            "dashboard is missing a chart for {}",
            stage.name()
        );
    }
    assert!(page.contains("scn:corridor+prepass+sorted"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_replicas_surface_as_divergent_not_errors() {
    let dir = campaign_dir("diverge");
    // A second copy of job-000 under the same manifest key but with
    // different bytes: write it as job-000 in a sibling dir sharing the
    // manifest metadata via its own manifest.
    fs::create_dir_all(dir.join("replica")).expect("mkdir");
    fs::write(
        dir.join("replica/job-000.trace.bin"),
        trace_blob("GameA/demo", 3, 2), // different seed input → different bytes
    )
    .expect("write");
    fs::write(
        dir.join("replica/campaign.json"),
        r#"{"format": "gwc-campaign", "version": 2, "jobs": [
            {"trace": "job-000.trace.bin",
             "config": {"width": 64, "height": 48, "sim_frames": 2, "seed": 1}}
        ]}"#,
    )
    .expect("write manifest");
    let index = scan(&dir).expect("scan");
    let report = aggregate(&index);
    assert_eq!(report.divergent, vec!["GameA/demo@64x48/f2#1".to_owned()]);
    let text = csv(&report);
    assert!(text.contains("# divergent: GameA/demo@64x48/f2#1"));
    let _ = fs::remove_dir_all(&dir);
}
