//! Golden-table regression suite for the three primary demos.
//!
//! The paper's central characterization (Tables VII, IX and XI, plus the
//! cache/bandwidth numbers feeding Tables XIII–XVI) is reproduced by a
//! *seeded* pipeline, so the metrics below are deterministic: any drift
//! means a behavioural change in the simulator, not noise. The pinned
//! values were measured at the suite's own test-sized configuration (the
//! full-resolution numbers are in `EXPERIMENTS.md`, from `repro all
//! --paper`); the cross-demo *shape* they encode is the paper's — Doom3-engine games burn
//! quads on color-masked stencil work and ~24× raster overdraw collapses
//! to ~4.4 after HZ/Z, while UT2004-style content blends instead.
//!
//! On mismatch the suite writes `target/golden-table-diff.txt` (one line
//! per drifted metric: expected vs actual, from every failing test of the
//! suite) so CI can upload the diff as an artifact, then fails with the
//! same summary.

use std::sync::Mutex;

use gwc::mem::MemClient;
use gwc::pipeline::{FrameSimStats, Gpu, GpuConfig};
use gwc::workloads::{GameProfile, Timedemo, TimedemoConfig};

/// The seeded repro path: same seed as `repro`/`gwc-bench` (0x5EED).
fn simulate(name: &str, frames: u32, config: GpuConfig) -> Gpu {
    let profile = GameProfile::by_name(name).expect("Table I demo");
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames, seed: 0x5EED });
    let mut gpu = Gpu::new(config);
    demo.emit_all(&mut gpu);
    gpu
}

/// Expected metrics for one demo at the suite configuration
/// (3 frames, 256×192, seed 0x5EED).
struct Golden {
    demo: &'static str,
    /// Table VII: clipped / culled / traversed triangle fractions.
    tri_fates: [f64; 3],
    /// Table IX: HZ / Z&stencil / alpha / colormask / blend quad fractions.
    quad_fates: [f64; 5],
    /// Table XI: overdraw at raster / Z&stencil / shading / blending.
    overdraw: [f64; 4],
    /// Fig 5: post-transform vertex cache hit rate.
    vcache_hit: f64,
    /// Geometry front-end counters, pinned *exactly* (they are integer
    /// sums, so even off-by-one drift is a behavioural change): indices
    /// fetched, vertex-cache hits, vertices shaded, triangles assembled,
    /// clipped, culled, and traversed (setup).
    geometry: [u64; 7],
    /// Table XIII: dynamic bilinear samples per texture request.
    bilinears_per_request: f64,
    /// Table XVI: Z&stencil / texture / color shares of memory traffic.
    bw_split: [f64; 3],
}

/// Pinned from the seeded run. Tolerance is deliberately tight (±1%
/// relative): the pipeline is deterministic, so anything beyond floating
/// noise is a real behavioural change that must be re-justified (and the
/// EXPERIMENTS.md narrative re-checked) before re-pinning.
const GOLDEN: &[Golden] = &[
    Golden {
        demo: "Doom3/trdemo2",
        tri_fates: [0.351070, 0.248815, 0.400116],
        quad_fates: [0.405112, 0.106981, 0.0, 0.315039, 0.172868],
        overdraw: [28.649068, 18.104438, 4.294468, 4.294468],
        vcache_hit: 0.645677,
        geometry: [435264, 281040, 154224, 145088, 50936, 36100, 58052],
        bilinears_per_request: 3.097169,
        bw_split: [0.134570, 0.282486, 0.120844],
    },
    Golden {
        demo: "Quake4/demo4",
        tri_fates: [0.497508, 0.265981, 0.236511],
        quad_fates: [0.358502, 0.137876, 0.0, 0.310864, 0.192757],
        overdraw: [24.883247, 16.711046, 4.209947, 4.209947],
        vcache_hit: 0.626947,
        geometry: [524880, 329072, 195808, 174960, 87044, 46536, 41380],
        bilinears_per_request: 3.081482,
        bw_split: [0.114038, 0.232140, 0.105491],
    },
    Golden {
        demo: "Riddick/PrisonArea",
        tri_fates: [0.390838, 0.289860, 0.319302],
        quad_fates: [0.492879, 0.099756, 0.0, 0.0, 0.407365],
        overdraw: [6.861518, 3.337836, 2.642314, 2.642314],
        vcache_hit: 0.634301,
        geometry: [797940, 506134, 291806, 265980, 103955, 77097, 84928],
        bilinears_per_request: 1.935588,
        bw_split: [0.039255, 0.093050, 0.085995],
    },
];

const FRAMES: u32 = 3;
const WIDTH: u32 = 256;
const HEIGHT: u32 = 192;
/// Relative tolerance; values this close to pinned pass.
const REL_TOL: f64 = 0.01;
/// Absolute floor for metrics pinned near zero.
const ABS_TOL: f64 = 0.002;

/// Drift lines of every failed test in this run; the tests run in
/// parallel, so each failure rewrites the diff file with all of them.
static DRIFT: Mutex<Vec<String>> = Mutex::new(Vec::new());

struct Report {
    lines: Vec<String>,
}

impl Report {
    fn check(&mut self, demo: &str, metric: &str, expected: f64, actual: f64) {
        let tol = ABS_TOL.max(expected.abs() * REL_TOL);
        if (actual - expected).abs() > tol {
            self.lines.push(format!(
                "{demo}: {metric}: expected {expected:.6} ± {tol:.6}, measured {actual:.6}"
            ));
        }
    }

    fn check_exact(&mut self, demo: &str, metric: &str, expected: u64, actual: u64) {
        if actual != expected {
            self.lines
                .push(format!("{demo}: {metric}: expected exactly {expected}, measured {actual}"));
        }
    }

    fn check_geometry(&mut self, demo: &str, expected: &[u64; 7], t: &FrameSimStats) {
        for (name, expected, actual) in [
            ("geometry/indices", expected[0], t.indices),
            ("geometry/vcache_hits", expected[1], t.vcache_hits),
            ("geometry/shaded_vertices", expected[2], t.shaded_vertices),
            ("geometry/assembled", expected[3], t.assembled),
            ("geometry/clipped", expected[4], t.clipped),
            ("geometry/culled", expected[5], t.culled),
            ("geometry/traversed", expected[6], t.traversed),
        ] {
            self.check_exact(demo, name, expected, actual);
        }
    }

    /// Passes if nothing drifted; otherwise writes the diff artifact and
    /// fails with the same lines.
    fn finish(self) {
        if self.lines.is_empty() {
            return;
        }
        let body = self.lines.join("\n");
        let mut all = DRIFT.lock().unwrap_or_else(|e| e.into_inner());
        all.extend(self.lines);
        // Best-effort artifact for CI; the panic below carries the same
        // information either way.
        let path = std::path::Path::new("target").join("golden-table-diff.txt");
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write(&path, format!("{}\n", all.join("\n")));
        drop(all);
        panic!(
            "{} golden-table metric(s) drifted (diff written to {}):\n{body}",
            body.lines().count(),
            path.display()
        );
    }
}

#[test]
fn golden_tables_hold() {
    let mut report = Report { lines: Vec::new() };
    for golden in GOLDEN {
        let gpu = simulate(golden.demo, FRAMES, GpuConfig::r520(WIDTH, HEIGHT));
        let t = gpu.stats().totals();
        let pixels = WIDTH as u64 * HEIGHT as u64 * FRAMES as u64;

        let (clip, cull, trav) = t.triangle_fates();
        for (name, expected, actual) in [
            ("table7/clipped", golden.tri_fates[0], clip),
            ("table7/culled", golden.tri_fates[1], cull),
            ("table7/traversed", golden.tri_fates[2], trav),
        ] {
            report.check(golden.demo, name, expected, actual);
        }

        let (hz, zst, alpha, mask, blend) = t.quad_fates();
        for (name, expected, actual) in [
            ("table9/hz", golden.quad_fates[0], hz),
            ("table9/zstencil", golden.quad_fates[1], zst),
            ("table9/alpha", golden.quad_fates[2], alpha),
            ("table9/colormask", golden.quad_fates[3], mask),
            ("table9/blend", golden.quad_fates[4], blend),
        ] {
            report.check(golden.demo, name, expected, actual);
        }

        let (od_r, od_z, od_s, od_b) = t.overdraw(pixels);
        for (name, expected, actual) in [
            ("table11/raster", golden.overdraw[0], od_r),
            ("table11/zstencil", golden.overdraw[1], od_z),
            ("table11/shading", golden.overdraw[2], od_s),
            ("table11/blending", golden.overdraw[3], od_b),
        ] {
            report.check(golden.demo, name, expected, actual);
        }

        report.check(golden.demo, "fig5/vcache_hit", golden.vcache_hit, t.vertex_cache_hit_rate());
        report.check_geometry(golden.demo, &golden.geometry, t);
        report.check(
            golden.demo,
            "table13/bilinears_per_request",
            golden.bilinears_per_request,
            t.bilinears_per_request(),
        );

        let traffic = gpu.memory().total();
        for (name, expected, client) in [
            ("table16/zstencil_share", golden.bw_split[0], MemClient::ZStencil),
            ("table16/texture_share", golden.bw_split[1], MemClient::Texture),
            ("table16/color_share", golden.bw_split[2], MemClient::Color),
        ] {
            report.check(golden.demo, name, expected, traffic.share(client));
        }
    }
    report.finish();
}

/// Exact memory traffic of one configuration of [`write_back_bytes_hold`].
struct BytesGolden {
    label: &'static str,
    /// The configuration, derived from `GpuConfig::r520` at the pin's
    /// resolution.
    config: fn(GpuConfig) -> GpuConfig,
    /// Per-client `(read, written)` bytes over the run, in
    /// `MemClient::ALL` order (Vertex, Z&Stencil, Texture, Color, DAC, CP).
    bytes: [(u64, u64); 6],
    /// The geometry counters, in the order of [`Golden::geometry`], where
    /// the configuration changes them.
    geometry: Option<[u64; 7]>,
}

/// The write-back pin runs one Doom3/trdemo2 frame at a wide, short
/// target: 40 blocks per block row overflow a stripe's 64-line Z and
/// color caches even at 16-row stripes, so dirty lines leave both by
/// eviction and by the end-of-frame flush, and 48 rows leave a short last
/// stripe at the default 32-row stripes.
const BYTES_DEMO: &str = "Doom3/trdemo2";
const BYTES_FRAMES: u32 = 1;
const BYTES_WIDTH: u32 = 320;
const BYTES_HEIGHT: u32 = 48;

/// The configurations that steer the Z and color write-back paths: the
/// default, compression off (every write-back is a raw 256-byte block), a
/// 4-entry vertex cache, and 16-row stripes.
const WRITE_BACK: &[BytesGolden] = &[
    BytesGolden {
        label: "r520",
        config: |c| c,
        bytes: [
            (2501568, 0),
            (225024, 274688),
            (2574912, 0),
            (178240, 208576),
            (30336, 0),
            (95552, 3577096),
        ],
        geometry: None,
    },
    BytesGolden {
        label: "compression off",
        config: |c| GpuConfig { z_compression: false, color_compression: false, ..c },
        bytes: [
            (2501568, 0),
            (330240, 330240),
            (2574912, 0),
            (281344, 281344),
            (61440, 0),
            (95552, 3577096),
        ],
        geometry: None,
    },
    BytesGolden {
        label: "vertex cache 4",
        config: |c| GpuConfig { vertex_cache_entries: 4, ..c },
        bytes: [
            (2632128, 0),
            (225024, 274688),
            (2574912, 0),
            (178240, 208576),
            (30336, 0),
            (95552, 3577096),
        ],
        geometry: Some([137472, 85416, 52056, 45824, 14468, 12016, 19340]),
    },
    BytesGolden {
        label: "16-row stripes",
        config: |c| GpuConfig { stripe_rows: 16, ..c },
        bytes: [
            (2501568, 0),
            (169408, 219072),
            (2595328, 0),
            (144512, 174848),
            (30336, 0),
            (95552, 3577096),
        ],
        geometry: None,
    },
];

/// Exact memory traffic per client under each [`WRITE_BACK`]
/// configuration. The Table XVI checks above pin only shares, at ±1 %;
/// these are integer sums, so any drift is a behavioural change.
#[test]
fn write_back_bytes_hold() {
    let base = GpuConfig::r520(BYTES_WIDTH, BYTES_HEIGHT);
    // Each configuration is its own simulation; run them side by side.
    let gpus: Vec<Gpu> = std::thread::scope(|s| {
        let runs: Vec<_> = WRITE_BACK
            .iter()
            .map(|g| s.spawn(move || simulate(BYTES_DEMO, BYTES_FRAMES, (g.config)(base))))
            .collect();
        runs.into_iter().map(|r| r.join().expect("simulation panicked")).collect()
    });
    let mut report = Report { lines: Vec::new() };
    for (golden, gpu) in WRITE_BACK.iter().zip(gpus) {
        let demo = format!("{BYTES_DEMO} [{}]", golden.label);
        let traffic = gpu.memory().total();
        for (client, &(read, written)) in MemClient::ALL.into_iter().zip(&golden.bytes) {
            let t = traffic.client(client);
            report.check_exact(&demo, &format!("bytes/{}/read", client.name()), read, t.read);
            report.check_exact(&demo, &format!("bytes/{}/written", client.name()), written, t.written);
        }
        if let Some(geometry) = &golden.geometry {
            report.check_geometry(&demo, geometry, gpu.stats().totals());
        }
    }
    report.finish();
}
