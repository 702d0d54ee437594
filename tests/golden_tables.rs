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
//! per drifted metric: expected vs actual) so CI can upload the diff as an
//! artifact, then fails with the same summary.

use gwc::mem::MemClient;
use gwc::pipeline::{Gpu, GpuConfig};
use gwc::workloads::{GameProfile, Timedemo, TimedemoConfig};

/// The seeded repro path: same seed as `repro`/`gwc-bench` (0x5EED).
fn simulate(name: &str, frames: u32, width: u32, height: u32) -> Gpu {
    let profile = GameProfile::by_name(name).expect("Table I demo");
    let mut demo = Timedemo::new(profile, TimedemoConfig { frames, seed: 0x5EED });
    let mut gpu = Gpu::new(GpuConfig::r520(width, height));
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
}

#[test]
fn golden_tables_hold() {
    let mut report = Report { lines: Vec::new() };
    for golden in GOLDEN {
        let gpu = simulate(golden.demo, FRAMES, WIDTH, HEIGHT);
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
        for (name, expected, actual) in [
            ("geometry/indices", golden.geometry[0], t.indices),
            ("geometry/vcache_hits", golden.geometry[1], t.vcache_hits),
            ("geometry/shaded_vertices", golden.geometry[2], t.shaded_vertices),
            ("geometry/assembled", golden.geometry[3], t.assembled),
            ("geometry/clipped", golden.geometry[4], t.clipped),
            ("geometry/culled", golden.geometry[5], t.culled),
            ("geometry/traversed", golden.geometry[6], t.traversed),
        ] {
            report.check_exact(golden.demo, name, expected, actual);
        }
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

    if !report.lines.is_empty() {
        let body = report.lines.join("\n");
        // Best-effort artifact for CI; the assertion below carries the
        // same information either way.
        let path = std::path::Path::new("target").join("golden-table-diff.txt");
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write(&path, format!("{body}\n"));
        panic!(
            "{} golden-table metric(s) drifted (diff written to {}):\n{body}",
            report.lines.len(),
            path.display()
        );
    }
}
