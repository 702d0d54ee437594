//! Renderers for every table of the paper's evaluation.
//!
//! Each function takes the [`Study`] and returns a [`Table`] whose rows
//! correspond one-to-one with the paper's table of the same number.

use gwc_mem::{CacheConfig, MemClient};
use gwc_pipeline::GpuConfig;
use gwc_stats::bandwidth::{self, system_bus_table};
use gwc_stats::{fmt_f, fmt_pct, Table};

use crate::{GameCharacterization, Study};

fn pct(x: f64) -> String {
    fmt_pct(x, 1)
}

/// Table I: game workload description.
pub fn table1(study: &Study) -> Table {
    let mut t = Table::new(
        "Table I — Game workload description",
        &["Game/Timedemo", "# Frames", "Duration @30fps", "Texture quality", "Aniso", "Shaders", "API", "Engine", "Release"],
    );
    for g in &study.games {
        let p = g.profile;
        t.row(vec![
            p.name.into(),
            p.frames.to_string(),
            p.duration.into(),
            p.texture_quality.into(),
            p.aniso.map_or("-".into(), |a| format!("{a}X")),
            if p.uses_shaders { "YES" } else { "NO" }.into(),
            p.api.name().into(),
            p.engine.into(),
            p.release.into(),
        ]);
    }
    t
}

/// Table II: simulator configuration vs the reference R520.
pub fn table2(_study: &Study) -> Table {
    let mut t = Table::new("Table II — ATTILA configuration", &["Parameter", "R520", "Simulator"]);
    for (param, r520, sim) in GpuConfig::table2_rows() {
        t.row(vec![param, r520, sim]);
    }
    t
}

/// Table III: average indices per batch and frame, index width, bus
/// bandwidth at 100 fps — measured from the generated API stream.
pub fn table3(study: &Study) -> Table {
    let mut t = Table::new(
        "Table III — Average indices per batch and frame and total BW",
        &["Game/Timedemo", "idx/batch", "idx/frame", "B/idx", "BW@100fps"],
    );
    t.numeric();
    for g in &study.games {
        let bw = bandwidth::mb_per_second(g.api.avg_index_bytes_per_frame(), 100.0);
        t.row(vec![
            g.profile.name.into(),
            fmt_f(g.api.avg_indices_per_batch(), 0),
            fmt_f(g.api.avg_indices_per_frame(), 0),
            g.profile.index_bytes.to_string(),
            format!("{bw:.0} MB/s"),
        ]);
    }
    t
}

/// Table IV: average vertex shader instructions (index-weighted), with
/// Oblivion's two execution regions reported separately.
pub fn table4(study: &Study) -> Table {
    let mut t = Table::new(
        "Table IV — Average vertex shader instructions",
        &["Game/Timedemo", "Avg VS instructions"],
    );
    t.numeric();
    for g in &study.games {
        let cell = if g.profile.vs_instructions_region2.is_some() {
            let series = g.api.vs_instructions_per_frame();
            let half = series.len() / 2;
            format!(
                "Reg1: {:.2} / Reg2: {:.2}",
                series.mean_range(0, half),
                series.mean_range(half, series.len())
            )
        } else {
            fmt_f(g.api.avg_vertex_instructions(), 2)
        };
        t.row(vec![g.profile.name.into(), cell]);
    }
    t
}

/// Table V: primitive utilization.
pub fn table5(study: &Study) -> Table {
    let mut t = Table::new(
        "Table V — Primitive utilization",
        &["Game/Timedemo", "TL", "TS", "TF", "Avg prims/frame"],
    );
    t.numeric();
    for g in &study.games {
        let (tl, ts, tf) = g.api.primitive_shares();
        let dash = |x: f64| if x < 0.0005 { "-".into() } else { pct(x) };
        t.row(vec![
            g.profile.name.into(),
            dash(tl),
            dash(ts),
            dash(tf),
            fmt_f(g.api.avg_primitives_per_frame(), 0),
        ]);
    }
    t
}

/// Table VI: theoretical system bus bandwidths.
pub fn table6(_study: &Study) -> Table {
    let mut t = Table::new(
        "Table VI — Current system bus BWs",
        &["Bus", "Width", "Bus speed", "Bus BW"],
    );
    for (name, width_bits, mhz, bytes_per_s) in system_bus_table() {
        t.row(vec![
            name.into(),
            format!("{width_bits} bits"),
            format!("{mhz:.0} MHz"),
            format!("{:.3} GB/s", bytes_per_s / 1e9),
        ]);
    }
    t
}

fn simulated_rows(study: &Study) -> impl Iterator<Item = &GameCharacterization> {
    study.simulated()
}

/// Table VII: percentage of clipped, culled and traversed triangles.
pub fn table7(study: &Study) -> Table {
    let mut t = Table::new(
        "Table VII — Percentage of clipped, culled and traversed triangles",
        &["Game/Timedemo", "% clipped", "% culled", "% traversed"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let (c, k, tr) = sim.stats.totals().triangle_fates();
        t.row(vec![g.profile.name.into(), pct(c), pct(k), pct(tr)]);
    }
    t
}

/// Table VIII: average triangle size in fragments at each stage.
pub fn table8(study: &Study) -> Table {
    let mut t = Table::new(
        "Table VIII — Average triangle size (in fragments)",
        &["Game/Timedemo", "Raster", "Z&Stencil", "Shading", "Blending"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let (r, z, s, b) = sim.stats.totals().triangle_sizes();
        t.row(vec![
            g.profile.name.into(),
            fmt_f(r, 0),
            fmt_f(z, 0),
            fmt_f(s, 0),
            fmt_f(b, 0),
        ]);
    }
    t
}

/// Table IX: percentage of removed or processed quads at each stage.
pub fn table9(study: &Study) -> Table {
    let mut t = Table::new(
        "Table IX — Percentage of removed or processed quads at each stage",
        &["Game/Timedemo", "HZ", "Z&Stencil", "Alpha", "Color Mask", "Blending"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let (hz, zst, alpha, mask, blend) = sim.stats.totals().quad_fates();
        t.row(vec![
            g.profile.name.into(),
            pct(hz),
            pct(zst),
            pct(alpha),
            pct(mask),
            pct(blend),
        ]);
    }
    t
}

/// Table X: quad efficiency (% complete quads).
pub fn table10(study: &Study) -> Table {
    let mut t = Table::new(
        "Table X — Quad efficiency (% complete quads)",
        &["Game/Timedemo", "Raster", "Z&Stencil"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let (r, z) = sim.stats.totals().quad_efficiency();
        t.row(vec![g.profile.name.into(), pct(r), pct(z)]);
    }
    t
}

/// Table XI: average overdraw per pixel and stage.
pub fn table11(study: &Study) -> Table {
    let mut t = Table::new(
        "Table XI — Average overdraw per pixel and stage",
        &["Game/Timedemo", "Raster", "Z&Stencil", "Shading", "Blending"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let frames = sim.stats.frames().len() as u64;
        let (r, z, s, b) = sim.stats.totals().overdraw(sim.pixels() * frames.max(1));
        t.row(vec![
            g.profile.name.into(),
            fmt_f(r, 2),
            fmt_f(z, 2),
            fmt_f(s, 2),
            fmt_f(b, 2),
        ]);
    }
    t
}

/// Table XII: fragment program instructions, texture instructions and the
/// ALU-to-texture ratio.
pub fn table12(study: &Study) -> Table {
    let mut t = Table::new(
        "Table XII — Avg. instructions, texture instructions and ALU:TEX ratio",
        &["Game/Timedemo", "Instructions", "Texture instructions", "ALU:TEX"],
    );
    t.numeric();
    for g in &study.games {
        t.row(vec![
            g.profile.name.into(),
            fmt_f(g.api.avg_fragment_instructions(), 2),
            fmt_f(g.api.avg_fragment_tex_instructions(), 2),
            fmt_f(g.api.alu_tex_ratio(), 2),
        ]);
    }
    t
}

/// Table XIII: dynamic bilinear samples per request and ALU per bilinear.
pub fn table13(study: &Study) -> Table {
    let mut t = Table::new(
        "Table XIII — Average bilinear samples and ALU-to-bilinear ratio",
        &["Game/Timedemo", "Bilinears/request", "ALU instr/bilinear"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let totals = sim.stats.totals();
        t.row(vec![
            g.profile.name.into(),
            fmt_f(totals.bilinears_per_request(), 2),
            fmt_f(totals.alu_per_bilinear(), 2),
        ]);
    }
    t
}

/// Table XIV: cache configuration and hit rates.
pub fn table14(study: &Study) -> Table {
    let sims: Vec<&GameCharacterization> = simulated_rows(study).collect();
    let mut headers = vec!["Cache".to_string(), "Size".to_string(), "Way/Line".to_string()];
    for g in &sims {
        headers.push(g.profile.name.to_string());
    }
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Table XIV — Cache configuration and hit rate", &headers_ref);
    type HitRate = Box<dyn Fn(&crate::SimResults) -> f64>;
    let caches: [(&str, CacheConfig, HitRate); 4] = [
        ("Z&Stencil", CacheConfig::Z_STENCIL, Box::new(|s| s.z_cache.hit_rate())),
        ("Texture L0", CacheConfig::TEXTURE_L0, Box::new(|s| s.tex_l0.hit_rate())),
        ("Texture L1", CacheConfig::TEXTURE_L1, Box::new(|s| s.tex_l1.hit_rate())),
        ("Color", CacheConfig::COLOR, Box::new(|s| s.color_cache.hit_rate())),
    ];
    for (name, geometry, rate) in caches {
        let mut row = vec![
            name.to_string(),
            format!("{} KB", geometry.capacity() / 1024),
            format!("{}w x {}s x {}B", geometry.ways, geometry.sets, geometry.line_size),
        ];
        for g in &sims {
            row.push(pct(rate(g.sim.as_ref().unwrap())));
        }
        t.row(row);
    }
    t
}

/// Table XV: average memory usage profile.
pub fn table15(study: &Study) -> Table {
    let mut t = Table::new(
        "Table XV — Average memory usage profile",
        &["Game/Timedemo", "MB/frame", "%Read", "%Write", "BW@100fps"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let total = sim.total_traffic();
        let read_share = if total.total() == 0 {
            0.0
        } else {
            total.total_read() as f64 / total.total() as f64
        };
        let mb = sim.mean_bytes_per_frame() / bandwidth::MB;
        t.row(vec![
            g.profile.name.into(),
            fmt_f(mb, 0),
            pct(read_share),
            pct(1.0 - read_share),
            format!("{:.0} GB/s", bandwidth::gb_per_second(sim.mean_bytes_per_frame(), 100.0)),
        ]);
    }
    t
}

/// Table XVI: memory traffic distribution per GPU stage.
pub fn table16(study: &Study) -> Table {
    let mut t = Table::new(
        "Table XVI — Memory traffic distribution per GPU stage",
        &["Game/Timedemo", "Vertex", "Z&Stencil", "Texture", "Color", "DAC", "CP"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let total = sim.total_traffic();
        let mut row = vec![g.profile.name.to_string()];
        for client in MemClient::ALL {
            row.push(pct(total.share(client)));
        }
        t.row(row);
    }
    t
}

/// Table XVII: bytes read/written per shaded vertex and per fragment at
/// the z & stencil, shading (texture) and color stages.
pub fn table17(study: &Study) -> Table {
    let mut t = Table::new(
        "Table XVII — Bytes per vertex and fragment",
        &["Game/Timedemo", "Vertex", "Z&Stencil", "Shaded", "Color"],
    );
    t.numeric();
    for g in simulated_rows(study) {
        let sim = g.sim.as_ref().unwrap();
        let total = sim.total_traffic();
        // Steady-state counters matching the steady memory window.
        let stats: gwc_pipeline::FrameSimStats = {
            let mut acc = gwc_pipeline::FrameSimStats::default();
            let frames = sim.stats.frames();
            let skip = usize::from(frames.len() > 1);
            for f in &frames[skip..] {
                acc.merge(f);
            }
            acc
        };
        let per = |bytes: u64, count: u64| {
            if count == 0 {
                "-".to_string()
            } else {
                fmt_f(bytes as f64 / count as f64, 2)
            }
        };
        t.row(vec![
            g.profile.name.into(),
            per(total.client(MemClient::Vertex).total(), stats.shaded_vertices),
            per(total.client(MemClient::ZStencil).total(), stats.frags_zst),
            per(total.client(MemClient::Texture).total(), stats.frags_shaded),
            per(total.client(MemClient::Color).total(), stats.frags_blended),
        ]);
    }
    t
}

/// All tables in order, for the `repro all` harness.
pub fn all_tables(study: &Study) -> Vec<Table> {
    vec![
        table1(study),
        table2(study),
        table3(study),
        table4(study),
        table5(study),
        table6(study),
        table7(study),
        table8(study),
        table9(study),
        table10(study),
        table11(study),
        table12(study),
        table13(study),
        table14(study),
        table15(study),
        table16(study),
        table17(study),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_study, RunConfig};

    fn quick_study() -> Study {
        run_study(&RunConfig { api_frames: 4, sim_frames: 2, width: 96, height: 72, seed: 5 })
    }

    #[test]
    fn all_tables_render() {
        let study = quick_study();
        let tables = all_tables(&study);
        assert_eq!(tables.len(), 17);
        for t in &tables {
            let ascii = t.to_ascii();
            assert!(ascii.contains("Table"), "missing title: {ascii}");
            assert!(!t.is_empty(), "{} has no rows", t.title());
            // CSV renders too.
            assert!(t.to_csv().lines().count() >= 2);
        }
    }

    #[test]
    fn api_tables_have_twelve_rows() {
        let study = quick_study();
        for t in [table1(&study), table3(&study), table4(&study), table5(&study), table12(&study)] {
            assert_eq!(t.len(), 12, "{}", t.title());
        }
    }

    #[test]
    fn sim_tables_have_three_rows() {
        let study = quick_study();
        for t in [
            table7(&study),
            table8(&study),
            table9(&study),
            table10(&study),
            table11(&study),
            table13(&study),
            table15(&study),
            table16(&study),
            table17(&study),
        ] {
            assert_eq!(t.len(), 3, "{}", t.title());
        }
        assert_eq!(table14(&study).len(), 4); // one row per cache
    }

    #[test]
    fn table6_static_content() {
        let study = quick_study();
        let t = table6(&study);
        let csv = t.to_csv();
        assert!(csv.contains("AGP 8X"));
        assert!(csv.contains("PCI Express x16"));
    }
}
