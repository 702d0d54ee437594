//! Deterministic report rendering: CSV and a self-contained HTML
//! dashboard.
//!
//! Both renderers are pure functions of the [`Report`]; the aggregation
//! layer already sorted everything and the formatting here is
//! fixed-precision, so the emitted bytes are identical across re-runs,
//! thread counts, and machines. The dashboard is one file with inline
//! CSS and hand-rolled SVG charts — no external assets, it opens from
//! `file://` or straight off the daemon.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::aggregate::{GroupReport, Report, RunReport, ATTRIBUTION_STAGES, CACHE_NAMES};

/// The CSV header row. Run rows (`kind=run`) leave the group-only
/// columns (`runs`, `configs`, the `*_spread_pct` sensitivity columns)
/// empty; group rows (`kind=group`) leave the run-only columns empty.
pub const CSV_HEADER: &str = "kind,workload,config,seed,trace,runs,configs,frames,ticks,spans,\
                              dropped,bottleneck,bottleneck_share,share_draw,share_geometry,\
                              share_raster,share_hiz,share_zstencil,share_shade,share_blend,\
                              z_hit_pct,color_hit_pct,tex_l0_hit_pct,tex_l1_hit_pct,\
                              z_spread_pct,color_spread_pct,tex_l0_spread_pct,tex_l1_spread_pct,\
                              nearest,distance";

/// Quotes a CSV field if it contains a comma, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

fn shares_csv(shares: &[f64; 7]) -> String {
    shares.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(",")
}

fn run_row(run: &RunReport, report: &Report) -> String {
    let (nearest, distance) = report
        .rankings
        .iter()
        .find(|r| r.label == run.label)
        .map_or(("-".to_owned(), String::new()), |r| {
            (r.nearest.clone(), format!("{:.6}", r.distance))
        });
    format!(
        "run,{},{},{},{},,,{},{},{},{},{},{:.4},{},{:.2},{:.2},{:.2},{:.2},,,,,{},{}",
        csv_field(&run.workload),
        csv_field(&run.config),
        run.seed.map(|s| s.to_string()).unwrap_or_default(),
        csv_field(&run.rel_path),
        run.frames,
        run.end_tick,
        run.spans,
        run.dropped,
        csv_field(&run.bottleneck),
        run.bottleneck_share,
        shares_csv(&run.stage_share),
        run.cache_hit_pct[0],
        run.cache_hit_pct[1],
        run.cache_hit_pct[2],
        run.cache_hit_pct[3],
        csv_field(&nearest),
        distance,
    )
}

fn group_row(group: &GroupReport) -> String {
    format!(
        "group,{},*,,,{},{},,,,,{},{:.4},{},,,,,{:.2},{:.2},{:.2},{:.2},-,",
        csv_field(&group.workload),
        group.runs,
        group.configs,
        csv_field(&group.bottleneck),
        group.bottleneck_share,
        shares_csv(&group.stage_share),
        group.cache_spread_pct[0],
        group.cache_spread_pct[1],
        group.cache_spread_pct[2],
        group.cache_spread_pct[3],
    )
}

/// Renders the deterministic CSV report. Data rows first (runs, then
/// groups), then `#`-prefixed trailer comments for divergent replica
/// keys and skipped files — comment lines so naive CSV loaders that
/// ignore `#` still parse the table.
pub fn csv(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(CSV_HEADER);
    out.push('\n');
    for run in &report.runs {
        out.push_str(&run_row(run, report));
        out.push('\n');
    }
    for group in &report.groups {
        out.push_str(&group_row(group));
        out.push('\n');
    }
    for key in &report.divergent {
        let _ = writeln!(out, "# divergent: {key}");
    }
    for s in &report.skipped {
        let _ = writeln!(out, "# skipped {}: {}", s.rel_path, s.reason);
    }
    out
}

/// Escapes text for HTML body and attribute positions.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// One SVG bar chart: a bar per run showing that stage's occupied-tick
/// share. Heights are normalized to the tallest bar in the chart.
fn stage_chart(out: &mut String, stage_index: usize, report: &Report) {
    let stage = ATTRIBUTION_STAGES[stage_index];
    let shares: Vec<f64> = report.runs.iter().map(|r| r.stage_share[stage_index]).collect();
    let peak = shares.iter().cloned().fold(0.0f64, f64::max);
    let bar_w = 22;
    let gap = 6;
    let chart_h = 120;
    let width = (report.runs.len() * (bar_w + gap) + gap).max(120);
    let _ = writeln!(
        out,
        "<section class=\"chart\" id=\"stage-{name}\"><h3>{name}</h3>\
         <svg width=\"{width}\" height=\"{h}\" role=\"img\" aria-label=\"{name} share per run\">",
        name = stage.name(),
        h = chart_h + 20,
    );
    for (i, (share, run)) in shares.iter().zip(&report.runs).enumerate() {
        let frac = if peak > 0.0 { share / peak } else { 0.0 };
        let bar_h = (frac * f64::from(chart_h)).round() as u32;
        let x = gap + i * (bar_w + gap);
        let y = chart_h as u32 - bar_h;
        let _ = writeln!(
            out,
            "<rect x=\"{x}\" y=\"{y}\" width=\"{bar_w}\" height=\"{bar_h}\" class=\"bar\">\
             <title>{label}: {share:.4}</title></rect>",
            label = esc(&run.label),
        );
    }
    let _ = writeln!(out, "</svg><p class=\"peak\">peak share {peak:.4}</p></section>");
}

fn table_row(out: &mut String, cells: &[String], header: bool) {
    let tag = if header { "th" } else { "td" };
    out.push_str("<tr>");
    for c in cells {
        let _ = write!(out, "<{tag}>{c}</{tag}>");
    }
    out.push_str("</tr>\n");
}

/// Renders the self-contained single-file HTML dashboard: inline CSS,
/// inline SVG, zero external requests.
pub fn html(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>gwc analyze dashboard</title>\n<style>\n\
         body{font-family:monospace;margin:1.5em;background:#fafafa;color:#222}\n\
         h1,h2,h3{font-weight:600}\n\
         table{border-collapse:collapse;margin:1em 0}\n\
         th,td{border:1px solid #bbb;padding:2px 8px;text-align:right}\n\
         th:first-child,td:first-child{text-align:left}\n\
         .charts{display:flex;flex-wrap:wrap;gap:1em}\n\
         .chart{border:1px solid #ddd;padding:0.5em;background:#fff}\n\
         .bar{fill:#4a7aa7}\n\
         .peak{margin:0;color:#666}\n\
         .warn{color:#a33}\n\
         </style>\n</head>\n<body>\n<h1>gwc analyze</h1>\n",
    );
    let _ = writeln!(
        out,
        "<p>{} runs · {} workload groups · {} skipped · {} divergent replica keys</p>",
        report.runs.len(),
        report.groups.len(),
        report.skipped.len(),
        report.divergent.len(),
    );

    out.push_str("<h2>Occupied-tick share per stage</h2>\n<div class=\"charts\">\n");
    for i in 0..ATTRIBUTION_STAGES.len() {
        stage_chart(&mut out, i, report);
    }
    out.push_str("</div>\n");

    out.push_str("<h2>Workload groups</h2>\n<table>\n");
    let mut header: Vec<String> =
        ["workload", "runs", "configs", "bottleneck", "share"].map(String::from).to_vec();
    header.extend(CACHE_NAMES.iter().map(|c| format!("{c} spread %")));
    table_row(&mut out, &header, true);
    for g in &report.groups {
        let mut cells = vec![
            esc(&g.workload),
            g.runs.to_string(),
            g.configs.to_string(),
            esc(&g.bottleneck),
            format!("{:.4}", g.bottleneck_share),
        ];
        cells.extend(g.cache_spread_pct.iter().map(|v| format!("{v:.2}")));
        table_row(&mut out, &cells, false);
    }
    out.push_str("</table>\n");

    out.push_str("<h2>Runs</h2>\n<table>\n");
    let header: Vec<String> = [
        "run", "frames", "ticks", "spans", "dropped", "bottleneck", "share", "z hit %",
        "color hit %", "tex L0 %", "tex L1 %",
    ]
    .map(String::from)
    .to_vec();
    table_row(&mut out, &header, true);
    for r in &report.runs {
        let cells = vec![
            esc(&r.label),
            r.frames.to_string(),
            r.end_tick.to_string(),
            r.spans.to_string(),
            r.dropped.to_string(),
            esc(&r.bottleneck),
            format!("{:.4}", r.bottleneck_share),
            format!("{:.2}", r.cache_hit_pct[0]),
            format!("{:.2}", r.cache_hit_pct[1]),
            format!("{:.2}", r.cache_hit_pct[2]),
            format!("{:.2}", r.cache_hit_pct[3]),
        ];
        table_row(&mut out, &cells, false);
    }
    out.push_str("</table>\n");

    out.push_str("<h2>Feature-space ranking</h2>\n<table>\n");
    table_row(
        &mut out,
        &["run", "nearest group", "distance"].map(String::from),
        true,
    );
    for r in &report.rankings {
        let cells =
            vec![esc(&r.label), esc(&r.nearest), format!("{:.6}", r.distance)];
        table_row(&mut out, &cells, false);
    }
    out.push_str("</table>\n");

    if !report.divergent.is_empty() {
        out.push_str("<h2 class=\"warn\">Divergent replicas</h2>\n<ul>\n");
        for key in &report.divergent {
            let _ = writeln!(out, "<li class=\"warn\">{}</li>", esc(key));
        }
        out.push_str("</ul>\n");
    }
    if !report.skipped.is_empty() {
        out.push_str("<h2>Skipped files</h2>\n<ul>\n");
        for s in &report.skipped {
            let _ = writeln!(out, "<li>{}: {}</li>", esc(&s.rel_path), esc(&s.reason));
        }
        out.push_str("</ul>\n");
    }
    out.push_str("</body>\n</html>\n");
    out
}

/// Persists a rendered report through the `analyze.write` failpoint
/// site. On injected (or real) storage failure the caller still holds
/// the rendered string — `repro analyze` reports the error and exits 2,
/// while the daemon degrades to serving the in-memory copy.
pub fn write_report(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    gwc_failpoints::write_file("analyze.write", path, contents.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use crate::ingest::{Run, RunIndex, Skipped};
    use gwc_telemetry::reader::read_trace;
    use gwc_telemetry::{Collector, FrameSample, Level, TraceMeta};

    fn index() -> RunIndex {
        let mut runs = Vec::new();
        for (i, game) in ["Doom3/demo1", "Quake4/<odd> \"name\""].iter().enumerate() {
            let meta = TraceMeta {
                game: (*game).into(),
                width: 32,
                height: 24,
                stripe_rows: 8,
                stripes: 1,
                clients: vec!["Texture".into()],
                span_capacity: 16,
            };
            let mut c = Collector::new(Level::Spans, meta);
            c.record_draw(0, 10 + i as u64 * 5, 4);
            c.end_frame(
                40,
                FrameSample {
                    triangles: 4,
                    z_accesses: 8,
                    z_hits: 6,
                    bw_read: vec![16],
                    bw_written: vec![4],
                    ..Default::default()
                },
            );
            let bytes = c.trace().to_binary();
            runs.push(Run {
                workload: (*game).into(),
                config: "32x24/f1".into(),
                seed: Some(3),
                rel_path: format!("run-{i}.trace.bin"),
                trace: read_trace(&bytes).expect("reads"),
                crc: i as u32,
            });
        }
        runs.sort_by(|a, b| a.workload.cmp(&b.workload));
        RunIndex {
            runs,
            skipped: vec![Skipped { rel_path: "bad.trace.bin".into(), reason: "CRC mismatch".into() }],
        }
    }

    #[test]
    fn csv_has_header_data_rows_and_trailer_comments() {
        let report = aggregate(&index());
        let text = csv(&report);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.iter().filter(|l| l.starts_with("run,")).count(), 2);
        assert_eq!(body.iter().filter(|l| l.starts_with("group,")).count(), 2);
        assert!(body.iter().any(|l| l.starts_with("# skipped bad.trace.bin")));
        // Every data row has exactly as many fields as the header.
        let cols = CSV_HEADER.split(',').count();
        for row in body.iter().filter(|l| !l.starts_with('#')) {
            assert_eq!(row.split(',').count(), cols, "row {row}");
        }
        // The workload with a comma-free name appears unquoted; the odd
        // one is quoted.
        assert!(text.contains("run,Doom3/demo1,"));
    }

    #[test]
    fn csv_is_deterministic() {
        let report = aggregate(&index());
        assert_eq!(csv(&report), csv(&report));
        assert_eq!(html(&report), html(&report));
    }

    #[test]
    fn html_is_self_contained_with_one_chart_per_stage() {
        let report = aggregate(&index());
        let page = html(&report);
        for stage in ATTRIBUTION_STAGES {
            assert!(
                page.contains(&format!("id=\"stage-{}\"", stage.name())),
                "missing chart for {}",
                stage.name()
            );
        }
        assert!(!page.contains("http://") && !page.contains("https://"), "no external assets");
        assert!(page.contains("&lt;odd&gt; &quot;name&quot;"), "labels are escaped");
        assert!(!page.contains("<odd>"), "raw label must not leak");
    }

    #[test]
    fn write_report_creates_parents_and_writes() {
        let dir = std::env::temp_dir()
            .join(format!("gwc-analyze-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/report.csv");
        write_report(&path, "hello\n").expect("writes");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), "hello\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
