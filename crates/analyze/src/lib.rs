//! Cross-run GWTB trace analytics.
//!
//! Campaigns, sweeps, and the daemon all leave CRC-guarded GWTB trace
//! binaries behind; this crate is the layer that *compares* them. It is
//! three passes over a data directory:
//!
//! 1. **Ingest** ([`ingest`]): walk the directory tree, decode every
//!    `*.trace.bin` through the typed reader
//!    ([`gwc_telemetry::reader::read_trace`]), join manifest metadata
//!    (`campaign.json`) where present, and build a [`RunIndex`] keyed by
//!    (game-or-scenario, config, seed). Corrupt traces are skipped and
//!    listed, never fatal — analytics over a partially-damaged data dir
//!    still ranks the survivors.
//! 2. **Aggregate** ([`aggregate`](mod@aggregate)): per-stage ×
//!    per-stripe utilization on the work-tick clock, bottleneck
//!    attribution (top stage by occupied-tick share, per run and per
//!    workload group),
//!    cache-sensitivity spreads across configs, replica-divergence
//!    checks (same key ⇒ byte-identical trace, the thread-invariance
//!    contract), and trace-derived feature vectors ranked against each
//!    group's centroid via [`gwc_stats::rank_against`].
//! 3. **Render** ([`report`]): a deterministic CSV report (byte-identical
//!    across re-runs and thread counts) and a self-contained single-file
//!    HTML dashboard — no external assets, one chart per pipeline stage.
//!
//! `repro analyze` drives all three from the CLI; `gwc-serve` exposes the
//! same report read-only at `GET /analyze` (CSV) and `GET /dashboard`
//! (HTML) over its own data dir.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod ingest;
pub mod report;

pub use aggregate::{aggregate, GroupReport, Report, RunReport, ATTRIBUTION_STAGES};
pub use ingest::{scan, Run, RunIndex, Skipped};
pub use report::{csv, html, write_report, CSV_HEADER};
