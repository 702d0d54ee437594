//! # gwc — Workload Characterization of 3D Games
//!
//! A full Rust reproduction of the measurement infrastructure behind
//! *"Workload Characterization of 3D Games"* (IISWC 2006): an ATTILA-class
//! behavioural GPU simulator, a GL-flavoured API layer with trace
//! record/replay, synthetic parameterized game timedemos standing in for
//! the paper's proprietary traces, and the characterization framework that
//! regenerates every table and figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. See the individual crates for details:
//!
//! - [`math`] — vectors, matrices, projections
//! - [`stats`] — counters, series, tables, bandwidth
//! - [`mem`] — caches, compression, memory controller
//! - [`shader`] — SIMD4 shader ISA + interpreter
//! - [`texture`] — DXT, mipmaps, anisotropic filtering
//! - [`raster`] — tiled rasterizer, depth/stencil, HZ
//! - [`api`] — the traced command stream
//! - [`pipeline`] — the GPU simulator
//! - [`telemetry`] — work-tick traces, per-frame series, Perfetto/CSV export
//! - [`workloads`] — the synthetic timedemos
//! - [`core`] — the characterization study + tables/figures
//!
//! # Quick start
//!
//! ```no_run
//! use gwc::core::{run_study, RunConfig};
//!
//! let study = run_study(&RunConfig::quick());
//! for table in gwc::core::tables::all_tables(&study) {
//!     println!("{}", table.to_ascii());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gwc_api as api;
pub use gwc_core as core;
pub use gwc_math as math;
pub use gwc_mem as mem;
pub use gwc_pipeline as pipeline;
pub use gwc_raster as raster;
pub use gwc_shader as shader;
pub use gwc_stats as stats;
pub use gwc_telemetry as telemetry;
pub use gwc_texture as texture;
pub use gwc_workloads as workloads;
