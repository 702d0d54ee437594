//! The workload characterization framework — the paper's primary
//! contribution, as a library.
//!
//! [`characterize`] runs one synthetic timedemo through the API-level
//! statistics collector and (for the OpenGL demos the paper simulates)
//! through the full GPU pipeline simulator; [`run_study`] does so for the
//! entire Table I workload set. The [`tables`] and [`figures`] modules then
//! render every result of the paper's evaluation:
//!
//! | Output | Content |
//! |---|---|
//! | Tables I–VI | workload description, simulator config, API-level geometry statistics, bus bandwidths |
//! | Tables VII–XI | clip/cull rates, triangle sizes, quad fates, quad efficiency, overdraw |
//! | Tables XII–XIII | shader instruction mixes and dynamic filtering cost |
//! | Tables XIV–XVII | cache hit rates, memory bandwidth and per-stage distribution |
//! | Figures 1–3, 5–8 | the per-frame series, rendered as ASCII charts or CSV |
//!
//! # Examples
//!
//! ```no_run
//! use gwc_core::{run_study, RunConfig};
//!
//! let study = run_study(&RunConfig::quick());
//! println!("{}", gwc_core::tables::table3(&study).to_ascii());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod tables;

mod characterize;

pub use characterize::{characterize, characterize_traced, run_study,
                       GameCharacterization, RunConfig, SimResults, Study};
