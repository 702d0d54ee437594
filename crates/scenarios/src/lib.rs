//! Seeded procedural workload scenarios.
//!
//! The twelve game timedemos of `gwc-workloads` pin the simulator to the
//! paper's Tables. This crate explores the space *around* them: it
//! composes scene **archetypes** (indoor corridor, open terrain, particle
//! storm, alpha-tested foliage, instanced crowd), **rendering styles**
//! (depth-prepass, stencil shadow volumes, many small additive passes,
//! post-processing chains) and **API-usage styles** (sorted submission,
//! tiny batches, mega batches, state thrash) into an 80-point scenario
//! grid, each point a fully deterministic seeded workload.
//!
//! Every scenario:
//!
//! - is named `scn:<archetype>+<style>+<api>` and parses back to its
//!   spec ([`ScenarioSpec::parse`]);
//! - emits a [`gwc_api::Command`] stream from a seed (byte-identical
//!   across thread counts and re-runs — [`ScenarioDemo`]); and
//! - declares *expected characteristics* ([`expectations`]) — bounds on
//!   the post-run AIWC-style feature vector (`gwc_stats::FeatureVector`)
//!   that the sweep runner asserts after simulation.
//!
//! Grids are expanded by [`GridSpec`]: `archetype=corridor,storm;
//! style=all; api=sorted; seeds=2` → one [`GridCell`] per combination
//! per seed replica.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emitter;
mod expect;
mod measure;
mod spec;

pub use emitter::{ScenarioConfig, ScenarioDemo};
pub use expect::{expectations, Expectation};
pub use measure::{measure, ScenarioRun};
pub use spec::{
    ApiStyle, Archetype, GridCell, GridError, GridSpec, RenderStyle, ScenarioSpec,
    SCENARIO_PREFIX,
};
