//! Synthetic game timedemos.
//!
//! The paper's raw input — traces of twelve commercial game timedemos
//! captured on a Radeon 9800 — is proprietary and unobtainable. This crate
//! substitutes *synthetic timedemos*: procedurally generated scenes, camera
//! paths, shader programs and multi-pass rendering algorithms whose
//! parameters are taken from the paper's own published tables:
//!
//! - batch counts, indices per batch, index width — Table III,
//! - vertex program lengths — Table IV,
//! - primitive mix — Table V,
//! - fragment program lengths and ALU/TEX mix — Table XII,
//! - filtering modes and engine/API metadata — Table I,
//! - the stencil-shadow-volume multipass algorithm of the Doom3 engine
//!   (z-prepass, shadow volumes with z-fail stencil ops, additive lighting
//!   passes with `EQUAL` depth) described throughout Section III.
//!
//! The API-level statistics therefore match the paper by construction,
//! while the *microarchitectural* behaviour (vertex cache hit rate,
//! clip/cull rates, overdraw, HZ effectiveness, cache hit rates, bandwidth
//! distribution) **emerges** from actually rendering the synthetic scenes
//! through the simulated pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mesh;
pub mod shaders;

mod profiles;
mod timedemo;

pub use profiles::{GameProfile, SceneKind};
pub use timedemo::{name_seed_hash, Timedemo, TimedemoConfig};
