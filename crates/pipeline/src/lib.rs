//! The GPU pipeline simulator: an ATTILA-class behavioural model.
//!
//! [`Gpu`] consumes the [`gwc_api`] command stream and executes the full
//! rendering pipeline of a 2005-era GPU (the paper configures ATTILA to
//! match an ATI R520, Table II):
//!
//! ```text
//! Command Processor
//!   → Streamer (index fetch + post-transform vertex cache)
//!   → Vertex Shading
//!   → Primitive Assembly → Clipper → Face Culling → Triangle Setup
//!   → Recursive Tiled Rasterizer (16×16 → 8×8 → 2×2 quads)
//!   → Hierarchical Z
//!   → Early Z & Stencil (z cache, fast clear, z compression)
//!   → Fragment Shading + Texture Unit (L0/L1 caches, DXT, anisotropic)
//!   → Alpha test / Late Z & Stencil
//!   → Color Mask / Blend (color cache, fast clear, color compression)
//!   → DAC scan-out
//! ```
//!
//! Rendering is *functionally real*: vertices run through the shader
//! interpreter, fragments are shaded with texture fetches against real DXT
//! data, depth/stencil state machines execute per fragment, and the color
//! buffer holds the final image. Every statistic the paper reports at the
//! microarchitectural level (Tables VII–XI and XIII–XVII, Figures 5–7)
//! falls out of counters along this pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod budget;
mod checkpoint;
mod colorbuffer;
mod config;
mod error;
mod fragment;
mod geometry;
mod gpu;
mod stats;
#[cfg(test)]
mod streamer;
mod texunit;

pub use budget::{CancelCause, CancelToken};
pub use checkpoint::CheckpointError;
pub use colorbuffer::ColorBuffer;
pub use config::GpuConfig;
pub use error::{FaultKind, FaultPolicy, SimError};
pub use gpu::Gpu;
pub use stats::{FrameSimStats, SimStats};
pub use texunit::TextureUnit;
