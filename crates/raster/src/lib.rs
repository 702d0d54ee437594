//! Rasterization substrate for the GWC GPU simulator.
//!
//! Implements the algorithms the paper's Section III.C describes for
//! "modern GPUs" (2006): a *tiled, edge-equation* rasterizer in the style of
//! McCormack & McNamara, descending recursively from 16×16-pixel tiles to
//! 8×8 tiles to 2×2 fragment *quads* — the working unit of the whole
//! fragment pipeline — plus the supporting stages around it:
//!
//! - near-plane clipping ([`clip_near`]) and trivial frustum rejection,
//! - back/front-face culling in [`TriangleSetup`],
//! - perspective-correct attribute interpolation,
//! - a [`DepthStencilBuffer`] with the full comparison/op vocabulary the
//!   stencil-shadow games need,
//! - a [`HzBuffer`] (Hierarchical Z) that conservatively rejects whole
//!   quads against per-block depth bounds using only on-die state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clip;
mod hz;
mod setup;
mod state;
mod traverse;
mod vertex;
mod zbuffer;

pub use clip::{clip_near, ClipResult};
pub use hz::{HzBandView, HzBuffer};
pub use setup::TriangleSetup;
pub use state::{BlendFactor, BlendState, CompareFunc, CullMode, DepthState, FrontFace,
                PrimitiveType, StencilOp, StencilState};
pub use traverse::{rasterize, rasterize_band, Quad, RasterStats};
pub use vertex::{viewport_transform, ShadedVertex, Viewport, MAX_VARYINGS};
pub use zbuffer::{DepthStencilBuffer, ZBandView, ZResult};
