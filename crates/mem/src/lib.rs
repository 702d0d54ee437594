//! GPU memory subsystem model for the GWC simulator.
//!
//! The paper's Section III.E characterizes the memory behaviour of games:
//! cache hit rates (Table XIV), per-frame bandwidth and its read/write split
//! (Table XV), the bandwidth share of each pipeline stage (Table XVI) and
//! the per-vertex / per-fragment byte costs after caches and compression
//! (Table XVII). This crate provides the machinery those measurements need:
//!
//! - [`AddressSpace`] — a virtual GPU address space; resources get realistic
//!   addresses so cache indexing behaves like hardware, without storing the
//!   actual bytes here (payloads live in typed structures elsewhere).
//! - [`Cache`] — a set-associative write-back cache model with LRU
//!   replacement and hit/miss/writeback statistics.
//! - [`compress`] — the fast-clear and block-compression schemes ATTILA
//!   models for the Z/stencil and color buffers.
//! - [`MemoryController`] — per-client read/write transaction accounting
//!   with frame boundaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod cache;
pub mod compress;
mod controller;

pub use address::{tiled_offset, AddressSpace};
pub use cache::{AccessKind, AccessOutcome, Cache, CacheConfig, CacheStats, DuplicateTag, LineState};
pub use controller::{ClientTraffic, FrameTraffic, MemClient, MemoryController};
