//! The stripe-parallel fragment pipeline.
//!
//! The framebuffer is partitioned into horizontal *stripes* of
//! [`crate::GpuConfig::stripe_rows`] rows. Geometry (vertex fetch,
//! shading, clipping, triangle setup) stays serial on the GPU front end;
//! each draw's fragment work — rasterization, Hierarchical Z, Z/stencil,
//! fragment shading, texturing, and blending — is then flushed through
//! one [`StripeJob`] per stripe. Stripes own disjoint bands of every
//! framebuffer surface plus private cache/memory models, so jobs can run
//! on worker threads with no shared mutable state.
//!
//! Determinism is by construction, not by locking:
//!
//! - Stripe layout derives from the configuration only — the thread count
//!   decides *who* runs a stripe, never *what* a stripe does.
//! - Rasterization is clamped per band ([`gwc_raster::rasterize_band`]);
//!   a band sees exactly the quads of the full traversal that fall inside
//!   it, in the same order.
//! - All statistics are `u64` sums, so reducing stripe shards is
//!   associative and order-insensitive; memory traffic is drained in
//!   stripe order regardless of completion order.
//! - Fault-injection coins are per-stripe (seeded from the stripe index),
//!   and a faulting stripe stops only its own queue; the lowest faulting
//!   stripe index is reported.

use std::collections::HashMap;

use gwc_math::Vec4;
use gwc_mem::compress::{classify_color_block, classify_z_block, BlockState, DirBandView};
use gwc_mem::{tiled_offset, AccessKind, Cache, CacheConfig, FrameTraffic, MemClient,
              MemoryController};
use gwc_raster::{rasterize_band, BlendState, DepthState, HzBandView, Quad, RasterStats,
                 StencilState, TriangleSetup, Viewport, ZBandView, ZResult, MAX_VARYINGS};
use gwc_shader::{ExecStats, Program, ShaderMachine};
use gwc_telemetry::{SpanEvent, SpanRing, Stage};
use gwc_texture::{SamplerState, Texture};

use crate::budget::CancelToken;
use crate::colorbuffer::ColorBandView;
use crate::error::SimError;
use crate::stats::FrameSimStats;
use crate::texunit::{BoundSampler, TextureUnit};

/// The persistent per-stripe execution units: the caches and the memory
/// controller that model the stripe's slice of the ROP/texture hardware.
/// These live for the whole run (cache contents carry across draws and
/// frames, exactly like the former global units did).
#[derive(Debug)]
pub(crate) struct StripeUnits {
    /// Z & stencil cache for this stripe's blocks.
    pub z_cache: Cache,
    /// Color cache for this stripe's blocks.
    pub color_cache: Cache,
    /// Texture unit (L0/L1 caches + filtering statistics).
    pub texunit: TextureUnit,
    /// Stripe-local memory controller; its per-draw traffic is drained
    /// into the master controller in stripe order.
    pub mem: MemoryController,
}

impl StripeUnits {
    /// Creates the units with Table XIV's cache geometry.
    pub fn new() -> Self {
        StripeUnits {
            z_cache: Cache::new(CacheConfig::Z_STENCIL),
            color_cache: Cache::new(CacheConfig::COLOR),
            texunit: TextureUnit::new(),
            mem: MemoryController::new(),
        }
    }
}

/// Everything a stripe needs to read about the current draw: the
/// post-setup triangles and an immutable snapshot of the bound state.
pub(crate) struct DrawPacket<'a> {
    /// Surviving triangles, with the stencil face state each selected.
    pub tris: Vec<(TriangleSetup, StencilState)>,
    /// The bound fragment program.
    pub program: &'a Program,
    /// Early Z legality for this draw.
    pub early_z_ok: bool,
    /// Hierarchical Z legality for this draw.
    pub hz_ok: bool,
    /// Depth state snapshot.
    pub depth_state: DepthState,
    /// Blend state snapshot.
    pub blend: BlendState,
    /// Color write mask snapshot.
    pub color_mask: bool,
    /// Alpha test reference, when enabled.
    pub alpha_test: Option<f32>,
    /// Render target width.
    pub width: u32,
    /// Render target height.
    pub height: u32,
    /// Z block compression enabled.
    pub z_compression: bool,
    /// Color block compression enabled.
    pub color_compression: bool,
    /// Depth/stencil surface base address.
    pub zb_addr: u64,
    /// Color surface base address.
    pub cb_addr: u64,
    /// Texture unit bindings.
    pub bindings: &'a HashMap<u8, u32>,
    /// Texture pool.
    pub pool: &'a HashMap<u32, (Texture, SamplerState)>,
    /// The viewport.
    pub viewport: Viewport,
    /// Supervised runs: the run's cancellation token. Stripes charge one
    /// work tick per rasterized quad and stop between triangles once the
    /// token trips (the partial results are discarded by the supervisor,
    /// so an early stop cannot corrupt any surviving statistic).
    pub cancel: Option<&'a CancelToken>,
}

/// One stripe's mutable execution state for one draw: band views over the
/// framebuffer surfaces, the stripe's persistent units, a private shader
/// machine clone, and a statistics shard.
pub(crate) struct StripeJob<'a> {
    /// First row of the stripe.
    pub y0: u32,
    /// One past the last row of the stripe.
    pub y1: u32,
    /// Depth/stencil band.
    pub z: ZBandView<'a>,
    /// Hierarchical-Z band.
    pub hz: HzBandView<'a>,
    /// Color band.
    pub color: ColorBandView<'a>,
    /// Z compression-directory band.
    pub z_dir: DirBandView<'a>,
    /// Color compression-directory band.
    pub color_dir: DirBandView<'a>,
    /// The stripe's persistent caches + memory controller.
    pub units: &'a mut StripeUnits,
    /// Private fragment shader machine (constants cloned from the master,
    /// statistics zeroed; the delta merges back after the draw).
    pub fs: ShaderMachine,
    /// Private statistics shard.
    pub shard: FrameSimStats,
    /// First classified fault in this stripe; stops the stripe's queue.
    pub fault: Option<SimError>,
    /// Telemetry arm (spans level only): this stripe's detached span ring
    /// plus the draw's base work tick.
    pub trace: Option<StripeTrace>,
}

/// A stripe's telemetry state for one draw: the ring it records into and
/// the global work tick the draw's fragment phase started at. Every stage
/// span this stripe emits starts at `base`; durations are the stage's own
/// fragment/quad counts, each bounded by the draw's total fragment count
/// (which is exactly how far the global clock advances for the draw), so
/// per-track timestamps never run backwards.
pub(crate) struct StripeTrace {
    /// Global work tick at the start of the draw's fragment phase.
    pub base: u64,
    /// The stripe's span ring, detached from the collector for the draw.
    pub ring: SpanRing,
    /// Tiles visited by traversal in this stripe (accumulated per draw).
    pub tiles: u64,
}

/// What a stripe hands back after its draw flush: everything the master
/// needs to reduce, in plain owned data (the band-view borrows end here).
pub(crate) struct StripeOutcome {
    /// Statistics shard.
    pub shard: FrameSimStats,
    /// Hierarchical-Z quads tested in this stripe.
    pub hz_tested: u64,
    /// Hierarchical-Z quads rejected in this stripe.
    pub hz_rejected: u64,
    /// Fragment-shader execution delta.
    pub fs_delta: ExecStats,
    /// First classified fault, if the stripe faulted.
    pub fault: Option<SimError>,
    /// The stripe's memory traffic for this draw.
    pub traffic: FrameTraffic,
    /// Injected-corruption record from the stripe's fault injector.
    pub injected: Option<(&'static str, u64)>,
    /// The stripe's span ring, carrying this draw's recorded stage spans
    /// back to the collector (spans level only).
    pub trace: Option<SpanRing>,
}

impl StripeJob<'_> {
    /// Runs every triangle of the packet over this stripe's band.
    pub fn run(&mut self, packet: &DrawPacket<'_>) {
        for (setup, stencil) in &packet.tris {
            if self.fault.is_some() {
                return;
            }
            if packet.cancel.is_some_and(|t| t.is_cancelled()) {
                return;
            }
            let mut raster_stats = RasterStats::default();
            let mut quads: Vec<Quad> = Vec::new();
            rasterize_band(setup, &packet.viewport, self.y0, self.y1, &mut raster_stats, &mut |q| {
                quads.push(*q)
            });
            self.shard.frags_raster += raster_stats.fragments;
            self.shard.quads_raster += raster_stats.quads;
            self.shard.quads_complete_raster += raster_stats.complete_quads;
            if let Some(trace) = &mut self.trace {
                trace.tiles += raster_stats.tiles_visited();
            }
            if let Some(tok) = packet.cancel {
                // Fragment-level budget granularity: a single huge
                // triangle still charges its quads before the next check.
                tok.charge(raster_stats.quads);
            }
            for quad in &quads {
                if let Err(e) = self.process_quad(quad, setup, stencil, packet) {
                    self.fault = Some(e);
                    return;
                }
            }
        }
    }

    /// Closes the job: records the draw's per-stage telemetry spans, reads
    /// back the band-view counters, and drains the stripe units, releasing
    /// all surface borrows.
    pub fn finish(mut self) -> StripeOutcome {
        let trace = self.trace.take().map(|mut trace| {
            self.record_spans(&mut trace);
            trace.ring
        });
        StripeOutcome {
            shard: self.shard,
            hz_tested: self.hz.tested(),
            hz_rejected: self.hz.rejected(),
            fs_delta: *self.fs.stats(),
            fault: self.fault,
            traffic: self.units.mem.take_current(),
            injected: self.units.mem.take_injected_faults(),
            trace,
        }
    }

    /// Emits this stripe's stage spans for the finished draw. The shard,
    /// band views, and shader machine are all fresh per draw, so their
    /// end-of-job counters *are* the per-draw deltas. Stages that did no
    /// work emit nothing, keeping rings quiet on stripes a draw missed.
    fn record_spans(&self, trace: &mut StripeTrace) {
        let (hz_tested, hz_rejected) = self.hz.counts();
        let fs = self.fs.stats();
        let spans = [
            (Stage::Raster, self.shard.frags_raster, self.shard.quads_raster, trace.tiles),
            (Stage::HiZ, hz_tested, hz_rejected, 0),
            (Stage::ZStencil, self.shard.frags_zst, self.shard.quads_zst_removed, self.z.writes()),
            (Stage::Shade, self.shard.frags_shaded, fs.instructions, fs.texture_instructions),
            (Stage::Blend, self.shard.frags_blended, self.shard.quads_blended, 0),
        ];
        for (stage, dur, arg0, arg1) in spans {
            if dur > 0 {
                trace.ring.push(SpanEvent { stage, start: trace.base, dur, arg0, arg1 });
            }
        }
    }

    /// One quad through HZ → early Z → shading → alpha → late Z → blend,
    /// against this stripe's band state only.
    fn process_quad(
        &mut self,
        quad: &Quad,
        setup: &TriangleSetup,
        stencil: &StencilState,
        packet: &DrawPacket<'_>,
    ) -> Result<(), SimError> {
        // --- Hierarchical Z ---
        if packet.hz_ok {
            let mut min_z = f32::INFINITY;
            for lane in 0..4 {
                if quad.coverage[lane] {
                    min_z = min_z.min(quad.depth[lane]);
                }
            }
            if !self.hz.test_quad(quad.x, quad.y, min_z, packet.depth_state.func, &self.z) {
                self.shard.quads_hz_removed += 1;
                return Ok(());
            }
        }

        let mut live = quad.coverage;

        // --- Early Z & stencil ---
        if packet.early_z_ok {
            if !self.run_zstencil(quad, &mut live, stencil, packet) {
                return Ok(());
            }
            // Color writes masked off and all tests already done: the quad
            // is dropped *before* shading (stencil-volume quads reach this
            // point in the Doom3-engine games — Table XI's shaded overdraw
            // excludes them while Table IX counts them as "Color Mask").
            if !packet.color_mask {
                self.shard.quads_colormask += 1;
                return Ok(());
            }
        }

        // --- Fragment shading ---
        let lane_inputs: [[Vec4; MAX_VARYINGS]; 4] = std::array::from_fn(|lane| {
            let (x, y) = quad.lane_pos(lane);
            let (x, y) = (x.min(packet.width - 1), y.min(packet.height - 1));
            setup.varyings_at(x, y)
        });
        let input_refs: [&[Vec4]; 4] = [
            &lane_inputs[0],
            &lane_inputs[1],
            &lane_inputs[2],
            &lane_inputs[3],
        ];
        let result = {
            let mut sampler = BoundSampler {
                bindings: packet.bindings,
                pool: packet.pool,
                unit: &mut self.units.texunit,
                mem: &mut self.units.mem,
                fault: None,
            };
            let r = self.fs.run_fragment_quad(packet.program, &input_refs, live, &mut sampler);
            if let Some(fault) = sampler.fault.take() {
                return Err(fault);
            }
            r
        };
        let shaded = live.iter().filter(|&&l| l).count() as u64;
        self.shard.frags_shaded += shaded;

        // --- Kill / alpha test ---
        let mut any_removed_by_alpha = false;
        #[allow(clippy::needless_range_loop)] // lanes step lockstep arrays
        for lane in 0..4 {
            if !live[lane] {
                continue;
            }
            if result.killed[lane] {
                live[lane] = false;
                any_removed_by_alpha = true;
                continue;
            }
            if let Some(reference) = packet.alpha_test {
                if result.color[lane].w < reference {
                    live[lane] = false;
                    any_removed_by_alpha = true;
                }
            }
        }
        if live.iter().all(|&l| !l) {
            if any_removed_by_alpha {
                self.shard.quads_alpha_removed += 1;
            }
            return Ok(());
        }

        // --- Late Z & stencil ---
        if !packet.early_z_ok {
            // Apply shader-written depth if present.
            let mut q = *quad;
            if let Some(depths) = result.depth {
                q.depth = depths;
            }
            if !self.run_zstencil(&q, &mut live, stencil, packet) {
                return Ok(());
            }
        }

        // --- Color mask ---
        if !packet.color_mask {
            self.shard.quads_colormask += 1;
            return Ok(());
        }

        // --- Blend & color write ---
        // Write-allocate: the fill covers the blend's destination read too.
        self.color_cache_access(quad.x, quad.y, true, packet);
        let mut written = 0u64;
        #[allow(clippy::needless_range_loop)] // lanes step lockstep arrays
        for lane in 0..4 {
            if !live[lane] {
                continue;
            }
            let (x, y) = quad.lane_pos(lane);
            if x >= packet.width || y >= packet.height {
                continue;
            }
            self.color.write(x, y, result.color[lane], &packet.blend);
            written += 1;
        }
        self.shard.frags_blended += written;
        self.shard.quads_blended += 1;
        Ok(())
    }

    /// Z & stencil for one quad against this stripe's band; returns
    /// `false` when the whole quad is removed.
    fn run_zstencil(
        &mut self,
        quad: &Quad,
        live: &mut [bool; 4],
        stencil: &StencilState,
        packet: &DrawPacket<'_>,
    ) -> bool {
        let tested = live.iter().filter(|&&l| l).count() as u64;
        if tested == 0 {
            return false;
        }
        self.shard.frags_zst += tested;
        let ds = packet.depth_state;
        let writes = (ds.test && ds.write) || stencil.test;
        self.z_cache_access(quad.x, quad.y, writes, packet);
        let mut any_pass = false;
        #[allow(clippy::needless_range_loop)] // lanes step lockstep arrays
        for lane in 0..4 {
            if !live[lane] {
                continue;
            }
            let (x, y) = quad.lane_pos(lane);
            if x >= packet.width || y >= packet.height {
                live[lane] = false;
                continue;
            }
            match self.z.test_and_update(x, y, quad.depth[lane], &ds, stencil) {
                ZResult::Pass => {
                    if ds.test && ds.write {
                        self.hz.note_depth_write(x, y);
                    }
                    any_pass = true;
                }
                ZResult::DepthFail | ZResult::StencilFail => {
                    live[lane] = false;
                }
            }
        }
        if !any_pass {
            self.shard.quads_zst_removed += 1;
            return false;
        }
        self.shard.quads_zst_survived += 1;
        if live.iter().all(|&l| l) {
            self.shard.quads_zst_complete += 1;
        }
        true
    }

    /// Z & stencil cache access for one quad: accounts fills and
    /// compressed writebacks against the stripe's cache and memory.
    fn z_cache_access(&mut self, x: u32, y: u32, write: bool, packet: &DrawPacket<'_>) {
        let addr = packet.zb_addr + tiled_offset(x, y, packet.width, 4);
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let out = self.units.z_cache.access_detailed(addr, kind);
        if !out.hit {
            let state = if packet.z_compression {
                self.z_dir.state_at(x, y)
            } else {
                BlockState::Uncompressed
            };
            let bytes = state.transfer_bytes(256);
            if bytes > 0 {
                self.units.mem.read(MemClient::ZStencil, bytes);
            }
        }
        if let Some(line) = out.evicted_dirty_line {
            self.write_back_z_line(line, packet);
        }
    }

    fn color_cache_access(&mut self, x: u32, y: u32, write: bool, packet: &DrawPacket<'_>) {
        let addr = packet.cb_addr + tiled_offset(x, y, packet.width, 4);
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let out = self.units.color_cache.access_detailed(addr, kind);
        if !out.hit {
            let state = if packet.color_compression {
                self.color_dir.state_at(x, y)
            } else {
                BlockState::Uncompressed
            };
            let bytes = state.transfer_bytes(256);
            if bytes > 0 {
                self.units.mem.read(MemClient::Color, bytes);
            }
        }
        if let Some(line) = out.evicted_dirty_line {
            self.write_back_color_line(line, packet);
        }
    }

    /// Writes back an evicted dirty Z line: reclassifies the 8×8 block
    /// from this stripe's band and sizes the compressed transfer.
    fn write_back_z_line(&mut self, line: u64, packet: &DrawPacket<'_>) {
        let (x, y) = block_pixel(line, packet.zb_addr, packet.width);
        let state = if packet.z_compression {
            classify_z_block(&self.z.block_depths(x, y))
        } else {
            BlockState::Uncompressed
        };
        self.z_dir.set_state_at(x, y, state);
        self.units.mem.write(MemClient::ZStencil, state.transfer_bytes(256).max(64));
    }

    fn write_back_color_line(&mut self, line: u64, packet: &DrawPacket<'_>) {
        let (x, y) = block_pixel(line, packet.cb_addr, packet.width);
        let state = if packet.color_compression {
            classify_color_block(&self.color.block_colors(x, y))
        } else {
            BlockState::Uncompressed
        };
        self.color_dir.set_state_at(x, y, state);
        self.units.mem.write(MemClient::Color, state.transfer_bytes(256).max(64));
    }
}

/// Maps a framebuffer line address back to the pixel of its 8×8 block.
/// Stripe caches only ever hold lines of their own band, so the result
/// always lands inside the calling stripe.
pub(crate) fn block_pixel(line_addr: u64, base: u64, width: u32) -> (u32, u32) {
    let block = (line_addr - base) / 256;
    let blocks_x = width.div_ceil(8) as u64;
    let bx = (block % blocks_x) as u32;
    let by = (block / blocks_x) as u32;
    (bx * 8, by * 8)
}
