//! The GPU: command execution through the full pipeline.

use std::collections::HashMap;

use gwc_api::{decode_commands, encode_commands, ClearMask, Command, CommandSink, Indices,
              StateCommand, VertexLayout};
use gwc_math::Vec4;
use gwc_mem::compress::{BlockState, CompressionDirectory};
use gwc_mem::{AddressSpace, Cache, CacheConfig, CacheStats, ClientTraffic, FrameTraffic,
              LineState, MemClient, MemoryController};
use gwc_raster::{BlendState, CompareFunc, CullMode, DepthStencilBuffer, DepthState,
                 FrontFace, HzBuffer, StencilOp, StencilState, TriangleSetup, Viewport};
use gwc_shader::{ExecStats, Program, ProgramKind, ShaderMachine};
use gwc_telemetry::{Collector, FrameSample, Level, TraceMeta};
use gwc_texture::{SampleStats, SamplerState, Texture};

use crate::budget::CancelToken;
use crate::checkpoint::{self, CheckpointError, Dec, Enc, SectionWriter};
use crate::colorbuffer::ColorBuffer;
use crate::config::GpuConfig;
use crate::error::{FaultKind, FaultPolicy, SimError};
use crate::fragment::{write_back_color_line, write_back_z_line, DrawPacket, StripeJob,
                      StripeTrace, StripeUnits};
use crate::geometry::{self, GeomRequest, SetupState};
use crate::stats::{FrameSimStats, SimStats};

#[derive(Debug)]
struct VertexBufferRes {
    layout: VertexLayout,
    data: Vec<Vec4>,
}

/// Validation products of a draw that needs fragment work resolved.
struct DrawPrep {
    vertex_program: Program,
    fragment_program: Program,
    early_z_ok: bool,
    hz_ok: bool,
}

/// The behavioural GPU simulator.
///
/// Construct one with a [`GpuConfig`], then feed it a command stream
/// (it implements [`CommandSink`], so a [`gwc_api::Trace`] replays into it
/// directly). Statistics accumulate per frame in [`Gpu::stats`].
///
/// ```
/// use gwc_api::{Command, CommandSink};
/// use gwc_pipeline::{Gpu, GpuConfig};
///
/// let mut gpu = Gpu::new(GpuConfig::r520(64, 64));
/// gpu.consume(&Command::EndFrame);
/// assert_eq!(gpu.stats().frames().len(), 1);
/// ```
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    viewport: Viewport,
    vram: AddressSpace,

    // Resources.
    vertex_buffers: HashMap<u32, VertexBufferRes>,
    index_buffers: HashMap<u32, Indices>,
    textures: HashMap<u32, (Texture, SamplerState)>,
    programs: HashMap<u32, Program>,

    // Bound state.
    tex_bindings: HashMap<u8, u32>,
    bound_vertex: Option<u32>,
    bound_fragment: Option<u32>,
    depth_state: DepthState,
    stencil_front: StencilState,
    stencil_back: StencilState,
    cull: CullMode,
    front_face: FrontFace,
    blend: BlendState,
    color_mask: bool,
    alpha_test: Option<f32>,

    // Execution units.
    vs_machine: ShaderMachine,
    fs_machine: ShaderMachine,

    // Stripe-parallel fragment back end: per-stripe caches, texture units
    // and memory controllers (stripe layout is fixed by the configuration,
    // never by the thread count), plus the resolved worker count.
    stripes: Vec<StripeUnits>,
    threads: u32,

    // Chunk-parallel geometry front end: resolved worker count (chunk
    // layout is fixed by `geometry::CHUNK`, never by this).
    geom_threads: u32,

    // Framebuffer state.
    zbuffer: DepthStencilBuffer,
    hz: HzBuffer,
    z_dir: CompressionDirectory,
    zb_addr: u64,
    colorbuffer: ColorBuffer,
    color_dir: CompressionDirectory,
    cb_addr: u64,

    // Memory & statistics.
    mem: MemoryController,
    frame: FrameSimStats,
    stats: SimStats,
    vs_prev: ExecStats,
    fs_prev: ExecStats,

    // Fault handling.
    skip_frame: bool,
    first_error: Option<SimError>,

    // Supervision: an optional cooperative cancellation token. When it
    // trips, command execution stops doing work (the stream keeps
    // draining) and the run's partial results are the supervisor's to
    // discard. Not serialized — a restored GPU starts un-supervised.
    cancel: Option<CancelToken>,

    // Observability: the deterministic work-tick clock and an optional
    // telemetry collector keyed by it. The tick *always* advances — one
    // per command, per assembled triangle, and per rasterized fragment —
    // whether or not a collector is attached, so checkpoint bytes and
    // resumed traces never depend on whether a run was observed. The
    // collector itself is never serialized.
    tick: u64,
    telemetry: Option<Collector>,

    // Checkpoint support: every successful resource-creation command, in
    // order. Replaying the log through a fresh GPU reproduces the exact
    // VRAM layout (bump allocation is deterministic).
    creation_log: Vec<Command>,
}

/// Early Z & stencil test, used whenever the draw state allows it.
const EARLY_Z: bool = true;
/// Bytes of command-processor fetch traffic accounted per API command.
const CP_BYTES_PER_COMMAND: u64 = 32;
/// VRAM budget for resource allocations: the R520 shipped with up to
/// 512 MiB of GDDR3. A command pushing the allocator past it faults with
/// [`SimError::AllocationOverflow`].
const VRAM_LIMIT_BYTES: u64 = 512 << 20;

/// Resolves the fragment-pipeline worker count: an explicit configuration
/// wins; `0` consults the `GWC_THREADS` environment variable and defaults
/// to 1 (serial).
fn resolve_threads(configured: u32) -> u32 {
    if configured > 0 {
        return configured;
    }
    std::env::var("GWC_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

impl Gpu {
    /// Creates a GPU with cleared framebuffers.
    ///
    /// # Panics
    ///
    /// Panics if [`GpuConfig::stripe_rows`] is zero or not a multiple
    /// of 16 (rasterizer tiles and compression blocks must not straddle
    /// stripes), or if [`GpuConfig::vertex_cache_entries`] is zero.
    pub fn new(config: GpuConfig) -> Self {
        assert!(
            config.stripe_rows > 0 && config.stripe_rows.is_multiple_of(16),
            "stripe_rows must be a non-zero multiple of 16"
        );
        assert!(config.vertex_cache_entries > 0, "vertex cache needs at least one entry");
        let viewport = Viewport::new(config.width, config.height);
        let mut vram = AddressSpace::new();
        let fb_bytes = config.width as u64 * config.height as u64 * 4;
        let zb_addr = vram.alloc(fb_bytes, 256);
        let cb_addr = vram.alloc(fb_bytes, 256);
        let stripe_count = config.height.div_ceil(config.stripe_rows) as usize;
        let stripes = (0..stripe_count).map(|_| StripeUnits::new()).collect();
        let threads = resolve_threads(config.threads);
        let geom_threads = if config.geometry_threads > 0 { config.geometry_threads } else { threads };
        Gpu {
            viewport,
            vram,
            vertex_buffers: HashMap::new(),
            index_buffers: HashMap::new(),
            textures: HashMap::new(),
            programs: HashMap::new(),
            tex_bindings: HashMap::new(),
            bound_vertex: None,
            bound_fragment: None,
            depth_state: DepthState::default(),
            stencil_front: StencilState::default(),
            stencil_back: StencilState::default(),
            cull: CullMode::default(),
            front_face: FrontFace::default(),
            blend: BlendState::default(),
            color_mask: true,
            alpha_test: None,
            vs_machine: ShaderMachine::new(),
            fs_machine: ShaderMachine::new(),
            stripes,
            threads,
            geom_threads,
            zbuffer: DepthStencilBuffer::new(config.width, config.height),
            hz: HzBuffer::new(config.width, config.height),
            z_dir: CompressionDirectory::new(config.width, config.height),
            zb_addr,
            colorbuffer: ColorBuffer::new(config.width, config.height),
            color_dir: CompressionDirectory::new(config.width, config.height),
            cb_addr,
            mem: MemoryController::new(),
            frame: FrameSimStats::default(),
            stats: SimStats::new(),
            vs_prev: ExecStats::default(),
            fs_prev: ExecStats::default(),
            skip_frame: false,
            first_error: None,
            cancel: None,
            tick: 0,
            telemetry: None,
            creation_log: Vec::new(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Whole-run simulator statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Memory controller (per-frame traffic history).
    pub fn memory(&self) -> &MemoryController {
        &self.mem
    }

    /// Arms (or with `rate_ppm == 0` disarms) seeded read-corruption fault
    /// injection on the memory controllers. Injected faults surface as
    /// [`SimError::MemoryFault`] through the configured [`FaultPolicy`].
    /// Each stripe's controller gets its own injector stream derived from
    /// `seed` and the stripe index, so the corruption pattern depends on
    /// the (configuration-fixed) stripe layout, never on the thread count.
    pub fn enable_memory_fault_injection(&mut self, seed: u64, rate_ppm: u32) {
        self.mem.enable_fault_injection(seed, rate_ppm);
        for (i, s) in self.stripes.iter_mut().enumerate() {
            let stripe_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            s.mem.enable_fault_injection(stripe_seed, rate_ppm);
        }
    }

    /// Attaches a [`CancelToken`] for supervised runs. Pipeline loops
    /// charge simulated-work ticks against it (one per command, per
    /// post-clip triangle, and per rasterized quad) and stop doing work
    /// once it trips; the command stream keeps draining so the caller's
    /// replay loop regains control at the next command. A cancelled run's
    /// partial statistics are *not* meaningful — discard the GPU.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether an attached [`CancelToken`] has tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Builds and attaches a telemetry [`Collector`] at `level` for a run
    /// labelled `game`, deriving the trace metadata (framebuffer and stripe
    /// geometry, memory client order, ring capacity) from this GPU. Its
    /// frame timebase starts at the current work tick. Recording is keyed
    /// by the work-tick clock, which advances identically with or without
    /// a collector (and at any level), so attaching one cannot perturb the
    /// simulation.
    pub fn enable_telemetry(&mut self, level: Level, game: &str, span_capacity: usize) {
        let meta = TraceMeta {
            game: game.to_string(),
            width: self.config.width,
            height: self.config.height,
            stripe_rows: self.config.stripe_rows,
            stripes: self.stripes.len() as u32,
            clients: MemClient::ALL.iter().map(|c| c.name().to_string()).collect(),
            span_capacity: span_capacity as u32,
        };
        let mut collector = Collector::new(level, meta);
        collector.resume_at(self.tick);
        self.telemetry = Some(collector);
    }

    /// The attached telemetry collector, if any.
    pub fn telemetry(&self) -> Option<&Collector> {
        self.telemetry.as_ref()
    }

    /// Detaches and returns the telemetry collector for export.
    pub fn take_telemetry(&mut self) -> Option<Collector> {
        self.telemetry.take()
    }

    /// The deterministic work-tick clock: one tick per consumed command,
    /// per assembled triangle, and per rasterized fragment. Serialized in
    /// checkpoints, so it survives resume; never derived from wall time.
    pub fn work_tick(&self) -> u64 {
        self.tick
    }

    /// Resolved fragment-pipeline worker count (see
    /// [`GpuConfig::threads`]).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Resolved geometry-front-end worker count (see
    /// [`GpuConfig::geometry_threads`]).
    pub fn geometry_threads(&self) -> u32 {
        self.geom_threads
    }

    /// Number of framebuffer stripes (fixed by the configuration).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Z & stencil cache statistics, aggregated over stripes (Table XIV).
    pub fn z_cache_stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.stripes {
            out.merge(s.z_cache.stats());
        }
        out
    }

    /// Color cache statistics, aggregated over stripes (Table XIV).
    pub fn color_cache_stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.stripes {
            out.merge(s.color_cache.stats());
        }
        out
    }

    /// Texture L0 cache statistics, aggregated over stripes (Table XIV).
    pub fn tex_l0_stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.stripes {
            out.merge(s.texunit.l0_stats());
        }
        out
    }

    /// Texture L1 cache statistics, aggregated over stripes (Table XIV).
    pub fn tex_l1_stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.stripes {
            out.merge(s.texunit.l1_stats());
        }
        out
    }

    /// The rendered color buffer.
    pub fn framebuffer(&self) -> &ColorBuffer {
        &self.colorbuffer
    }

    /// CRC-32 of the packed framebuffer contents — a cheap fingerprint for
    /// determinism checks across thread counts.
    pub fn framebuffer_crc(&self) -> u32 {
        let mut bytes = Vec::with_capacity(self.colorbuffer.raw_pixels().len() * 4);
        for &p in self.colorbuffer.raw_pixels() {
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        gwc_telemetry::export::crc32(&bytes)
    }

    /// The depth/stencil buffer.
    pub fn depth_buffer(&self) -> &DepthStencilBuffer {
        &self.zbuffer
    }

    /// GPU memory allocated for resources + framebuffers.
    pub fn vram_allocated(&self) -> u64 {
        self.vram.allocated_bytes()
    }

    /// The first classified fault seen by the infallible [`CommandSink`]
    /// path (regardless of [`FaultPolicy`]); `None` if replay was clean.
    pub fn first_error(&self) -> Option<&SimError> {
        self.first_error.as_ref()
    }

    /// Checks a prospective resource allocation against the VRAM budget.
    fn check_alloc(&self, requested: u64) -> Result<(), SimError> {
        let allocated = self.vram.allocated_bytes();
        if allocated.saturating_add(requested) > VRAM_LIMIT_BYTES {
            return Err(SimError::AllocationOverflow {
                requested,
                allocated,
                limit: VRAM_LIMIT_BYTES,
            });
        }
        Ok(())
    }

    /// Checks a constant upload range against the machine's register file.
    fn check_constants(
        program: Option<u32>,
        base: u8,
        count: usize,
        limit: usize,
    ) -> Result<(), SimError> {
        if base as usize + count > limit {
            return Err(SimError::ShaderFault {
                program: program.unwrap_or(u32::MAX),
                reason: "constant upload past end of register file",
            });
        }
        Ok(())
    }

    // ---- pipeline internals ------------------------------------------

    /// Resolves and validates everything a draw needs before geometry
    /// runs, charging the index-fetch memory traffic. Exactly the serial
    /// validation order, so the first fault reported is unchanged.
    fn validate_draw(
        &mut self,
        vertex_buffer: u32,
        index_buffer: u32,
        vp_id: u32,
        fp_id: u32,
        first: u32,
        count: u32,
    ) -> Result<DrawPrep, SimError> {
        let vertex_program = self
            .programs
            .get(&vp_id)
            .ok_or(SimError::UnboundResource { kind: "program", id: vp_id })?
            .clone();
        let fragment_program = self
            .programs
            .get(&fp_id)
            .ok_or(SimError::UnboundResource { kind: "program", id: fp_id })?
            .clone();
        if vertex_program.kind() != ProgramKind::Vertex {
            return Err(SimError::ShaderFault {
                program: vp_id,
                reason: "bound vertex program is not a vertex program",
            });
        }
        if fragment_program.kind() != ProgramKind::Fragment {
            return Err(SimError::ShaderFault {
                program: fp_id,
                reason: "bound fragment program is not a fragment program",
            });
        }
        if !self.vertex_buffers.contains_key(&vertex_buffer) {
            return Err(SimError::UnboundResource { kind: "vertex-buffer", id: vertex_buffer });
        }

        // Index fetch traffic (Vertex memory client reads the index list).
        let indices = self
            .index_buffers
            .get(&index_buffer)
            .ok_or(SimError::UnboundResource { kind: "index-buffer", id: index_buffer })?;
        let index_len = indices.len() as u64;
        if first as u64 + count as u64 > index_len {
            return Err(SimError::IndexOutOfRange {
                what: "index-range",
                index: first as u64 + count as u64,
                limit: index_len,
            });
        }
        let bpi = indices.bytes_per_index() as u64;
        self.mem.read(MemClient::Vertex, bpi * count as u64);

        // Early-z legality for this draw.
        let early_z_ok = EARLY_Z
            && self.depth_state.test
            && !fragment_program.uses_kill()
            && !fragment_program.writes_depth()
            && self.alpha_test.is_none();
        // HZ legality: rejectable depth func and no z-fail/fail-dependent
        // stencil side effects.
        let stencil_sensitive = |s: &StencilState| {
            s.test && (s.zfail != StencilOp::Keep || s.fail != StencilOp::Keep)
        };
        let hz_ok = self.config.hierarchical_z
            && self.depth_state.test
            && matches!(
                self.depth_state.func,
                CompareFunc::Less | CompareFunc::LessEqual | CompareFunc::Equal
            )
            && !stencil_sensitive(&self.stencil_front)
            && !stencil_sensitive(&self.stencil_back);

        Ok(DrawPrep { vertex_program, fragment_program, early_z_ok, hz_ok })
    }

    fn draw(
        &mut self,
        vertex_buffer: u32,
        index_buffer: u32,
        primitive: gwc_raster::PrimitiveType,
        first: u32,
        count: u32,
    ) -> Result<(), SimError> {
        let (Some(vp_id), Some(fp_id)) = (self.bound_vertex, self.bound_fragment) else {
            return Ok(()); // no programs bound: draw is ignored
        };
        let prep = self.validate_draw(vertex_buffer, index_buffer, vp_id, fp_id, first, count)?;
        let tri_count = primitive.triangle_count(count as usize);

        // Phase 1 — chunk-parallel geometry. A geometry fault aborts the
        // draw before *any* fragment work, so the flush always sees a
        // complete triangle list.
        let vb = &self.vertex_buffers[&vertex_buffer];
        let mut vs_proto = self.vs_machine.clone();
        vs_proto.restore_stats(ExecStats::default());
        let out = geometry::run(&GeomRequest {
            data: &vb.data,
            attrs: vb.layout.attributes.max(1) as usize,
            stride_bytes: vb.layout.stride_bytes as u64,
            vertex_buffer,
            indices: &self.index_buffers[&index_buffer],
            first: first as usize,
            primitive,
            tri_count,
            program: &prep.vertex_program,
            vs_proto,
            cache_entries: self.config.vertex_cache_entries,
            workers: self.geom_threads as usize,
            setup: self.setup_state(),
            cancel: self.cancel.as_ref(),
        });
        if out.cancelled {
            return Ok(());
        }

        // Commit geometry: work ticks, statistics, memory traffic and
        // shader deltas, exactly as the serial loop accumulated them (the
        // shard holds counts for precisely the prefix serial executed).
        let draw_start = self.tick;
        self.tick += out.ticks;
        let geom_end = self.tick;
        self.frame.indices += out.shard.indices;
        self.frame.vcache_hits += out.shard.vcache_hits;
        self.frame.shaded_vertices += out.shard.shaded_vertices;
        self.frame.assembled += out.shard.assembled;
        self.frame.clipped += out.shard.clipped;
        self.frame.culled += out.shard.culled;
        self.frame.traversed += out.shard.setup;
        // One Vertex-client transaction per fetched vertex, as the serial
        // streamer issued them.
        let stride = self.vertex_buffers[&vertex_buffer].layout.stride_bytes as u64;
        for _ in 0..out.shard.fetched_vertices {
            self.mem.read(MemClient::Vertex, stride);
        }
        let mut vs_total = *self.vs_machine.stats();
        vs_total.merge(&out.vs_delta);
        self.vs_machine.restore_stats(vs_total);

        if let Some(e) = out.error {
            return Err(e);
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.record_geometry(draw_start, geom_end, out.shard.shaded_vertices, out.shard.setup);
        }
        if out.tris.is_empty() {
            if let Some(t) = self.telemetry.as_mut() {
                t.record_draw(draw_start, geom_end, tri_count as u64);
            }
            return Ok(());
        }

        // Phase 2 — stripe-parallel fragment flush.
        self.flush_fragments(out.tris, &prep, draw_start, tri_count as u64)
    }

    /// The clip/cull/setup state a draw's geometry samples at kick time.
    fn setup_state(&self) -> SetupState {
        SetupState {
            viewport: self.viewport,
            cull: self.cull,
            front_face: self.front_face,
            stencil_front: self.stencil_front,
            stencil_back: self.stencil_back,
        }
    }

    /// Runs one draw's fragment work across the stripes, then reduces the
    /// per-stripe results deterministically (in stripe order).
    fn flush_fragments(
        &mut self,
        tris: Vec<(TriangleSetup, StencilState)>,
        prep: &DrawPrep,
        draw_start: u64,
        tri_count: u64,
    ) -> Result<(), SimError> {
        // Fragment machine prototype: master constants, zeroed statistics.
        let mut proto = self.fs_machine.clone();
        proto.restore_stats(ExecStats::default());
        // Detach the telemetry rings before other fields of `self` are
        // borrowed into the jobs. Each stripe records into its own ring;
        // they return through the outcomes and reattach in stripe order.
        // The trace timebase is the tick after the draw's geometry.
        let geom_end = self.tick;
        let trace_rings = self.telemetry.as_mut().and_then(Collector::take_stripe_rings);
        let packet = DrawPacket {
            tris,
            program: &prep.fragment_program,
            early_z_ok: prep.early_z_ok,
            hz_ok: prep.hz_ok,
            depth_state: self.depth_state,
            blend: self.blend,
            color_mask: self.color_mask,
            alpha_test: self.alpha_test,
            width: self.config.width,
            height: self.config.height,
            z_compression: self.config.z_compression,
            color_compression: self.config.color_compression,
            zb_addr: self.zb_addr,
            cb_addr: self.cb_addr,
            bindings: &self.tex_bindings,
            pool: &self.textures,
            viewport: self.viewport,
            cancel: self.cancel.as_ref(),
        };

        let stripe_rows = self.config.stripe_rows;
        let height = self.config.height;
        let mut jobs: Vec<StripeJob<'_>> = self
            .zbuffer
            .band_views(stripe_rows)
            .into_iter()
            .zip(self.hz.band_views(stripe_rows))
            .zip(self.colorbuffer.band_views(stripe_rows))
            .zip(self.z_dir.band_views(stripe_rows))
            .zip(self.color_dir.band_views(stripe_rows))
            .zip(self.stripes.iter_mut())
            .enumerate()
            .map(|(i, (((((z, hz), color), z_dir), color_dir), units))| {
                let y0 = i as u32 * stripe_rows;
                StripeJob {
                    y0,
                    y1: (y0 + stripe_rows).min(height),
                    z,
                    hz,
                    color,
                    z_dir,
                    color_dir,
                    units,
                    fs: proto.clone(),
                    shard: FrameSimStats::default(),
                    fault: None,
                    trace: None,
                }
            })
            .collect();
        if let Some(rings) = trace_rings {
            for (job, ring) in jobs.iter_mut().zip(rings) {
                job.trace = Some(StripeTrace { base: geom_end, ring, tiles: 0 });
            }
        }

        // Stripes are dealt round-robin to the workers (a scheduling
        // choice, invisible in the results); outcomes come back in stripe
        // order, so parallel runs are bit-identical to serial ones.
        let mut outcomes = geometry::run_chunks(jobs, self.threads as usize, |_, mut job| {
            job.run(&packet);
            job.finish()
        });

        // Deterministic reduction in stripe order: every merged quantity
        // is a plain sum, and traffic/faults are absorbed lowest stripe
        // first, so any schedule produces identical state.
        let mut fs_delta = ExecStats::default();
        let mut fault: Option<SimError> = None;
        let mut injected: Option<(&'static str, u64)> = None;
        let mut frag_ticks = 0u64;
        for o in &outcomes {
            self.frame.merge(&o.shard);
            self.hz.add_counts(o.hz_tested, o.hz_rejected);
            fs_delta.merge(&o.fs_delta);
            self.mem.absorb(&o.traffic);
            frag_ticks += o.shard.frags_raster;
            if fault.is_none() {
                fault = o.fault.clone();
            }
            if let Some((client, count)) = o.injected {
                match &mut injected {
                    Some((_, total)) => *total += count,
                    None => injected = Some((client, count)),
                }
            }
        }
        // One work tick per rasterized fragment: the draw's total fragment
        // count bounds every stripe's per-stage span duration, which is
        // what keeps each per-stripe trace track monotonic.
        self.tick += frag_ticks;
        if let Some(t) = self.telemetry.as_mut() {
            if t.spans_enabled() {
                // Outcomes are already sorted, so the rings reattach in
                // ascending stripe order — the same order the stat shards
                // merged in above.
                let rings: Vec<_> = outcomes.iter_mut().filter_map(|o| o.trace.take()).collect();
                t.restore_stripe_rings(rings);
            }
        }
        let mut fs_total = *self.fs_machine.stats();
        fs_total.merge(&fs_delta);
        self.fs_machine.restore_stats(fs_total);

        if let Some(e) = fault {
            return Err(e);
        }
        if let Some((client, count)) = injected {
            return Err(SimError::MemoryFault { client, count });
        }
        // The draw retires: its span runs from its own start tick to its
        // geometry end plus this flush's fragment ticks.
        if let Some(t) = self.telemetry.as_mut() {
            t.record_draw(draw_start, self.tick, tri_count);
        }
        Ok(())
    }

    fn clear(&mut self, mask: ClearMask, color: Vec4, depth: f32, stencil: u8) {
        if mask.depth {
            self.zbuffer.clear_depth(depth);
            self.hz.clear(depth);
        }
        if mask.stencil {
            self.zbuffer.clear_stencil(stencil);
        }
        if mask.depth && mask.stencil {
            // Only a full depth+stencil clear is a fast clear of the
            // combined surface; a partial clear leaves live data, so the
            // compression state and cached lines must survive (the cache is
            // architectural state here: the cleared plane's stored values
            // are read back from the buffers, not the cache model).
            self.z_dir.fast_clear();
            for s in &mut self.stripes {
                s.z_cache.invalidate();
            }
        }
        if mask.color {
            self.colorbuffer.clear(color);
            self.color_dir.fast_clear();
            for s in &mut self.stripes {
                s.color_cache.invalidate();
            }
        }
    }

    fn end_frame(&mut self) {
        // Flush each stripe's framebuffer caches in stripe order, through
        // that stripe's own bands: its caches only hold lines of its band,
        // and dirty lines are written back into the master controller by
        // the same rule as evictions.
        let GpuConfig { stripe_rows, width, z_compression, color_compression, .. } = self.config;
        let (zb_addr, cb_addr, mem) = (self.zb_addr, self.cb_addr, &mut self.mem);
        let bands = self
            .zbuffer
            .band_views(stripe_rows)
            .into_iter()
            .zip(self.z_dir.band_views(stripe_rows))
            .zip(self.colorbuffer.band_views(stripe_rows))
            .zip(self.color_dir.band_views(stripe_rows));
        let stripes = self.stripes.iter_mut().zip(bands);
        for (units, (((z, mut z_dir), color), mut color_dir)) in stripes {
            for line in units.z_cache.flush_collect() {
                write_back_z_line(&z, &mut z_dir, mem, line, zb_addr, width, z_compression);
            }
            for line in units.color_cache.flush_collect() {
                write_back_color_line(
                    &color,
                    &mut color_dir,
                    mem,
                    line,
                    cb_addr,
                    width,
                    color_compression,
                );
            }
        }
        // DAC scan-out: reads the (possibly compressed) color surface.
        let mut dac_bytes = 0u64;
        for by in 0..self.color_dir.blocks_y() {
            for bx in 0..self.color_dir.blocks_x() {
                let state = if self.config.color_compression {
                    self.color_dir.state_at(bx * 8, by * 8)
                } else {
                    BlockState::Uncompressed
                };
                dac_bytes += state.transfer_bytes(256);
            }
        }
        self.mem.read(MemClient::Dac, dac_bytes);

        // Shader execution deltas.
        let vs_now = *self.vs_machine.stats();
        let fs_now = *self.fs_machine.stats();
        let vs_delta = vs_now.delta_since(&self.vs_prev);
        let fs_delta = fs_now.delta_since(&self.fs_prev);
        self.frame.vs_instructions = vs_delta.instructions;
        self.frame.fs_instructions = fs_delta.instructions;
        self.frame.fs_tex_instructions = fs_delta.texture_instructions;
        self.vs_prev = vs_now;
        self.fs_prev = fs_now;

        // Texture filtering stats, summed over stripes.
        let mut tex = SampleStats::default();
        for s in &mut self.stripes {
            let t = s.texunit.take_sample_stats();
            tex.requests += t.requests;
            tex.bilinear_samples += t.bilinear_samples;
        }
        self.frame.tex_requests = tex.requests;
        self.frame.bilinear_samples = tex.bilinear_samples;

        let traffic = self.mem.end_frame();
        if self.telemetry.as_ref().is_some_and(Collector::enabled) {
            // Cache counters are cumulative on the simulator side; the
            // collector converts them to per-frame deltas internally. The
            // frame index comes from the stats history, so it is correct
            // after a checkpoint resume too.
            let sample = self.frame_sample(&traffic);
            let tick = self.tick;
            if let Some(t) = self.telemetry.as_mut() {
                t.end_frame(tick, sample);
            }
        }
        let frame = std::mem::take(&mut self.frame);
        self.stats.push_frame(frame);
    }

    /// Builds the telemetry row for the frame being retired. Cache fields
    /// are the *cumulative* counters; [`Collector::end_frame`] differences
    /// them against the previous frame.
    fn frame_sample(&self, traffic: &FrameTraffic) -> FrameSample {
        let z = self.z_cache_stats();
        let color = self.color_cache_stats();
        let (mut l0, mut l1) = ((0u64, 0u64), (0u64, 0u64));
        for s in &self.stripes {
            let [a, b] = s.texunit.cache_hit_counts();
            l0 = (l0.0 + a.0, l0.1 + a.1);
            l1 = (l1.0 + b.0, l1.1 + b.1);
        }
        let parts = traffic.parts();
        FrameSample {
            frame: self.stats.frames().len() as u64,
            end_tick: self.tick,
            batches: 0, // stamped by the collector from its draw count
            indices: self.frame.indices,
            shaded_vertices: self.frame.shaded_vertices,
            vcache_hits: self.frame.vcache_hits,
            triangles: self.frame.traversed,
            frags_raster: self.frame.frags_raster,
            frags_zst: self.frame.frags_zst,
            frags_shaded: self.frame.frags_shaded,
            frags_blended: self.frame.frags_blended,
            quads_raster: self.frame.quads_raster,
            quads_hz_removed: self.frame.quads_hz_removed,
            quads_zst_removed: self.frame.quads_zst_removed,
            quads_alpha_removed: self.frame.quads_alpha_removed,
            tex_requests: self.frame.tex_requests,
            bilinear_samples: self.frame.bilinear_samples,
            z_accesses: z.accesses,
            z_hits: z.hits,
            color_accesses: color.accesses,
            color_hits: color.hits,
            tex_l0_accesses: l0.0,
            tex_l0_hits: l0.1,
            tex_l1_accesses: l1.0,
            tex_l1_hits: l1.1,
            bw_read: parts.iter().map(|c| c.read).collect(),
            bw_written: parts.iter().map(|c| c.written).collect(),
        }
    }
}

impl Gpu {
    /// Executes one command; classified faults bubble up as [`SimError`].
    fn execute(&mut self, command: &Command) -> Result<(), SimError> {
        match command {
            Command::CreateVertexBuffer { id, layout, data } => {
                let bytes = (data.len() / layout.attributes.max(1) as usize) as u64
                    * layout.stride_bytes as u64;
                self.check_alloc(bytes.max(1))?;
                // The address is not kept, but the allocation shapes the
                // VRAM layout a checkpoint restore must reproduce.
                self.vram.alloc(bytes.max(1), 256);
                self.vertex_buffers
                    .insert(*id, VertexBufferRes { layout: *layout, data: data.clone() });
                // Upload: CP writes the buffer into GPU memory.
                self.mem.write(MemClient::CommandProcessor, bytes);
                self.creation_log.push(command.clone());
            }
            Command::CreateIndexBuffer { id, indices } => {
                let bytes = indices.total_bytes();
                self.check_alloc(bytes.max(1))?;
                self.vram.alloc(bytes.max(1), 256); // layout only, as above
                self.index_buffers.insert(*id, indices.clone());
                self.mem.write(MemClient::CommandProcessor, bytes);
                self.creation_log.push(command.clone());
            }
            Command::CreateTexture { id, image, format, mipmaps, sampler } => {
                self.check_alloc(Texture::footprint_bytes(image, *format, *mipmaps))?;
                let tex = Texture::from_image(image, *format, *mipmaps, &mut self.vram);
                self.mem.write(MemClient::CommandProcessor, tex.memory_bytes());
                self.textures.insert(*id, (tex, *sampler));
                self.creation_log.push(command.clone());
            }
            Command::CreateProgram { id, program } => {
                self.programs.insert(*id, program.clone());
                self.creation_log.push(command.clone());
            }
            Command::State(state) => match state {
                StateCommand::Depth(d) => self.depth_state = *d,
                StateCommand::StencilFront(s) => self.stencil_front = *s,
                StateCommand::StencilBack(s) => self.stencil_back = *s,
                StateCommand::Cull(c) => self.cull = *c,
                StateCommand::FrontFaceWinding(w) => self.front_face = *w,
                StateCommand::Blend(b) => self.blend = *b,
                StateCommand::ColorMask(m) => self.color_mask = *m,
                StateCommand::AlphaTest { enabled, reference } => {
                    self.alpha_test = enabled.then_some(*reference);
                }
                StateCommand::BindTexture { unit, texture } => {
                    self.tex_bindings.insert(*unit, *texture);
                }
                StateCommand::BindPrograms { vertex, fragment } => {
                    self.bound_vertex = Some(*vertex);
                    self.bound_fragment = Some(*fragment);
                }
                StateCommand::VertexConstants { base, values } => {
                    Self::check_constants(
                        self.bound_vertex,
                        *base,
                        values.len(),
                        self.vs_machine.constant_count(),
                    )?;
                    for (i, v) in values.iter().enumerate() {
                        self.vs_machine.set_constant(*base as usize + i, *v);
                    }
                }
                StateCommand::FragmentConstants { base, values } => {
                    Self::check_constants(
                        self.bound_fragment,
                        *base,
                        values.len(),
                        self.fs_machine.constant_count(),
                    )?;
                    for (i, v) in values.iter().enumerate() {
                        self.fs_machine.set_constant(*base as usize + i, *v);
                    }
                }
            },
            Command::Clear { mask, color, depth, stencil } => {
                self.clear(*mask, *color, *depth, *stencil);
                if let Some(t) = self.telemetry.as_mut() {
                    let tick = self.tick;
                    t.record_clear(tick);
                }
            }
            Command::Draw { vertex_buffer, index_buffer, primitive, first, count } => {
                // Each draw's geometry plan starts with an empty
                // post-transform cache: tags are indices into one buffer.
                self.draw(*vertex_buffer, *index_buffer, *primitive, *first, *count)?;
            }
            Command::EndFrame => self.end_frame(),
        }
        // Injected memory corruption observed while executing this command
        // classifies the command as faulted.
        if let Some((client, count)) = self.mem.take_injected_faults() {
            return Err(SimError::MemoryFault { client, count });
        }
        Ok(())
    }

    /// Executes one command, reporting classified faults.
    ///
    /// The configured [`FaultPolicy`] decides what `Err` means for the
    /// replay: under [`FaultPolicy::Strict`] every fault is surfaced and
    /// the offending command is dropped; under the lenient policies
    /// faults are absorbed (`Ok`), counted in [`SimStats`], and work is
    /// dropped at batch or frame granularity instead.
    pub fn try_consume(&mut self, command: &Command) -> Result<(), SimError> {
        // One work tick per consumed command — charged against the budget
        // token and advanced on the telemetry clock alike, skip or no skip,
        // so the clock is a pure function of the command stream.
        self.tick += 1;
        // A tripped cancellation token stops all execution (no CP fetch,
        // no statistics): the supervisor has already decided this run's
        // results are void, so the only job left is to drain the stream
        // cheaply and hand control back to the replay loop.
        if let Some(tok) = &self.cancel {
            tok.charge(1);
            if tok.is_cancelled() {
                return Ok(());
            }
        }
        if self.skip_frame {
            if matches!(command, Command::EndFrame) {
                self.skip_frame = false;
                // The frame still retires so the run's frame count is
                // stable under SkipFrame.
            } else {
                // Rest of the frame is dropped: no CP fetch, no execution.
                return Ok(());
            }
        }
        // Command processor fetch traffic.
        self.mem.read(MemClient::CommandProcessor, CP_BYTES_PER_COMMAND);
        match self.execute(command) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.stats.record_fault(e.kind());
                if self.first_error.is_none() {
                    self.first_error = Some(e.clone());
                }
                match self.config.fault_policy {
                    FaultPolicy::Strict => Err(e),
                    FaultPolicy::SkipBatch => {
                        self.frame.dropped_batches += 1;
                        Ok(())
                    }
                    FaultPolicy::SkipFrame => {
                        if !matches!(command, Command::EndFrame) {
                            self.skip_frame = true;
                        }
                        self.frame.dropped_frames += 1;
                        Ok(())
                    }
                }
            }
        }
    }
}

impl CommandSink for Gpu {
    fn consume(&mut self, command: &Command) {
        // The infallible path: faults are still classified and counted
        // (see [`Gpu::first_error`]), the command stream keeps flowing.
        let _ = self.try_consume(command);
    }
}

// ---- checkpoint / restart ---------------------------------------------

fn block_state_tag(s: BlockState) -> u8 {
    match s {
        BlockState::FastCleared => 0,
        BlockState::Compressed25 => 1,
        BlockState::Compressed50 => 2,
        BlockState::Uncompressed => 3,
    }
}

fn block_state_from(tag: u8) -> Result<BlockState, CheckpointError> {
    Ok(match tag {
        0 => BlockState::FastCleared,
        1 => BlockState::Compressed25,
        2 => BlockState::Compressed50,
        3 => BlockState::Uncompressed,
        _ => return Err(CheckpointError::Corrupt("invalid block compression state")),
    })
}

fn write_cache(e: &mut Enc, cache: &Cache) {
    let (lines, clock, stats) = cache.snapshot();
    e.u32(lines.len() as u32);
    for l in lines {
        e.u64(l.tag);
        e.u8(l.valid as u8 | (l.dirty as u8) << 1);
        e.u64(l.stamp);
    }
    e.u64(clock);
    e.u64(stats.accesses);
    e.u64(stats.hits);
    e.u64(stats.fills);
    e.u64(stats.writebacks);
}

fn read_cache(d: &mut Dec<'_>, config: CacheConfig) -> Result<Cache, CheckpointError> {
    let n = d.u32()? as usize;
    if n != config.ways * config.sets {
        return Err(CheckpointError::Corrupt("cache geometry differs from configuration"));
    }
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = d.u64()?;
        let flags = d.u8()?;
        let stamp = d.u64()?;
        lines.push(LineState { tag, valid: flags & 1 != 0, dirty: flags & 2 != 0, stamp });
    }
    let clock = d.u64()?;
    let stats = CacheStats {
        accesses: d.u64()?,
        hits: d.u64()?,
        fills: d.u64()?,
        writebacks: d.u64()?,
    };
    Cache::restore(config, &lines, clock, stats)
        .map_err(|_| CheckpointError::Corrupt("cache set holds one tag in two valid ways"))
}

fn read_opt_u32(d: &mut Dec<'_>) -> Result<Option<u32>, CheckpointError> {
    Ok(match d.u8()? {
        0 => None,
        _ => Some(d.u32()?),
    })
}

fn read_exec_stats(d: &mut Dec<'_>) -> Result<ExecStats, CheckpointError> {
    Ok(ExecStats { instructions: d.u64()?, texture_instructions: d.u64()? })
}

impl Gpu {
    /// Serializes the complete GPU state as a `GWCK` checkpoint blob.
    ///
    /// Only valid at a frame boundary (immediately after consuming an
    /// [`Command::EndFrame`]): in-flight per-frame state is then empty by
    /// construction and is not serialized. A GPU rebuilt from the blob with
    /// [`Gpu::restore_checkpoint`] replays the remaining trace to
    /// bit-identical statistics.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        debug_assert_eq!(
            self.frame,
            FrameSimStats::default(),
            "checkpoints are only taken at frame boundaries"
        );
        debug_assert_eq!(self.vs_prev, *self.vs_machine.stats());
        debug_assert_eq!(self.fs_prev, *self.fs_machine.stats());

        let mut w = SectionWriter::new();

        // CONF: geometry + stripe layout + allocator fingerprint,
        // validated on restore. The stripe layout shapes the cache records
        // in FRAM (and the statistics a resumed run will produce), so a
        // restore under a different layout must fail loudly. The *thread*
        // count is deliberately not recorded: any worker count replays a
        // checkpoint to bit-identical results.
        let mut conf = Enc::default();
        conf.u32(self.config.width);
        conf.u32(self.config.height);
        conf.u32(self.config.stripe_rows);
        conf.u64(self.vram.allocated_bytes());
        conf.u32(self.stats.frames().len() as u32);
        // The work-tick clock, so a resumed run's telemetry timebase
        // continues instead of restarting at zero. The clock advances
        // whether or not telemetry is attached, so this value — and hence
        // the checkpoint bytes — never depends on observation.
        conf.u64(self.tick);
        w.section(*b"CONF", &conf.buf);

        // RSRC: the resource-creation log (GWCT command records).
        w.section(*b"RSRC", &encode_commands(&self.creation_log));

        // BIND: raw program bindings, then the remaining bound state as
        // synthesized state commands replayed through the normal path.
        let mut bind = Enc::default();
        for bound in [self.bound_vertex, self.bound_fragment] {
            match bound {
                Some(id) => {
                    bind.u8(1);
                    bind.u32(id);
                }
                None => bind.u8(0),
            }
        }
        let mut states = vec![
            Command::State(StateCommand::Depth(self.depth_state)),
            Command::State(StateCommand::StencilFront(self.stencil_front)),
            Command::State(StateCommand::StencilBack(self.stencil_back)),
            Command::State(StateCommand::Cull(self.cull)),
            Command::State(StateCommand::FrontFaceWinding(self.front_face)),
            Command::State(StateCommand::Blend(self.blend)),
            Command::State(StateCommand::ColorMask(self.color_mask)),
            Command::State(StateCommand::AlphaTest {
                enabled: self.alpha_test.is_some(),
                reference: self.alpha_test.unwrap_or(0.0),
            }),
        ];
        let mut units: Vec<(u8, u32)> = self.tex_bindings.iter().map(|(&u, &t)| (u, t)).collect();
        units.sort_unstable();
        for (unit, texture) in units {
            states.push(Command::State(StateCommand::BindTexture { unit, texture }));
        }
        states.push(Command::State(StateCommand::VertexConstants {
            base: 0,
            values: (0..self.vs_machine.constant_count()).map(|i| self.vs_machine.constant(i)).collect(),
        }));
        states.push(Command::State(StateCommand::FragmentConstants {
            base: 0,
            values: (0..self.fs_machine.constant_count()).map(|i| self.fs_machine.constant(i)).collect(),
        }));
        bind.bytes(&encode_commands(&states));
        w.section(*b"BIND", &bind.buf);

        // STAT: per-frame counters, fault counters, shader exec totals.
        let mut stat = Enc::default();
        stat.u32(self.stats.frames().len() as u32);
        for f in self.stats.frames() {
            for c in f.to_counters() {
                stat.u64(c);
            }
        }
        for c in self.stats.raw_fault_counts() {
            stat.u64(c);
        }
        for s in [self.vs_machine.stats(), self.fs_machine.stats()] {
            stat.u64(s.instructions);
            stat.u64(s.texture_instructions);
        }
        w.section(*b"STAT", &stat.buf);

        // MEMC: per-frame memory traffic history.
        let mut memc = Enc::default();
        memc.u32(self.mem.frames().len() as u32);
        for f in self.mem.frames() {
            for c in MemClient::ALL {
                let t = f.client(c);
                memc.u64(t.read);
                memc.u64(t.written);
            }
        }
        w.section(*b"MEMC", &memc.buf);

        // FRAM: framebuffer surfaces, HZ, compression directories, caches.
        let mut fram = Enc::default();
        for &p in self.colorbuffer.raw_pixels() {
            fram.u32(p);
        }
        let (depth, stencil) = self.zbuffer.planes();
        for &z in depth {
            fram.f32(z);
        }
        fram.bytes(stencil);
        let (max_z, dirty, tested, rejected) = self.hz.snapshot();
        for &z in max_z {
            fram.f32(z);
        }
        for &d in dirty {
            fram.u8(d as u8);
        }
        fram.u64(tested);
        fram.u64(rejected);
        for dir in [&self.z_dir, &self.color_dir] {
            for &s in dir.states() {
                fram.u8(block_state_tag(s));
            }
        }
        fram.u32(self.stripes.len() as u32);
        for s in &self.stripes {
            let (l0, l1) = s.texunit.caches();
            for cache in [&s.z_cache, &s.color_cache, l0, l1] {
                write_cache(&mut fram, cache);
            }
        }
        w.section(*b"FRAM", &fram.buf);

        w.finish()
    }

    /// Rebuilds a GPU from a [`Gpu::save_checkpoint`] blob.
    ///
    /// `config` must match the configuration the checkpoint was taken
    /// under (resolution and cache geometry are validated). Resources are
    /// rebuilt by replaying the creation log, which reproduces the exact
    /// VRAM layout; everything else is restored from the blob. The
    /// [`gwc_mem::MemoryController`] fault injector is *not* serialized —
    /// re-arm it after restoring if the run used injection.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on framing, CRC, or consistency
    /// failures.
    pub fn restore_checkpoint(config: GpuConfig, bytes: &[u8]) -> Result<Gpu, CheckpointError> {
        let sections = checkpoint::read_sections(bytes)?;

        let mut conf = Dec::new(checkpoint::require(&sections, *b"CONF")?);
        if (conf.u32()?, conf.u32()?) != (config.width, config.height) {
            return Err(CheckpointError::Corrupt("checkpoint resolution differs from configuration"));
        }
        if conf.u32()? != config.stripe_rows {
            return Err(CheckpointError::Corrupt(
                "checkpoint stripe layout differs from configuration",
            ));
        }
        let vram_allocated = conf.u64()?;
        let frame_count = conf.u32()? as usize;
        let tick = conf.u64()?;

        let mut gpu = Gpu::new(config);
        // Resource/state replay below goes through `execute`, which does
        // not touch the work-tick clock, so restoring it first is safe.
        gpu.tick = tick;

        // Resources: replay the creation log through the normal execution
        // path; deterministic bump allocation reproduces every address.
        let log = decode_commands(checkpoint::require(&sections, *b"RSRC")?)
            .map_err(|_| CheckpointError::Corrupt("resource log failed to decode"))?;
        for c in &log {
            if !matches!(
                c,
                Command::CreateVertexBuffer { .. }
                    | Command::CreateIndexBuffer { .. }
                    | Command::CreateTexture { .. }
                    | Command::CreateProgram { .. }
            ) {
                return Err(CheckpointError::Corrupt("non-creation command in resource log"));
            }
            gpu.execute(c)
                .map_err(|_| CheckpointError::Corrupt("resource log failed to replay"))?;
        }
        if gpu.vram.allocated_bytes() != vram_allocated {
            return Err(CheckpointError::Corrupt("VRAM layout mismatch after resource replay"));
        }

        // Bound state.
        let bind_payload = checkpoint::require(&sections, *b"BIND")?;
        let mut bind = Dec::new(bind_payload);
        let bound_vertex = read_opt_u32(&mut bind)?;
        let bound_fragment = read_opt_u32(&mut bind)?;
        let states = decode_commands(bind.rest())
            .map_err(|_| CheckpointError::Corrupt("bound state failed to decode"))?;
        for c in &states {
            if !matches!(c, Command::State(_)) {
                return Err(CheckpointError::Corrupt("non-state command in bound-state log"));
            }
            gpu.execute(c)
                .map_err(|_| CheckpointError::Corrupt("bound state failed to replay"))?;
        }
        gpu.bound_vertex = bound_vertex;
        gpu.bound_fragment = bound_fragment;

        // Statistics.
        let mut stat = Dec::new(checkpoint::require(&sections, *b"STAT")?);
        let n = stat.u32()? as usize;
        if n != frame_count {
            return Err(CheckpointError::Corrupt("frame count disagrees between sections"));
        }
        let mut frames = Vec::with_capacity(n);
        let mut counters = vec![0u64; FrameSimStats::FIELD_COUNT];
        for _ in 0..n {
            for c in counters.iter_mut() {
                *c = stat.u64()?;
            }
            frames.push(FrameSimStats::from_counters(&counters));
        }
        let mut faults = [0u64; FaultKind::ALL.len()];
        for f in &mut faults {
            *f = stat.u64()?;
        }
        gpu.stats = SimStats::restore(frames, faults);
        let vs = read_exec_stats(&mut stat)?;
        let fs = read_exec_stats(&mut stat)?;
        gpu.vs_machine.restore_stats(vs);
        gpu.fs_machine.restore_stats(fs);
        gpu.vs_prev = vs;
        gpu.fs_prev = fs;

        // Memory traffic history.
        let mut memc = Dec::new(checkpoint::require(&sections, *b"MEMC")?);
        let n = memc.u32()? as usize;
        let mut mem_frames = Vec::with_capacity(n);
        for _ in 0..n {
            let mut clients = [ClientTraffic::default(); 6];
            for c in &mut clients {
                c.read = memc.u64()?;
                c.written = memc.u64()?;
            }
            mem_frames.push(FrameTraffic::from_parts(clients));
        }
        gpu.mem = MemoryController::restore(mem_frames);

        // Framebuffer state.
        let mut fram = Dec::new(checkpoint::require(&sections, *b"FRAM")?);
        let n_px = (config.width * config.height) as usize;
        let mut pixels = Vec::with_capacity(n_px);
        for _ in 0..n_px {
            pixels.push(fram.u32()?);
        }
        gpu.colorbuffer = ColorBuffer::restore(config.width, config.height, pixels);
        let mut depth = Vec::with_capacity(n_px);
        for _ in 0..n_px {
            depth.push(fram.f32()?);
        }
        let stencil = fram.take(n_px)?.to_vec();
        gpu.zbuffer = DepthStencilBuffer::restore(config.width, config.height, depth, stencil);
        let n_blocks = (config.width.div_ceil(8) * config.height.div_ceil(8)) as usize;
        let mut max_z = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            max_z.push(fram.f32()?);
        }
        let mut dirty = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            dirty.push(fram.u8()? != 0);
        }
        let tested = fram.u64()?;
        let rejected = fram.u64()?;
        gpu.hz =
            HzBuffer::restore(config.width, config.height, max_z, dirty, tested, rejected);
        let read_dir = |fram: &mut Dec<'_>| -> Result<CompressionDirectory, CheckpointError> {
            let mut states = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                states.push(block_state_from(fram.u8()?)?);
            }
            Ok(CompressionDirectory::restore(config.width, config.height, states))
        };
        gpu.z_dir = read_dir(&mut fram)?;
        gpu.color_dir = read_dir(&mut fram)?;
        if fram.u32()? as usize != gpu.stripes.len() {
            return Err(CheckpointError::Corrupt("stripe count differs from configuration"));
        }
        for i in 0..gpu.stripes.len() {
            let z = read_cache(&mut fram, CacheConfig::Z_STENCIL)?;
            let color = read_cache(&mut fram, CacheConfig::COLOR)?;
            let l0 = read_cache(&mut fram, CacheConfig::TEXTURE_L0)?;
            let l1 = read_cache(&mut fram, CacheConfig::TEXTURE_L1)?;
            let s = &mut gpu.stripes[i];
            s.z_cache = z;
            s.color_cache = color;
            s.texunit.restore_caches(l0, l1);
        }
        if !fram.done() {
            return Err(CheckpointError::Corrupt("trailing bytes in framebuffer section"));
        }

        Ok(gpu)
    }
}
