//! The chunked, batch-ordered parallel geometry front end.
//!
//! Replaces the serial per-triangle fetch→shade→clip→cull→setup loop with
//! three phases whose parallelism is invisible in every result:
//!
//! 1. **Plan** (serial, cheap): walk the index stream in triangle order,
//!    simulating the post-transform cache on index *tags* alone — a FIFO
//!    of `vertex_cache_entries` slots that starts empty for every draw (a
//!    test diffs it against a payload-carrying reference cache). Produces
//!    the miss list (vertices that must be shaded, in first-use order) and,
//!    per triangle, the three miss-list slots it assembles from.
//! 2. **Shade** (parallel): the miss list is cut into fixed-size chunks;
//!    each chunk clones the vertex-shader prototype (master constants,
//!    zeroed statistics) and writes shaded vertices into its disjoint
//!    output slice.
//! 3. **Assemble** (parallel): triangles are cut into fixed-size chunks;
//!    each chunk clips, culls and sets up its triangles, collecting
//!    survivors and a [`GeomShard`] of counters.
//!
//! Chunk boundaries depend only on the fixed [`CHUNK`] size and the
//! command stream — never on the worker count — and every merged quantity
//! is an exact integer sum reduced in ascending chunk order, so any worker
//! count is bit-identical to the serial loop this replaces (the same
//! contract the fragment stripes honor). Faults are resolved to the
//! *earliest* fetch or triangle in serial order, and the returned counters
//! are recomputed for exactly the prefix the serial loop would have
//! executed before stopping.

use gwc_api::Indices;
use gwc_math::Vec4;
use gwc_raster::{clip_near, ClipResult, CullMode, FrontFace, PrimitiveType, ShadedVertex,
                 StencilState, TriangleSetup, Viewport, MAX_VARYINGS};
use gwc_shader::{ExecStats, Program, ShaderMachine};
use gwc_stats::GeomShard;

use crate::budget::CancelToken;
use crate::error::SimError;

/// Vertices/triangles per chunk — the unit of geometry-stage parallelism.
/// Pure scheduling: chunk boundaries partition fixed, batch-ordered work
/// and every merged statistic is an exact sum, so the size is invisible in
/// results (and is not serialized in checkpoints).
const CHUNK: usize = 64;

/// Fixed-function state sampled at draw time for clip, cull and setup.
#[derive(Clone, Copy)]
pub(crate) struct SetupState {
    pub viewport: Viewport,
    pub cull: CullMode,
    pub front_face: FrontFace,
    pub stencil_front: StencilState,
    pub stencil_back: StencilState,
}

/// Everything one draw's geometry needs, borrowed from the GPU.
pub(crate) struct GeomRequest<'a> {
    /// Vertex buffer contents.
    pub data: &'a [Vec4],
    /// Attributes per vertex (`layout.attributes.max(1)`).
    pub attrs: usize,
    /// Bytes fetched from memory per shaded vertex.
    pub stride_bytes: u64,
    /// Vertex buffer id, for fault reporting.
    pub vertex_buffer: u32,
    /// Index buffer contents.
    pub indices: &'a Indices,
    /// First index of the draw range.
    pub first: usize,
    /// Primitive topology.
    pub primitive: PrimitiveType,
    /// Triangles in the draw (`primitive.triangle_count(count)`).
    pub tri_count: usize,
    /// The bound vertex program.
    pub program: &'a Program,
    /// Vertex-shader prototype: master constants, zeroed statistics.
    pub vs_proto: ShaderMachine,
    /// Post-transform cache capacity in entries.
    pub cache_entries: usize,
    /// Geometry worker count. Any value is bit-identical.
    pub workers: usize,
    /// Clip/cull/setup state snapshot.
    pub setup: SetupState,
    /// Optional cooperative cancellation token.
    pub cancel: Option<&'a CancelToken>,
}

/// One draw's geometry result, ready for the GPU to commit.
pub(crate) struct GeomOutput {
    /// Post-clip survivors in exact serial emission order, ready for the
    /// fragment flush.
    pub tris: Vec<(TriangleSetup, StencilState)>,
    /// Exact geometry counters for the executed prefix of the draw.
    pub shard: GeomShard,
    /// Vertex-shader statistics delta, to merge into the master machine.
    pub vs_delta: ExecStats,
    /// Work ticks the serial loop would have advanced (one per triangle
    /// reached, including a faulting one).
    pub ticks: u64,
    /// The earliest serial-order fault, if any. `tris` is empty when set —
    /// a faulted draw never reaches fragment work.
    pub error: Option<SimError>,
    /// The cancellation token tripped mid-run; nothing should be
    /// committed (the supervisor discards the run).
    pub cancelled: bool,
}

impl GeomOutput {
    fn tripped() -> GeomOutput {
        GeomOutput {
            tris: Vec::new(),
            shard: GeomShard::default(),
            vs_delta: ExecStats::default(),
            ticks: 0,
            error: None,
            cancelled: true,
        }
    }
}

// ---- phase 1: serial plan ---------------------------------------------

/// The serial walk's output: which vertices to shade and how triangles
/// reference them.
struct Plan {
    /// Vertex index per post-transform cache miss, in first-use order.
    fetches: Vec<u32>,
    /// Per fully-planned triangle, the miss-list slot of each corner.
    tri_slots: Vec<[u32; 3]>,
    /// Slots of the triangle in progress when planning stopped at an
    /// out-of-range index (empty otherwise).
    partial: Vec<u32>,
    /// Index-stream lookups, including the failing slot of a stopped plan.
    lookups: u64,
    /// Post-transform cache hits.
    hits: u64,
    /// Out-of-range vertex index that stopped the plan, if any.
    oor: Option<u32>,
}

/// Walks the index stream in triangle order, simulating the FIFO
/// post-transform cache on tags alone. Fetch ids are assigned in slot
/// order, so a hit always references a strictly smaller id than any
/// later miss — the invariant the fault-truncation walk relies on.
fn plan(req: &GeomRequest<'_>) -> Plan {
    let mut p = Plan {
        fetches: Vec::new(),
        tri_slots: Vec::with_capacity(req.tri_count),
        partial: Vec::new(),
        lookups: 0,
        hits: 0,
        oor: None,
    };
    let capacity = req.cache_entries.max(1);
    // (vertex index, fetch id) pairs; replacement mirrors VertexCache:
    // fill to capacity, then overwrite at a wrapping pointer.
    let mut entries: Vec<(u32, u32)> = Vec::with_capacity(capacity);
    let mut next_evict = 0usize;
    'tri: for t in 0..req.tri_count {
        let (i0, i1, i2) = req.primitive.triangle_indices(t);
        let mut slots = [0u32; 3];
        for (k, pos) in [i0, i1, i2].into_iter().enumerate() {
            let idx = req.indices.get(req.first + pos);
            p.lookups += 1;
            if let Some(&(_, fid)) = entries.iter().find(|(tag, _)| *tag == idx) {
                p.hits += 1;
                slots[k] = fid;
                continue;
            }
            let base = idx as usize * req.attrs;
            if base + req.attrs > req.data.len() {
                p.oor = Some(idx);
                p.partial = slots[..k].to_vec();
                break 'tri;
            }
            let fid = p.fetches.len() as u32;
            p.fetches.push(idx);
            if entries.len() < capacity {
                entries.push((idx, fid));
            } else {
                entries[next_evict] = (idx, fid);
                next_evict = (next_evict + 1) % capacity;
            }
            slots[k] = fid;
        }
        p.tri_slots.push(slots);
    }
    p
}

// ---- chunk scheduling --------------------------------------------------

/// Runs `jobs` through `f`, returning results in job order. With more
/// than one worker, jobs are dealt round-robin (worker `w` owns jobs
/// `w, w+W, …`) under a `std::thread::scope` — purely a scheduling
/// choice, invisible in the results. Worker 0 is the calling thread, so
/// `W` workers cost `W − 1` spawns. A panic resurfaces here with the
/// lowest panicking worker's payload, after every worker has finished.
pub(crate) fn run_chunks<J: Send, R: Send>(
    jobs: Vec<J>,
    workers: usize,
    f: impl Fn(usize, J) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(jobs.len()).max(1);
    if workers == 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let mut buckets: Vec<Vec<(usize, J)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        buckets[i % workers].push((i, job));
    }
    let run = |bucket: Vec<(usize, J)>| {
        bucket.into_iter().map(|(i, j)| (i, f(i, j))).collect::<Vec<_>>()
    };
    let own = std::mem::take(&mut buckets[0]);
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> =
            buckets.into_iter().skip(1).map(|bucket| scope.spawn(move || run(bucket))).collect();
        let mut out = run(own);
        for h in handles {
            match h.join() {
                Ok(results) => out.extend(results),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

// ---- phase 2: chunked vertex shading ----------------------------------

struct ShadeChunk {
    /// Vertices shaded to completion (finite clip position).
    shaded: u64,
    /// Shader invocations, including one that produced a non-finite
    /// position (the serial loop fetched and ran it before faulting).
    executed: u64,
    /// This chunk's shader statistics delta.
    vs_delta: ExecStats,
    /// Global fetch id of the first non-finite result, if any.
    bad: Option<u32>,
    /// Token was already tripped when the chunk started.
    cancelled: bool,
}

fn shade_chunk(
    req: &GeomRequest<'_>,
    base_fid: u32,
    idxs: &[u32],
    out: &mut [ShadedVertex],
) -> ShadeChunk {
    let mut c = ShadeChunk {
        shaded: 0,
        executed: 0,
        vs_delta: ExecStats::default(),
        bad: None,
        cancelled: false,
    };
    if req.cancel.is_some_and(|t| t.is_cancelled()) {
        c.cancelled = true;
        return c;
    }
    let mut vs = req.vs_proto.clone();
    for (j, (&idx, slot)) in idxs.iter().zip(out.iter_mut()).enumerate() {
        let base = idx as usize * req.attrs;
        let inputs = &req.data[base..base + req.attrs];
        let outputs = vs.run_vertex(req.program, inputs);
        c.executed += 1;
        let clip = outputs[0];
        if !(clip.x.is_finite() && clip.y.is_finite() && clip.z.is_finite() && clip.w.is_finite())
        {
            c.bad = Some(base_fid + j as u32);
            break;
        }
        let mut varyings = [Vec4::ZERO; MAX_VARYINGS];
        varyings.copy_from_slice(&outputs[1..1 + MAX_VARYINGS]);
        *slot = ShadedVertex { clip, varyings };
        c.shaded += 1;
    }
    c.vs_delta = *vs.stats();
    c
}

// ---- phase 3: chunked clip / cull / setup -----------------------------

struct SetupChunk {
    tris: Vec<(TriangleSetup, StencilState)>,
    shard: GeomShard,
    cancelled: bool,
}

fn setup_chunk(
    st: &SetupState,
    cancel: Option<&CancelToken>,
    slots: &[[u32; 3]],
    shaded: &[ShadedVertex],
) -> SetupChunk {
    let mut c = SetupChunk { tris: Vec::new(), shard: GeomShard::default(), cancelled: false };
    if let Some(tok) = cancel {
        // Same total budget charge as the serial loop's one tick per
        // assembled triangle, paid a chunk at a time. Tripped runs are
        // discarded, so the coarser trip granularity is unobservable.
        tok.charge(slots.len() as u64);
        if tok.is_cancelled() {
            c.cancelled = true;
            return c;
        }
    }
    for s in slots {
        let tri = [shaded[s[0] as usize], shaded[s[1] as usize], shaded[s[2] as usize]];
        c.shard.assembled += 1;
        match clip_near(&tri) {
            ClipResult::Rejected => c.shard.clipped += 1,
            ClipResult::Accepted => setup_one(st, &tri, true, &mut c),
            ClipResult::Clipped(clipped) => {
                for sub in &clipped {
                    setup_one(st, sub, false, &mut c);
                }
            }
        }
    }
    c
}

/// Sets up one post-clip triangle; survivors land in the chunk with the
/// stencil face state they selected. Mirrors the serial `setup_triangle`.
fn setup_one(st: &SetupState, tri: &[ShadedVertex; 3], count_cull: bool, c: &mut SetupChunk) {
    let Some(setup) = TriangleSetup::new(tri, &st.viewport) else {
        // Degenerate / zero-area: discarded at setup.
        if count_cull {
            c.shard.culled += 1;
        }
        return;
    };
    if setup.is_culled(st.cull, st.front_face) {
        if count_cull {
            c.shard.culled += 1;
        }
        return;
    }
    c.shard.setup += 1;
    let front_facing = setup.is_front_facing(st.front_face);
    let stencil = if front_facing { st.stencil_front } else { st.stencil_back };
    c.tris.push((setup, stencil));
}

// ---- driver ------------------------------------------------------------

/// Runs one draw's geometry. The output is bit-identical for every
/// `workers` value: chunk shards reduce in ascending chunk order and all
/// counters are exact sums.
pub(crate) fn run(req: &GeomRequest<'_>) -> GeomOutput {
    let plan = plan(req);

    // Phase 2 — shade the miss list in parallel chunks writing disjoint
    // slices of the shared output buffer.
    let mut shaded = vec![ShadedVertex::at(Vec4::ZERO); plan.fetches.len()];
    let shade_jobs: Vec<(&[u32], &mut [ShadedVertex])> =
        plan.fetches.chunks(CHUNK).zip(shaded.chunks_mut(CHUNK)).collect();
    let shade_chunks =
        run_chunks(shade_jobs, req.workers, |i, (idxs, out)| {
            shade_chunk(req, (i * CHUNK) as u32, idxs, out)
        });
    if shade_chunks.iter().any(|c| c.cancelled) {
        return GeomOutput::tripped();
    }
    // Reduce in chunk order up to (and including) the first faulted
    // chunk; later chunks are work the serial loop never did, so they
    // are discarded whole.
    let mut vs_delta = ExecStats::default();
    let (mut executed, mut shaded_count) = (0u64, 0u64);
    let mut bad = None;
    for c in &shade_chunks {
        vs_delta.merge(&c.vs_delta);
        executed += c.executed;
        shaded_count += c.shaded;
        if c.bad.is_some() {
            bad = c.bad;
            break;
        }
    }

    // Fault paths: a non-finite shade result always precedes an
    // out-of-range index in serial order (every planned fetch was issued
    // at a slot strictly before the slot that stopped the plan).
    if let Some(fid) = bad {
        return truncate_at_fetch(req, &plan, &shaded, fid, executed, shaded_count, vs_delta);
    }
    if let Some(index) = plan.oor {
        return truncate_at_range(req, &plan, &shaded, vs_delta, index);
    }

    // Phase 3 — clip/cull/setup in parallel triangle chunks; survivor
    // lists concatenate in chunk order, reproducing the serial emission
    // order exactly (rasterization order affects results).
    let setup_jobs: Vec<&[[u32; 3]]> = plan.tri_slots.chunks(CHUNK).collect();
    let setup_chunks = run_chunks(setup_jobs, req.workers, |_, slots| {
        setup_chunk(&req.setup, req.cancel, slots, &shaded)
    });
    if setup_chunks.iter().any(|c| c.cancelled) {
        return GeomOutput::tripped();
    }
    let mut shard = GeomShard {
        indices: plan.lookups,
        vcache_hits: plan.hits,
        fetched_vertices: plan.fetches.len() as u64,
        shaded_vertices: shaded_count,
        vs_instructions: vs_delta.instructions,
        vertex_bytes: plan.fetches.len() as u64 * req.stride_bytes,
        ..GeomShard::default()
    };
    let mut tris = Vec::new();
    for mut c in setup_chunks {
        shard.merge(&c.shard);
        tris.append(&mut c.tris);
    }
    GeomOutput {
        tris,
        shard,
        vs_delta,
        ticks: req.tri_count as u64,
        error: None,
        cancelled: false,
    }
}

/// A vertex shader produced a non-finite position at miss-list slot
/// `fid`. Recomputes exactly the prefix the serial loop executed before
/// faulting: lookups/hits up to the owning index slot, every fetch up to
/// and including `fid`, and full clip/cull/setup for the triangles
/// assembled before the owning one.
fn truncate_at_fetch(
    req: &GeomRequest<'_>,
    plan: &Plan,
    shaded: &[ShadedVertex],
    fid: u32,
    executed: u64,
    shaded_count: u64,
    vs_delta: ExecStats,
) -> GeomOutput {
    // Walk the plan to find the slot that issued fetch `fid`. A slot is a
    // miss exactly when its recorded id equals the next unissued id (hits
    // reference strictly smaller ids).
    let (mut lookups, mut hits) = (0u64, 0u64);
    let mut next_fid = 0u32;
    let mut err_tri = plan.tri_slots.len();
    let mut found = false;
    'walk: for (t, slots) in plan.tri_slots.iter().enumerate() {
        for &slot in slots {
            lookups += 1;
            if slot == next_fid {
                if slot == fid {
                    err_tri = t;
                    found = true;
                    break 'walk;
                }
                next_fid += 1;
            } else {
                hits += 1;
            }
        }
    }
    if !found {
        // The faulting fetch was issued by the triangle whose planning
        // stopped at an out-of-range index; its recorded slots walk the
        // same way.
        for &slot in &plan.partial {
            lookups += 1;
            if slot == next_fid {
                if slot == fid {
                    break;
                }
                next_fid += 1;
            } else {
                hits += 1;
            }
        }
        lookups += 1; // the faulting slot's own index lookup
    }

    // Clip/cull/setup for the fully assembled triangles before the fault.
    // All their fetch ids precede `fid`, so their shaded slots are valid.
    let sc = setup_chunk(&req.setup, req.cancel, &plan.tri_slots[..err_tri], shaded);
    if sc.cancelled {
        return GeomOutput::tripped();
    }
    if let Some(tok) = req.cancel {
        tok.charge(1); // the faulting triangle's own work tick
    }
    let mut shard = sc.shard;
    shard.indices = lookups;
    shard.vcache_hits = hits;
    shard.fetched_vertices = executed;
    shard.shaded_vertices = shaded_count;
    shard.vs_instructions = vs_delta.instructions;
    shard.vertex_bytes = executed * req.stride_bytes;
    GeomOutput {
        // A faulted draw aborts before any fragment work; survivors of the
        // prefix are unobservable and dropped.
        tris: Vec::new(),
        shard,
        vs_delta,
        ticks: err_tri as u64 + 1,
        error: Some(SimError::NonFiniteVertex {
            buffer: req.vertex_buffer,
            index: plan.fetches[fid as usize],
        }),
        cancelled: false,
    }
}

/// Planning stopped at an out-of-range vertex index (and every planned
/// fetch shaded cleanly). The serial loop executed everything the plan
/// recorded — including the stopped triangle's earlier slots — before
/// faulting at the bounds check.
fn truncate_at_range(
    req: &GeomRequest<'_>,
    plan: &Plan,
    shaded: &[ShadedVertex],
    vs_delta: ExecStats,
    index: u32,
) -> GeomOutput {
    let err_tri = plan.tri_slots.len();
    let sc = setup_chunk(&req.setup, req.cancel, &plan.tri_slots, shaded);
    if sc.cancelled {
        return GeomOutput::tripped();
    }
    if let Some(tok) = req.cancel {
        tok.charge(1); // the faulting triangle's own work tick
    }
    let mut shard = sc.shard;
    shard.indices = plan.lookups;
    shard.vcache_hits = plan.hits;
    shard.fetched_vertices = plan.fetches.len() as u64;
    shard.shaded_vertices = plan.fetches.len() as u64;
    shard.vs_instructions = vs_delta.instructions;
    shard.vertex_bytes = plan.fetches.len() as u64 * req.stride_bytes;
    GeomOutput {
        tris: Vec::new(),
        shard,
        vs_delta,
        ticks: err_tri as u64 + 1,
        error: Some(SimError::IndexOutOfRange {
            what: "vertex",
            index: index as u64,
            limit: (req.data.len() / req.attrs) as u64,
        }),
        cancelled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streamer::VertexCache;
    use gwc_api::Indices;

    /// The plan's tag-only FIFO must agree with the payload-carrying
    /// [`VertexCache`] on every stream: same hits, same miss order.
    #[test]
    fn plan_fifo_matches_vertex_cache() {
        let capacity = 4;
        // Pseudo-random index stream over a small vertex range so hits,
        // misses and evictions all occur.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut idxs = Vec::new();
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            idxs.push(((x >> 33) % 11) as u32);
        }
        let tri_count = idxs.len() / 3;

        // Reference: the real cache, payloads ignored.
        let mut cache = VertexCache::new(capacity);
        let mut ref_misses = Vec::new();
        for &i in &idxs[..tri_count * 3] {
            if cache.lookup(i).is_none() {
                cache.insert(i, ShadedVertex::at(Vec4::new(i as f32, 0.0, 0.0, 1.0)));
                ref_misses.push(i);
            }
        }

        // Plan over the same stream (data large enough that nothing is
        // out of range; attrs = 1).
        let data = vec![Vec4::ZERO; 16];
        let program = gwc_shader::Program::new(
            gwc_shader::ProgramKind::Vertex,
            "vs",
            vec![gwc_shader::Instr::mov(gwc_shader::Reg::out(0), gwc_shader::Src::input(0))],
        )
        .unwrap();
        let req = GeomRequest {
            data: &data,
            attrs: 1,
            stride_bytes: 16,
            vertex_buffer: 0,
            indices: &Indices::U32(idxs.clone()),
            first: 0,
            primitive: PrimitiveType::TriangleList,
            tri_count,
            program: &program,
            vs_proto: ShaderMachine::new(),
            cache_entries: capacity,
            workers: 1,
            setup: SetupState {
                viewport: Viewport::new(16, 16),
                cull: CullMode::default(),
                front_face: FrontFace::default(),
                stencil_front: StencilState::default(),
                stencil_back: StencilState::default(),
            },
            cancel: None,
        };
        let p = plan(&req);
        assert_eq!(p.lookups, cache.lookups());
        assert_eq!(p.hits, cache.hits());
        assert_eq!(p.fetches, ref_misses);
        assert_eq!(p.tri_slots.len(), tri_count);
        assert!(p.oor.is_none());
    }

    /// A panic in any worker, the calling thread's included, reaches the
    /// caller with its own payload.
    #[test]
    fn run_chunks_propagates_panics() {
        for bad in [0usize, 1, 5] {
            let caught = std::panic::catch_unwind(|| {
                run_chunks((0..6).collect(), 3, |i, _: usize| {
                    if i == bad {
                        std::panic::panic_any(i);
                    }
                    i
                })
            });
            assert_eq!(caught.unwrap_err().downcast_ref::<usize>(), Some(&bad));
        }
    }

    /// Chunk results come back in job order no matter the worker count.
    #[test]
    fn run_chunks_preserves_job_order() {
        let jobs: Vec<usize> = (0..37).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            let out = run_chunks(jobs.clone(), workers, |i, j| {
                assert_eq!(i, j);
                j * 10
            });
            assert_eq!(out, (0..37).map(|j| j * 10).collect::<Vec<_>>());
        }
    }
}
