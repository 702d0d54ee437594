//! The synthetic timedemo generator: turns a [`GameProfile`] into a
//! replayable API command stream.

use gwc_api::{ClearMask, Command, CommandSink, Indices, StateCommand, VertexLayout};
use gwc_math::{Mat4, Vec3, Vec4};
use gwc_raster::{BlendFactor, BlendState, CompareFunc, CullMode, DepthState, FrontFace,
                 PrimitiveType, StencilOp, StencilState};
use gwc_texture::{FilterMode, Image, SamplerState, TexFormat, WrapMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mesh::{self, Mesh, ATTRIBS};
use crate::profiles::{GameProfile, SceneKind};
use crate::shaders;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedemoConfig {
    /// Frames to generate (the paper's timedemos run 576–3990 frames;
    /// microarchitectural runs use a small window).
    pub frames: u32,
    /// RNG seed (combined with the profile name, so each demo differs).
    pub seed: u64,
}

impl Default for TimedemoConfig {
    fn default() -> Self {
        TimedemoConfig { frames: 2000, seed: 0x5EED }
    }
}

/// One drawable slice of the scene pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DrawSlice {
    vb: u32,
    ib: u32,
    first: u32,
    count: u32,
    material: u8,
    prim: PrimitiveType,
}

/// How many light passes shadowed engines render per frame.
const LIGHTS: u32 = 3;
/// Volume batches as a fraction of geometry batches (denominator).
const VOLUME_DIV: f64 = 4.0;
/// Number of materials (texture pairs) in the synthetic world.
const MATERIALS: u8 = 8;

/// Per-profile scene tuning: targets the simulated Tables VII, IX and XI.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SceneParams {
    /// Visible geometry depth complexity per pass (drives Table XI).
    depth_complexity: f64,
    /// Forward rendering passes (multipass texture/light blending; 1 for
    /// the shadowed path, which has its own pass structure).
    passes: u32,
    /// Target fraction of assembled triangles rejected by the clipper
    /// (Table VII), controlling the drawn ring window vs. the FOV.
    clip_target: f64,
    /// Screen coverage per shadow-volume quad.
    volume_coverage: f64,
    /// Share of batches that are closed spheres (feeds the culled count).
    sphere_share: f32,
    /// Share of batches that are glancing-angle floors (feeds anisotropy).
    floor_share: f32,
    /// Wall panel tilt range in radians (oblique walls back-face at the
    /// window edges, the other culled source).
    tilt: f32,
}

fn scene_params(profile: &GameProfile) -> SceneParams {
    match profile.engine {
        "Doom3" => SceneParams {
            depth_complexity: 1.6,
            passes: 1,
            clip_target: if profile.name.starts_with("Quake4") { 0.51 } else { 0.37 },
            volume_coverage: 0.022,
            sphere_share: 0.30,
            floor_share: 0.30,
            tilt: 0.75,
        },
        "Unreal 2.5" => SceneParams {
            depth_complexity: 0.85,
            passes: 5,
            clip_target: 0.30,
            volume_coverage: 0.0,
            sphere_share: 0.18,
            floor_share: 0.32,
            tilt: 0.40,
        },
        "Gamebryo" => SceneParams {
            depth_complexity: 1.5,
            passes: 1,
            clip_target: 0.35,
            volume_coverage: 0.0,
            sphere_share: 0.25,
            floor_share: 0.40,
            tilt: 0.6,
        },
        _ => SceneParams {
            depth_complexity: 1.4,
            passes: 2,
            clip_target: 0.37,
            volume_coverage: 0.0,
            sphere_share: 0.28,
            floor_share: 0.30,
            tilt: 0.6,
        },
    }
}

/// Horizontal field of view (radians) of the synthetic camera frustum
/// footprint used for coverage solving (75° vertical, 4:3 aspect).
const FOV: f64 = 1.31;

/// Derived per-frame pass structure (solved from Table III/XII targets).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PassPlan {
    /// Geometry batches per frame (average).
    geo_batches: f64,
    /// Shadow-volume batches per frame (average; 0 without shadows).
    volume_batches: f64,
    /// Indices per geometry batch.
    geo_indices: f64,
    /// Main/lighting fragment program: total instructions target.
    fs_total: f64,
    /// Main/lighting fragment program: texture instructions target.
    fs_tex: f64,
}

fn solve_plan(profile: &GameProfile) -> PassPlan {
    let b = profile.batches_per_frame();
    let i = profile.indices_per_frame;
    if profile.stencil_shadows {
        // Passes: 1 z-prepass (G batches) + LIGHTS × (V volumes + G
        // lighting). B = G (1 + L) + L·V, with V = G / VOLUME_DIV.
        let l = LIGHTS as f64;
        let g = b / (1.0 + l + l / VOLUME_DIV);
        let v = g / VOLUME_DIV;
        // Volume batches draw two closed quad pairs (4 quads, 24 indices).
        let volume_indices = 24.0;
        let geo_indices = (i - l * v * volume_indices) / (g * (1.0 + l));
        // Depth-only passes run a 1-instruction program; solve the lighting
        // program so the batch-weighted averages match Table XII.
        let lighting_batches = l * g;
        let depth_batches = g + l * v;
        let fs_total = (profile.fs_instructions * b - depth_batches) / lighting_batches;
        let fs_tex = profile.fs_tex_instructions * b / lighting_batches;
        PassPlan {
            geo_batches: g,
            volume_batches: l * v,
            geo_indices,
            fs_total,
            fs_tex,
        }
    } else {
        // The forward renderer draws the window `passes` times (multipass
        // texture/light blending) plus a transparent tail of 1/12, so the
        // primary window is sized to keep total batches at Table III.
        let passes = scene_params(profile).passes as f64;
        PassPlan {
            geo_batches: b / (passes + 1.0 / 12.0),
            volume_batches: 0.0,
            geo_indices: i / b,
            fs_total: profile.fs_instructions,
            fs_tex: profile.fs_tex_instructions,
        }
    }
}

/// A synthetic timedemo: emits the full command stream for a profile.
///
/// ```no_run
/// use gwc_api::ApiStats;
/// use gwc_workloads::{GameProfile, Timedemo, TimedemoConfig};
///
/// let profile = GameProfile::by_name("Doom3/trdemo2").unwrap();
/// let mut demo = Timedemo::new(profile, TimedemoConfig { frames: 100, seed: 1 });
/// let mut stats = ApiStats::new();
/// demo.emit_all(&mut stats);
/// assert_eq!(stats.frames(), 100);
/// ```
#[derive(Debug)]
pub struct Timedemo {
    profile: &'static GameProfile,
    config: TimedemoConfig,
    plan: PassPlan,
    geometry: Vec<DrawSlice>,
    volumes: Vec<DrawSlice>,
    backdrops: Vec<DrawSlice>,
    rng: StdRng,
    next_texture_id: u32,
    /// Screen-coverage target per geometry batch (set by `build_world`).
    batch_coverage: f32,
    setup_done: bool,
    // Program ids.
    vs_lo: u32,
    vs_hi: u32,
    vs_share: f64,
    vs2_lo: u32,
    vs2_hi: u32,
    fs_depth: u32,
    fs_main: [u32; 4], // (total lo/hi) × (tex lo/hi)
    fs_total_share: f64,
    fs_tex_share: f64,
}

/// The per-name base of a generator's RNG seed (XORed with the config
/// seed). An xor-multiply hash over the name's bytes that starts from the
/// FNV-1a offset basis but multiplies by `0x1000_0000_01b3` — not the FNV
/// prime `0x100_0000_01b3` — so it is *not* FNV-1a. Every generated
/// stream, golden table and benchmark digest depends on this exact value.
pub fn name_seed_hash(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

impl Timedemo {
    /// Program/buffer id bases (texture ids grow unbounded for transition
    /// spikes, so they allocate from the top).
    const VS_LO: u32 = 0;
    const VS_HI: u32 = 1;
    const VS2_LO: u32 = 2;
    const VS2_HI: u32 = 3;
    const FS_DEPTH: u32 = 4;
    const FS_MAIN0: u32 = 5;

    /// Creates a generator for a profile.
    pub fn new(profile: &'static GameProfile, config: TimedemoConfig) -> Self {
        let plan = solve_plan(profile);
        Timedemo {
            profile,
            config,
            plan,
            geometry: Vec::new(),
            volumes: Vec::new(),
            backdrops: Vec::new(),
            rng: StdRng::seed_from_u64(name_seed_hash(profile.name) ^ config.seed),
            next_texture_id: 0,
            batch_coverage: 0.02,
            setup_done: false,
            vs_share: 0.0,
            vs_lo: Self::VS_LO,
            vs_hi: Self::VS_HI,
            vs2_lo: Self::VS2_LO,
            vs2_hi: Self::VS2_HI,
            fs_depth: Self::FS_DEPTH,
            fs_main: [Self::FS_MAIN0, Self::FS_MAIN0 + 1, Self::FS_MAIN0 + 2, Self::FS_MAIN0 + 3],
            fs_total_share: 0.0,
            fs_tex_share: 0.0,
        }
    }

    /// Emits the entire timedemo (setup plus all frames) into a sink.
    pub fn emit_all<S: CommandSink>(&mut self, sink: &mut S) {
        for frame in 0..self.config.frames {
            self.emit_frame(frame, sink);
        }
    }

    /// Emits one frame (frame 0 also emits all resource setup).
    pub fn emit_frame<S: CommandSink>(&mut self, frame: u32, sink: &mut S) {
        if !self.setup_done {
            self.emit_setup(sink);
            self.setup_done = true;
        }
        if self.is_transition_frame(frame) {
            self.emit_transition_uploads(sink);
        }
        self.emit_camera(frame, sink);
        sink.consume(&Command::Clear {
            mask: ClearMask::ALL,
            color: Vec4::new(0.05, 0.05, 0.08, 1.0),
            depth: 1.0,
            stencil: 0,
        });
        let window = self.frame_window(frame);
        if self.profile.stencil_shadows {
            self.emit_shadowed_frame(frame, &window, sink);
        } else {
            self.emit_forward_frame(frame, &window, sink);
        }
        sink.consume(&Command::EndFrame);
    }

    // ---- setup -------------------------------------------------------

    fn emit_setup<S: CommandSink>(&mut self, sink: &mut S) {
        self.emit_programs(sink);
        self.emit_textures(sink);
        self.build_world(sink);
        // Asset upload burst: games issue thousands of setup calls in the
        // first frames (Figure 3's startup spike).
        let assets = (self.plan.geo_batches * 12.0) as u32;
        let layout = VertexLayout { attributes: ATTRIBS, stride_bytes: 32 };
        for a in 0..assets {
            sink.consume(&Command::CreateVertexBuffer {
                id: 2_000_000 + a,
                layout,
                data: vec![Vec4::ZERO; ATTRIBS as usize],
            });
        }
    }

    fn emit_programs<S: CommandSink>(&mut self, sink: &mut S) {
        let p = self.profile;
        let (vlo, vhi, vshare) = shaders::split_target(p.vs_instructions, 5);
        self.vs_share = vshare;
        sink.consume(&Command::CreateProgram {
            id: self.vs_lo,
            program: shaders::vertex_program("vs-lo", vlo),
        });
        sink.consume(&Command::CreateProgram {
            id: self.vs_hi,
            program: shaders::vertex_program("vs-hi", vhi),
        });
        let region2 = p.vs_instructions_region2.unwrap_or(p.vs_instructions);
        let (v2lo, v2hi, _) = shaders::split_target(region2, 5);
        sink.consume(&Command::CreateProgram {
            id: self.vs2_lo,
            program: shaders::vertex_program("vs2-lo", v2lo),
        });
        sink.consume(&Command::CreateProgram {
            id: self.vs2_hi,
            program: shaders::vertex_program("vs2-hi", v2hi),
        });
        sink.consume(&Command::CreateProgram {
            id: self.fs_depth,
            program: shaders::depth_only_program("fs-depth"),
        });
        // Four main-shader variants so batch-wise mixing hits the
        // fractional Table XII targets exactly.
        let (tlo, thi, tshare) = shaders::split_target(self.plan.fs_total, 2);
        let (xlo, xhi, xshare) = shaders::split_target(self.plan.fs_tex, 0);
        self.fs_total_share = tshare;
        self.fs_tex_share = xshare;
        let variants = [(tlo, xlo), (tlo, xhi), (thi, xlo), (thi, xhi)];
        for (i, (total, tex)) in variants.into_iter().enumerate() {
            let total = total.max(tex + 1);
            sink.consume(&Command::CreateProgram {
                id: self.fs_main[i],
                program: shaders::fragment_program(&format!("fs-main{i}"), total, tex, false),
            });
        }
    }

    fn sampler(&self) -> SamplerState {
        let filter = match self.profile.aniso {
            Some(level) => FilterMode::Anisotropic(level),
            None => FilterMode::Trilinear,
        };
        SamplerState { wrap: WrapMode::Repeat, filter, lod_bias: 0.0 }
    }

    fn emit_textures<S: CommandSink>(&mut self, sink: &mut S) {
        let sampler = self.sampler();
        for m in 0..MATERIALS {
            let seed = self.rng.gen::<u64>();
            // Diffuse: DXT1 noise; detail/normal: DXT5.
            sink.consume(&Command::CreateTexture {
                id: self.next_texture_id,
                image: Image::noise(512, 512, seed),
                format: TexFormat::Dxt1,
                mipmaps: true,
                sampler,
            });
            sink.consume(&Command::CreateTexture {
                id: self.next_texture_id + 1,
                image: Image::noise(256, 256, seed ^ 0xABCD),
                format: TexFormat::Dxt5,
                mipmaps: true,
                sampler,
            });
            self.next_texture_id += 2;
            let _ = m;
        }
        // Small shared lookup textures (light falloff/projection tables):
        // bound to the upper units once; their working set is tiny, like
        // the 1D/2D attenuation tables of the Doom3-era engines.
        let lut_base = MATERIALS as u32 * 2;
        for k in 0..2u32 {
            sink.consume(&Command::CreateTexture {
                id: lut_base + k,
                image: Image::noise(32, 32, 0x1007 + k as u64),
                format: TexFormat::Rgba8,
                mipmaps: true,
                sampler,
            });
            self.next_texture_id += 1;
        }
        self.next_texture_id = lut_base + 2;
        for unit in 4..10u8 {
            sink.consume(&Command::State(StateCommand::BindTexture {
                unit,
                texture: lut_base + (unit as u32 % 2),
            }));
        }
    }

    fn is_transition_frame(&self, frame: u32) -> bool {
        // FEAR and Oblivion show mid-demo loading spikes (Figure 3).
        let spiky = matches!(self.profile.engine, "Monolith" | "Gamebryo");
        spiky && frame > 0 && frame.is_multiple_of(400)
    }

    fn emit_transition_uploads<S: CommandSink>(&mut self, sink: &mut S) {
        let sampler = self.sampler();
        let burst = (self.plan.geo_batches * 2.0) as u32;
        for k in 0..burst {
            let seed = self.rng.gen::<u64>();
            // A couple of real textures plus many small asset uploads.
            if k < 4 {
                sink.consume(&Command::CreateTexture {
                    id: self.next_texture_id,
                    image: Image::noise(64, 64, seed),
                    format: TexFormat::Dxt1,
                    mipmaps: true,
                    sampler,
                });
            } else {
                sink.consume(&Command::CreateTexture {
                    id: self.next_texture_id,
                    image: Image::solid(8, 8, [seed as u8, 64, 64, 255]),
                    format: TexFormat::Rgba8,
                    mipmaps: false,
                    sampler,
                });
            }
            self.next_texture_id += 1;
        }
    }

    // ---- world construction -------------------------------------------

    /// Pools the world geometry into vertex/index buffer chunks and draw
    /// slices ordered around the ring.
    fn build_world<S: CommandSink>(&mut self, sink: &mut S) {
        let p = self.profile;
        let plan = self.plan;
        let stride = self.vertex_stride();
        let layout = VertexLayout { attributes: ATTRIBS, stride_bytes: stride };
        // Ring pool sizing: the per-frame window spans
        // `fov / (1 - clip_target)` radians of the ring, so the share of
        // drawn triangles outside the frustum matches Table VII's clipped
        // fraction.
        let scene = scene_params(p);
        let window_angle = FOV / (1.0 - scene.clip_target);
        let pool_slices =
            (plan.geo_batches * std::f64::consts::TAU / window_angle).ceil() as usize;
        let visible_batches = plan.geo_batches * (1.0 - scene.clip_target);
        self.batch_coverage = (scene.depth_complexity / visible_batches) as f32;
        let (tl_tris, ts_tris, tf_tris) = p.primitive_mix;
        // Convert triangle shares into batch shares: a strip/fan batch
        // produces ~3x the triangles of a list batch with equal indices.
        let (wl, ws, wf) = (tl_tris, ts_tris / 3.0, tf_tris / 3.0);
        let wsum = wl + ws + wf;
        let (tl_share, ts_share, tf_share) = (wl / wsum, ws / wsum, wf / wsum);

        let mut builder = PoolBuilder::new(layout, p.index_bytes, 100);
        let world_r = 60.0f32;
        for s in 0..pool_slices {
            let angle = s as f32 / pool_slices as f32 * std::f32::consts::TAU;
            let dist = world_r * (0.8 + 0.45 * self.rng.gen::<f32>());
            let center = Vec3::new(
                angle.cos() * dist,
                self.rng.gen::<f32>() * 36.0 - 18.0,
                angle.sin() * dist,
            );
            // Coverage solving: each visible batch should cover
            // `depth_complexity / visible_batches` of the screen.
            let coverage = self.batch_coverage;
            let material = (s % MATERIALS as usize) as u8;
            // Primitive type by target triangle share.
            let r: f64 = self.rng.gen();
            let (prim, slice) = if r < tl_share || p.scene != SceneKind::Open && ts_share == 0.0 && tf_share == 0.0
            {
                (
                    PrimitiveType::TriangleList,
                    self.make_list_slice(center, angle, plan.geo_indices, coverage),
                )
            } else if r < tl_share + ts_share {
                (PrimitiveType::TriangleStrip, self.make_strip_slice(center, plan.geo_indices))
            } else {
                (PrimitiveType::TriangleFan, self.make_fan_slice(center, plan.geo_indices))
            };
            builder.push(slice, prim, material, &mut self.geometry);
        }
        // Shadow volumes: *closed* pairs of quads (an entry face and an
        // exit face with opposite winding). Pixels whose scene depth lies
        // between the pair's depths get a net stencil count — exactly the
        // z-fail shadow-volume algorithm — while pixels outside the slab
        // see balanced increments and decrements.
        if p.stencil_shadows {
            let volume_pool = (plan.volume_batches * 3.0).ceil() as usize;
            let c_v = scene.volume_coverage as f32;
            for s in 0..volume_pool {
                let angle = s as f32 / volume_pool as f32 * std::f32::consts::TAU;
                let mut m = Mesh::default();
                for k in 0..2 {
                    // Slab 0 sits fully in front of the geometry shell
                    // (0.8–1.25 × world radius): both faces pass depth,
                    // stencil nets zero (lit). Slab 1 straddles the shell:
                    // its exit face z-fails — the stencil-shadow bandwidth
                    // signature — and the enclosed pixels end up shadowed.
                    let k1_depth = if self.profile.name.starts_with("Quake4") { 0.45 } else { 0.37 };
                    let d = world_r * (0.35 + k1_depth * k as f32) + self.rng.gen::<f32>() * 6.0;
                    let gap = 8.0 + self.rng.gen::<f32>() * 8.0;
                    let sv = d * (c_v / 0.24).sqrt();
                    let right = Vec3::new(-angle.sin(), 0.0, angle.cos()) * (sv * 1.15);
                    let up = Vec3::Y * (sv * 0.87);
                    let near_c = Vec3::new(angle.cos() * d, 0.0, angle.sin() * d);
                    let far_c = Vec3::new(angle.cos() * (d + gap), 0.0, angle.sin() * (d + gap));
                    // Entry face (one winding) and exit face (flipped).
                    m.append(&mesh::volume_quad(near_c, right, up));
                    m.append(&mesh::volume_quad(far_c, up, right));
                }
                builder.push(m, PrimitiveType::TriangleList, 0, &mut self.volumes);
            }
        }
        // Sky/backdrop panels: one is appended to every pass's window,
        // drawn last like a real skybox — mostly rejected by HZ where the
        // scene covers it, filling the background gaps elsewhere.
        let backdrop_quads = ((plan.geo_indices / 6.0).round() as u32).max(2);
        for s in 0..16u32 {
            let angle = s as f32 / 16.0 * std::f32::consts::TAU;
            let d = world_r * 1.35;
            let center = Vec3::new(angle.cos() * d, 0.0, angle.sin() * d);
            let inward = Vec3::new(-angle.cos(), 0.0, -angle.sin());
            let u_dir = Vec3::Y.cross(inward).normalized();
            let nu = ((backdrop_quads as f32).sqrt().round() as u32).max(1);
            let nv = (backdrop_quads / nu).max(1);
            let u_axis = u_dir * (2.3 * d);
            let v_axis = Vec3::Y * (1.8 * d);
            let m = mesh::grid_panel(center - u_axis * 0.5 - v_axis * 0.5, u_axis, v_axis, nu, nv);
            builder.push(m, PrimitiveType::TriangleList, (s % MATERIALS as u32) as u8, &mut self.backdrops);
        }
        builder.flush(sink);
    }

    /// Panels and spheres sized so `indices` indices are drawn per batch
    /// and the batch covers `coverage` of the screen at its distance
    /// (coverage ≈ 0.24 s²/d² for an s-sized panel at distance d).
    fn make_list_slice(&mut self, center: Vec3, angle: f32, indices: f64, coverage: f32) -> Mesh {
        let scene = scene_params(self.profile);
        let quads = ((indices / 6.0).round() as u32).max(2);
        let d = (center.x * center.x + center.z * center.z).sqrt().max(10.0);
        let s = d * (coverage / 0.24).sqrt();
        let style: f32 = self.rng.gen();
        if style < scene.sphere_share {
            // Closed sphere: its far hemisphere feeds the culled count.
            let stacks = ((quads as f32).sqrt() as u32).clamp(2, 24);
            let slices = (quads / stacks).clamp(3, 48);
            let r = (d * coverage.sqrt() * 1.1).clamp(2.0, 40.0);
            mesh::uv_sphere(center, r, stacks, slices)
        } else if style < scene.sphere_share + scene.floor_share {
            // Horizontal floor/ceiling panel: seen at a glancing angle,
            // the anisotropic-filtering workload of Table XIII. Glancing
            // projection shrinks coverage, so floors are oversized.
            let nu = ((quads as f32).sqrt().round() as u32).max(1);
            let nv = (quads / nu).max(1);
            let u_axis = Vec3::new(-angle.sin(), 0.0, angle.cos()) * (s * 1.8);
            let v_axis = Vec3::new(-angle.cos(), 0.0, -angle.sin()) * (s * 1.7);
            let base = Vec3::new(center.x, -6.0 - self.rng.gen::<f32>() * 4.0, center.z);
            mesh::grid_panel(base - u_axis * 0.5 - v_axis * 0.5, u_axis, v_axis, nu, nv)
        } else {
            let nu = ((quads as f32).sqrt().round() as u32).max(1);
            let nv = (quads / nu).max(1);
            // Wall panel: mostly facing the ring center, tilted.
            let inward = Vec3::new(-angle.cos(), 0.0, -angle.sin());
            let tilt = (self.rng.gen::<f32>() - 0.5) * 2.0 * scene.tilt;
            let u_dir = Vec3::Y.cross(inward).normalized();
            let u_axis = (u_dir * tilt.cos() + inward * tilt.sin()) * (s * 1.15);
            let v_axis = Vec3::new(0.0, s * 0.87, 0.0);
            mesh::grid_panel(center - u_axis * 0.5 - v_axis * 0.5, u_axis, v_axis, nu, nv)
        }
    }

    fn make_strip_slice(&mut self, center: Vec3, indices: f64) -> Mesh {
        // Terrain strip rows re-emitted as one strip-ordered index slice.
        let cells = ((indices / 2.0).round() as u32).clamp(4, 512);
        let (m, ranges) = mesh::terrain_strips(
            center - Vec3::new(30.0, 6.0, 30.0),
            60.0,
            (cells as f32).sqrt().ceil() as u32,
            |x, z| ((x * 9.0).sin() + (z * 7.0).cos()) * 2.0,
        );
        // Concatenate rows into one slice (strip restarts approximated by
        // a single long strip; triangle counts stay equivalent).
        let mut out = Mesh { vertices: m.vertices.clone(), indices: Vec::new() };
        let want = indices as usize;
        'outer: for &(start, count) in &ranges {
            for k in 0..count {
                out.indices.push(m.indices[(start + k) as usize]);
                if out.indices.len() >= want {
                    break 'outer;
                }
            }
        }
        out
    }

    fn make_fan_slice(&mut self, center: Vec3, indices: f64) -> Mesh {
        // A disc fan: center vertex plus a rim.
        let rim = (indices as u32).clamp(4, 512);
        let mut m = Mesh::default();
        let radius = 10.0;
        m.vertices.push(center.extend(1.0));
        m.vertices.push(Vec3::Y.extend(0.0));
        m.vertices.push(Vec4::new(0.5, 0.5, 0.0, 0.0));
        for i in 0..rim {
            let a = i as f32 / (rim - 1) as f32 * std::f32::consts::TAU;
            let pos = center + Vec3::new(a.cos() * radius, 0.0, a.sin() * radius);
            m.vertices.push(pos.extend(1.0));
            m.vertices.push(Vec3::Y.extend(0.0));
            m.vertices.push(Vec4::new(a.cos() * 0.5 + 0.5, a.sin() * 0.5 + 0.5, 0.0, 0.0));
        }
        m.indices.extend(0..=rim);
        m
    }

    fn vertex_stride(&self) -> u16 {
        match self.profile.engine {
            "Doom3" if self.profile.name.starts_with("Quake4") => 56,
            "Doom3" => 40,
            "Unreal 2.5" => 44,
            _ => 36,
        }
    }

    // ---- per-frame emission -------------------------------------------

    /// Camera state + per-frame constants.
    fn emit_camera<S: CommandSink>(&mut self, frame: u32, sink: &mut S) {
        let t = frame as f32 * 0.012;
        let eye = Vec3::new((t * 0.7).cos() * 8.0, 3.0 + (t * 0.3).sin(), (t * 0.7).sin() * 8.0);
        let dir = Vec3::new(t.cos(), -0.08 + 0.1 * (t * 1.7).sin(), t.sin());
        let view = Mat4::look_at(eye, eye + dir, Vec3::Y);
        let proj = Mat4::perspective(75f32.to_radians(), 4.0 / 3.0, 1.0, 400.0);
        let mvp = (proj * view).transpose(); // rows as constants
        sink.consume(&Command::State(StateCommand::VertexConstants {
            base: shaders::constants::MVP_ROW0,
            values: vec![mvp.cols[0], mvp.cols[1], mvp.cols[2], mvp.cols[3]],
        }));
        sink.consume(&Command::State(StateCommand::FragmentConstants {
            base: shaders::constants::LIGHT,
            values: vec![
                Vec4::new(0.9, 0.85, 0.7, 1.0),
                Vec4::new(0.4, 0.4, 0.45, 1.0),
                Vec4::new(0.2, 0.1, 0.05, 0.0),
                Vec4::new(1.0, 1.0, 1.0, 1.0),
            ],
        }));
    }

    /// The geometry slices drawn this frame: a ring window centered on the
    /// camera direction with temporal size variation (Figure 1's shape).
    fn frame_window(&mut self, frame: u32) -> Vec<DrawSlice> {
        let pool = self.geometry.len();
        if pool == 0 {
            return Vec::new();
        }
        let tau = std::f64::consts::TAU;
        let wave = 1.0
            + 0.22 * (tau * frame as f64 / 47.0).sin()
            + 0.10 * (tau * frame as f64 / 13.0 + 0.5).sin()
            + 0.06 * (self.rng.gen::<f64>() - 0.5);
        let count = ((self.plan.geo_batches * wave).round() as usize).clamp(1, pool);
        let t = frame as f32 * 0.012;
        let center = ((t.rem_euclid(std::f32::consts::TAU)) / std::f32::consts::TAU
            * pool as f32) as usize;
        let start = (center + pool).wrapping_sub(count / 2) % pool;
        let mut window: Vec<DrawSlice> =
            (0..count).map(|k| self.geometry[(start + k) % pool]).collect();
        // The sky backdrop facing the camera closes every pass's window.
        if !self.backdrops.is_empty() {
            let b = (center * self.backdrops.len()) / pool.max(1);
            window.push(self.backdrops[b % self.backdrops.len()]);
        }
        window
    }

    fn volume_window(&mut self, frame: u32) -> Vec<DrawSlice> {
        let pool = self.volumes.len();
        if pool == 0 {
            return Vec::new();
        }
        let count = ((self.plan.volume_batches / LIGHTS as f64).round() as usize).clamp(1, pool);
        let t = frame as f32 * 0.012;
        let center =
            ((t.rem_euclid(std::f32::consts::TAU)) / std::f32::consts::TAU * pool as f32) as usize;
        let start = (center + pool).wrapping_sub(count / 2) % pool;
        (0..count).map(|k| self.volumes[(start + k) % pool]).collect()
    }

    fn bind_main_programs<S: CommandSink>(&mut self, frame: u32, batch: usize, sink: &mut S) {
        let p = self.profile;
        // Oblivion's second region switches to the long vertex programs.
        let region2 = p.vs_instructions_region2.is_some()
            && frame >= self.config.frames / 2;
        let vs_pick = if self.rng.gen::<f64>() < self.vs_share {
            if region2 { self.vs2_hi } else { self.vs_hi }
        } else if region2 {
            self.vs2_lo
        } else {
            self.vs_lo
        };
        let ti = usize::from(self.rng.gen::<f64>() < self.fs_total_share);
        let xi = usize::from(self.rng.gen::<f64>() < self.fs_tex_share);
        let fs_pick = self.fs_main[ti * 2 + xi];
        let _ = batch;
        sink.consume(&Command::State(StateCommand::BindPrograms {
            vertex: vs_pick,
            fragment: fs_pick,
        }));
    }

    fn draw_slice<S: CommandSink>(&mut self, s: &DrawSlice, sink: &mut S) {
        sink.consume(&Command::Draw {
            vertex_buffer: s.vb,
            index_buffer: s.ib,
            primitive: s.prim,
            first: s.first,
            count: s.count,
        });
    }

    fn bind_material<S: CommandSink>(&mut self, material: u8, sink: &mut S) {
        // Diffuse, normal, specular and detail all come from the material
        // set (units 0–3); units 4+ keep the shared lookup tables.
        for unit in 0..4u8 {
            sink.consume(&Command::State(StateCommand::BindTexture {
                unit,
                texture: material as u32 * 2 + (unit as u32 % 2),
            }));
        }
    }

    /// Single-pass forward rendering (everything except the Doom3-engine
    /// games).
    fn emit_forward_frame<S: CommandSink>(
        &mut self,
        frame: u32,
        window: &[DrawSlice],
        sink: &mut S,
    ) {
        sink.consume(&Command::State(StateCommand::Depth(DepthState::default())));
        sink.consume(&Command::State(StateCommand::ColorMask(true)));
        sink.consume(&Command::State(StateCommand::Blend(BlendState::default())));
        sink.consume(&Command::State(StateCommand::Cull(CullMode::Back)));
        sink.consume(&Command::State(StateCommand::FrontFaceWinding(FrontFace::Ccw)));
        let passes = scene_params(self.profile).passes;
        for pass in 0..passes {
            if pass == 1 {
                // Multipass texture/light blending: re-draw the visible
                // set with LEqual + additive blending (the lightmap-style
                // overdraw of the Unreal-era engines).
                sink.consume(&Command::State(StateCommand::Depth(DepthState {
                    test: true,
                    write: false,
                    func: CompareFunc::LessEqual,
                })));
                sink.consume(&Command::State(StateCommand::Blend(BlendState {
                    enabled: true,
                    src: BlendFactor::One,
                    dst: BlendFactor::One,
                })));
            }
            let mut last_material = u8::MAX;
            for (i, s) in window.iter().enumerate() {
                if s.material != last_material {
                    self.bind_material(s.material, sink);
                    last_material = s.material;
                }
                if i % 4 == 0 {
                    self.bind_main_programs(frame, i, sink);
                }
                self.draw_slice(&s.clone(), sink);
            }
        }
        // A transparent tail: additive blend, no depth write (sparks,
        // glass, light halos — a small share of batches).
        let transparent = window.len() / 12;
        if transparent > 0 {
            sink.consume(&Command::State(StateCommand::Depth(DepthState {
                test: true,
                write: false,
                func: CompareFunc::LessEqual,
            })));
            sink.consume(&Command::State(StateCommand::Blend(BlendState {
                enabled: true,
                src: BlendFactor::SrcAlpha,
                dst: BlendFactor::One,
            })));
            for s in window.iter().take(transparent) {
                self.draw_slice(&s.clone(), sink);
            }
        }
    }

    /// The Doom3-engine multipass frame: z-prepass, then per light a
    /// stencil shadow volume pass and an additive lighting pass.
    fn emit_shadowed_frame<S: CommandSink>(
        &mut self,
        frame: u32,
        window: &[DrawSlice],
        sink: &mut S,
    ) {
        // --- Pass 1: depth + ambient prepass ---
        sink.consume(&Command::State(StateCommand::Depth(DepthState::default())));
        sink.consume(&Command::State(StateCommand::ColorMask(true)));
        sink.consume(&Command::State(StateCommand::Blend(BlendState::default())));
        sink.consume(&Command::State(StateCommand::Cull(CullMode::Back)));
        sink.consume(&Command::State(StateCommand::BindPrograms {
            vertex: self.vs_lo,
            fragment: self.fs_depth,
        }));
        for s in window {
            self.draw_slice(&s.clone(), sink);
        }

        for light in 0..LIGHTS {
            // --- Pass 2: stencil shadow volumes (z-fail counting) ---
            sink.consume(&Command::State(StateCommand::Depth(DepthState {
                test: true,
                write: false,
                func: CompareFunc::Less,
            })));
            sink.consume(&Command::State(StateCommand::ColorMask(false)));
            sink.consume(&Command::State(StateCommand::Cull(CullMode::None)));
            let volume_stencil = |op: StencilOp| StencilState {
                test: true,
                func: CompareFunc::Always,
                reference: 0,
                read_mask: 0xff,
                fail: StencilOp::Keep,
                zfail: op,
                pass: StencilOp::Keep,
            };
            sink.consume(&Command::State(StateCommand::StencilFront(volume_stencil(
                StencilOp::IncrWrap,
            ))));
            sink.consume(&Command::State(StateCommand::StencilBack(volume_stencil(
                StencilOp::DecrWrap,
            ))));
            // Volumes always run the trivial depth-only program (lights
            // after the first would otherwise inherit the lighting shader).
            sink.consume(&Command::State(StateCommand::BindPrograms {
                vertex: self.vs_lo,
                fragment: self.fs_depth,
            }));
            let volumes = self.volume_window(frame.wrapping_add(light * 7));
            for s in &volumes {
                self.draw_slice(s, sink);
            }

            // --- Pass 3: additive lighting where stencil == 0 ---
            sink.consume(&Command::State(StateCommand::Depth(DepthState {
                test: true,
                write: false,
                func: CompareFunc::Equal,
            })));
            sink.consume(&Command::State(StateCommand::ColorMask(true)));
            sink.consume(&Command::State(StateCommand::Cull(CullMode::Back)));
            let lit = StencilState {
                test: true,
                func: CompareFunc::Equal,
                reference: 0,
                read_mask: 0xff,
                fail: StencilOp::Keep,
                zfail: StencilOp::Keep,
                pass: StencilOp::Keep,
            };
            sink.consume(&Command::State(StateCommand::StencilFront(lit)));
            sink.consume(&Command::State(StateCommand::StencilBack(lit)));
            sink.consume(&Command::State(StateCommand::Blend(BlendState {
                enabled: true,
                src: BlendFactor::One,
                dst: BlendFactor::One,
            })));
            sink.consume(&Command::State(StateCommand::FragmentConstants {
                base: shaders::constants::LIGHT,
                values: vec![Vec4::new(
                    0.8 - 0.2 * light as f32,
                    0.7,
                    0.5 + 0.2 * light as f32,
                    1.0,
                )],
            }));
            let mut last_material = u8::MAX;
            for (i, s) in window.iter().enumerate() {
                if s.material != last_material {
                    self.bind_material(s.material, sink);
                    last_material = s.material;
                }
                if i % 4 == 0 {
                    self.bind_main_programs(frame, i, sink);
                }
                self.draw_slice(&s.clone(), sink);
            }
            // Clear stencil between lights.
            sink.consume(&Command::Clear {
                mask: ClearMask { color: false, depth: false, stencil: true },
                color: Vec4::ZERO,
                depth: 1.0,
                stencil: 0,
            });
        }
    }
}

/// Accumulates meshes into shared vertex/index buffer chunks, splitting
/// before 16-bit index overflow.
struct PoolBuilder {
    layout: VertexLayout,
    index_bytes: u8,
    next_buffer_id: u32,
    vertices: Vec<Vec4>,
    indices: Vec<u32>,
    pending: Vec<(u32, u32, u32, PrimitiveType, u8)>, // (vb, first, count, prim, material)
    emitted: Vec<(u32, Vec<Vec4>, Vec<u32>)>,
    max_vertices: usize,
}

impl PoolBuilder {
    fn new(layout: VertexLayout, index_bytes: u8, base_id: u32) -> Self {
        PoolBuilder {
            layout,
            index_bytes,
            next_buffer_id: base_id,
            vertices: Vec::new(),
            indices: Vec::new(),
            pending: Vec::new(),
            emitted: Vec::new(),
            max_vertices: if index_bytes == 2 { 50_000 } else { 500_000 },
        }
    }

    fn push(&mut self, mesh: Mesh, prim: PrimitiveType, material: u8, out: &mut Vec<DrawSlice>) {
        let mesh_verts = mesh.vertex_count();
        if (self.vertices.len() / ATTRIBS as usize) + mesh_verts > self.max_vertices {
            self.rotate_chunk();
        }
        let base = (self.vertices.len() / ATTRIBS as usize) as u32;
        let first = self.indices.len() as u32;
        self.vertices.extend_from_slice(&mesh.vertices);
        self.indices.extend(mesh.indices.iter().map(|&i| i + base));
        let count = mesh.indices.len() as u32;
        self.pending.push((self.next_buffer_id, first, count, prim, material));
        out.push(DrawSlice {
            vb: self.next_buffer_id,
            ib: self.next_buffer_id,
            first,
            count,
            material,
            prim,
        });
    }

    fn rotate_chunk(&mut self) {
        if !self.vertices.is_empty() {
            self.emitted.push((
                self.next_buffer_id,
                std::mem::take(&mut self.vertices),
                std::mem::take(&mut self.indices),
            ));
            self.next_buffer_id += 1;
        }
    }

    fn flush<S: CommandSink>(&mut self, sink: &mut S) {
        self.rotate_chunk();
        for (id, vertices, indices) in self.emitted.drain(..) {
            sink.consume(&Command::CreateVertexBuffer {
                id,
                layout: self.layout,
                data: vertices,
            });
            let idx = if self.index_bytes == 2 {
                Indices::U16(indices.iter().map(|&i| i as u16).collect())
            } else {
                Indices::U32(indices)
            };
            sink.consume(&Command::CreateIndexBuffer { id, indices: idx });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_api::{ApiStats, Device};

    #[test]
    fn name_seed_hash_known_values() {
        assert_eq!(name_seed_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(name_seed_hash("Doom3/trdemo2"), 0xcaf5_9fc4_5134_20db);
    }

    fn demo(name: &str, frames: u32) -> Timedemo {
        Timedemo::new(GameProfile::by_name(name).unwrap(), TimedemoConfig { frames, seed: 7 })
    }

    #[test]
    fn all_profiles_generate_valid_streams() {
        for p in GameProfile::all() {
            let mut d = Timedemo::new(p, TimedemoConfig { frames: 3, seed: 1 });
            let mut device = Device::new();
            d.emit_all(&mut device);
            assert_eq!(device.first_error(), None, "{}", p.name);
            assert_eq!(device.trace().frame_count(), 3, "{}", p.name);
        }
    }

    #[test]
    fn batch_counts_match_table3() {
        for name in ["Doom3/trdemo2", "FEAR/interval2", "UT2004/Primeval"] {
            let mut d = demo(name, 40);
            let mut stats = ApiStats::new();
            d.emit_all(&mut stats);
            let p = GameProfile::by_name(name).unwrap();
            let got = stats.totals().batches as f64 / 40.0;
            let want = p.batches_per_frame();
            assert!(
                (got - want).abs() / want < 0.15,
                "{name}: batches/frame {got:.0} vs {want:.0}"
            );
        }
    }

    #[test]
    fn indices_match_table3() {
        for name in ["Doom3/trdemo2", "Quake4/demo4", "Half Life 2 LC/built-in"] {
            let mut d = demo(name, 40);
            let mut stats = ApiStats::new();
            d.emit_all(&mut stats);
            let p = GameProfile::by_name(name).unwrap();
            let got = stats.avg_indices_per_frame();
            let want = p.indices_per_frame;
            assert!(
                (got - want).abs() / want < 0.2,
                "{name}: indices/frame {got:.0} vs {want:.0}"
            );
        }
    }

    #[test]
    fn shader_lengths_match_tables_4_and_12() {
        for name in ["Doom3/trdemo2", "Oblivion/Anvil Castle", "Splinter Cell 3/first level"] {
            let mut d = demo(name, 30);
            let mut stats = ApiStats::new();
            d.emit_all(&mut stats);
            let p = GameProfile::by_name(name).unwrap();
            let vs = stats.avg_vertex_instructions();
            assert!(
                (vs - p.vs_instructions).abs() < 2.0 || p.vs_instructions_region2.is_some(),
                "{name}: vs {vs:.2} vs {}",
                p.vs_instructions
            );
            let fs = stats.avg_fragment_instructions();
            assert!(
                (fs - p.fs_instructions).abs() / p.fs_instructions < 0.15,
                "{name}: fs {fs:.2} vs {}",
                p.fs_instructions
            );
            let tex = stats.avg_fragment_tex_instructions();
            assert!(
                (tex - p.fs_tex_instructions).abs() / p.fs_tex_instructions < 0.25,
                "{name}: tex {tex:.2} vs {}",
                p.fs_tex_instructions
            );
        }
    }

    #[test]
    fn primitive_mix_matches_table5() {
        let mut d = demo("Oblivion/Anvil Castle", 30);
        let mut stats = ApiStats::new();
        d.emit_all(&mut stats);
        let (tl, ts, _) = stats.primitive_shares();
        assert!(tl > 0.25 && tl < 0.7, "TL share {tl}");
        assert!(ts > 0.3 && ts < 0.75, "TS share {ts}");
        // Doom3 is pure triangle lists.
        let mut d = demo("Doom3/trdemo2", 10);
        let mut stats = ApiStats::new();
        d.emit_all(&mut stats);
        let (tl, ts, tf) = stats.primitive_shares();
        assert!((tl - 1.0).abs() < 1e-9, "TL {tl} TS {ts} TF {tf}");
    }

    #[test]
    fn startup_frame_has_state_call_spike() {
        let mut d = demo("Quake4/demo4", 10);
        let mut stats = ApiStats::new();
        d.emit_all(&mut stats);
        let calls = stats.state_calls_per_frame();
        let first = calls.values()[0];
        let steady = calls.mean_range(2, 10);
        assert!(first > steady * 1.5, "startup {first} vs steady {steady}");
    }

    #[test]
    fn transition_spikes_for_spiky_engines() {
        let mut d = demo("FEAR/interval2", 801);
        let mut stats = ApiStats::new();
        d.emit_all(&mut stats);
        let calls = stats.state_calls_per_frame();
        // Frames 400 and 800 carry texture uploads.
        let spike = calls.values()[400];
        let nearby = calls.values()[399];
        assert!(spike > nearby, "spike {spike} vs {nearby}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut d = demo("Riddick/PrisonArea", 5);
            let mut stats = ApiStats::new();
            d.emit_all(&mut stats);
            (stats.totals().batches, stats.totals().indices, stats.totals().state_calls)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn index_width_matches_engine() {
        let mut d = demo("Doom3/trdemo2", 5);
        let mut stats = ApiStats::new();
        d.emit_all(&mut stats);
        // 4 bytes per index.
        let per_index = stats.totals().index_bytes as f64 / stats.totals().indices as f64;
        assert!((per_index - 4.0).abs() < 1e-9);
        let mut d = demo("FEAR/interval2", 5);
        let mut stats = ApiStats::new();
        d.emit_all(&mut stats);
        let per_index = stats.totals().index_bytes as f64 / stats.totals().indices as f64;
        assert!((per_index - 2.0).abs() < 1e-9);
    }
}
