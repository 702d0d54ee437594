//! The scenario command emitter: turns a [`ScenarioSpec`] plus a seed
//! into a deterministic API command stream.
//!
//! The emitter mirrors the structure of `gwc_workloads::Timedemo` (setup
//! on the first frame, then per-frame passes), but composes its world
//! from archetype primitives instead of Table I targets: the *declared*
//! characteristics come from construction (layer counts, strip ordering,
//! alpha-noise blocks), and the post-run feature vector is asserted
//! against them.

use gwc_api::{ClearMask, Command, CommandSink, Indices, StateCommand, VertexLayout};
use gwc_math::{Mat4, Vec3, Vec4};
use gwc_raster::{
    BlendFactor, BlendState, CompareFunc, CullMode, DepthState, FrontFace, PrimitiveType,
    StencilOp, StencilState,
};
use gwc_texture::{FilterMode, Image, SamplerState, TexFormat, WrapMode};
use gwc_workloads::mesh::{self, Mesh, ATTRIBS};
use gwc_workloads::{name_seed_hash, shaders};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{ApiStyle, Archetype, RenderStyle, ScenarioSpec};

/// Generation parameters for one scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Frames to generate.
    pub frames: u32,
    /// Generation seed (combined with the scenario name).
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig { frames: 4, seed: 0x5EED }
    }
}

/// One drawable slice of the pooled scene buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DrawItem {
    first: u32,
    count: u32,
    material: u8,
    prim: PrimitiveType,
}

/// Additive lights rendered by the stencil style.
const LIGHTS: u32 = 2;
/// Color passes rendered by the many-pass style.
const COLOR_PASSES: u32 = 3;
/// Fullscreen quads in the post-processing chain.
const POST_QUADS: u32 = 3;
/// Materials (texture triples bound to units 0–2).
const MATERIALS: u8 = 4;
/// The single pooled vertex/index buffer id.
const BUFFER: u32 = 100;
/// Index budget of a tiny batch.
const TINY_INDICES: u32 = 64;

/// Program ids.
const VS: u32 = 0;
const FS_DEPTH: u32 = 1;
const FS_MAIN: u32 = 2;
const FS_POST: u32 = 3;

/// Shader sizes (declared, not Table XII driven).
const VS_LEN: usize = 12;
const FS_MAIN_TOTAL: usize = 10;
const FS_MAIN_TEX: usize = 3;
const FS_POST_TOTAL: usize = 18;
const FS_POST_TEX: usize = 8;

/// The built world: pooled geometry plus the per-pass draw lists.
#[derive(Debug)]
struct World {
    vertices: Vec<Vec4>,
    indices: Vec<u32>,
    geometry: Vec<DrawItem>,
    volumes: Vec<DrawItem>,
    fullscreen: Vec<DrawItem>,
    eye: Vec3,
    target: Vec3,
}

impl World {
    fn push(&mut self, mesh: &Mesh, prim: PrimitiveType, material: u8) -> DrawItem {
        let base = (self.vertices.len() / ATTRIBS as usize) as u32;
        let first = self.indices.len() as u32;
        self.vertices.extend_from_slice(&mesh.vertices);
        self.indices.extend(mesh.indices.iter().map(|&i| i + base));
        DrawItem { first, count: mesh.indices.len() as u32, material, prim }
    }

    fn push_geometry(&mut self, mesh: &Mesh, prim: PrimitiveType, material: u8) {
        let item = self.push(mesh, prim, material);
        self.geometry.push(item);
    }
}

/// A seeded scenario demo: emits the full command stream for a spec.
///
/// Frames must be emitted in order (`0..frames`), like
/// [`gwc_workloads::Timedemo`]: the RNG stream advances with emission.
#[derive(Debug)]
pub struct ScenarioDemo {
    spec: ScenarioSpec,
    config: ScenarioConfig,
    rng: StdRng,
    world: Option<World>,
    setup_done: bool,
}

impl ScenarioDemo {
    /// Creates a generator for `spec`. The RNG is seeded from
    /// [`name_seed_hash`] of the scenario name XOR the config seed, so
    /// every (scenario, seed) pair is a distinct deterministic stream.
    pub fn new(spec: ScenarioSpec, config: ScenarioConfig) -> Self {
        let seed = name_seed_hash(&spec.name()) ^ config.seed;
        ScenarioDemo {
            spec,
            config,
            rng: StdRng::seed_from_u64(seed),
            world: None,
            setup_done: false,
        }
    }

    /// Emits the entire demo (setup plus all frames) into a sink.
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
        self.emit_camera(frame, sink);
        sink.consume(&Command::Clear {
            mask: ClearMask::ALL,
            color: Vec4::new(0.04, 0.05, 0.08, 1.0),
            depth: 1.0,
            stencil: 0,
        });
        match self.spec.style {
            RenderStyle::Prepass => {
                // Alpha-tested cutouts must kill in the prepass too, or
                // the color pass sees transparent-block depths and the
                // kills land on the z-test instead of the alpha test.
                if self.spec.archetype == Archetype::Foliage {
                    self.emit_masked_color_pass(sink);
                } else {
                    self.emit_depth_pass(sink);
                }
                self.emit_color_pass(
                    sink,
                    DepthState { test: true, write: false, func: CompareFunc::LessEqual },
                    None,
                );
            }
            RenderStyle::Stencil => self.emit_stencil_frame(frame, sink),
            RenderStyle::ManyPass => {
                self.emit_color_pass(sink, DepthState::default(), None);
                for _ in 1..COLOR_PASSES {
                    self.emit_color_pass(
                        sink,
                        DepthState { test: true, write: false, func: CompareFunc::LessEqual },
                        Some(additive()),
                    );
                }
            }
            RenderStyle::Post => {
                self.emit_color_pass(sink, DepthState::default(), None);
                self.emit_post_chain(sink);
            }
        }
        sink.consume(&Command::EndFrame);
    }

    // ---- setup -------------------------------------------------------

    fn ensure_world(&mut self) {
        if self.world.is_none() {
            let world = build_world(self.spec.archetype, &mut self.rng);
            self.world = Some(world);
        }
    }

    fn emit_setup<S: CommandSink>(&mut self, sink: &mut S) {
        self.ensure_world();
        self.emit_programs(sink);
        self.emit_textures(sink);
        let world = self.world.as_ref().expect("world built");
        sink.consume(&Command::CreateVertexBuffer {
            id: BUFFER,
            layout: VertexLayout { attributes: ATTRIBS, stride_bytes: 32 },
            data: world.vertices.clone(),
        });
        sink.consume(&Command::CreateIndexBuffer {
            id: BUFFER,
            indices: Indices::U16(world.indices.iter().map(|&i| i as u16).collect()),
        });
    }

    fn emit_programs<S: CommandSink>(&mut self, sink: &mut S) {
        sink.consume(&Command::CreateProgram {
            id: VS,
            program: shaders::vertex_program("scn-vs", VS_LEN),
        });
        sink.consume(&Command::CreateProgram {
            id: FS_DEPTH,
            program: shaders::depth_only_program("scn-depth"),
        });
        sink.consume(&Command::CreateProgram {
            id: FS_MAIN,
            program: shaders::fragment_program("scn-main", FS_MAIN_TOTAL, FS_MAIN_TEX, false),
        });
        sink.consume(&Command::CreateProgram {
            id: FS_POST,
            program: shaders::fragment_program("scn-post", FS_POST_TOTAL, FS_POST_TEX, false),
        });
    }

    fn sampler(&self) -> SamplerState {
        let filter = match self.spec.archetype {
            Archetype::Terrain => FilterMode::Anisotropic(8),
            _ => FilterMode::Trilinear,
        };
        SamplerState { wrap: WrapMode::Repeat, filter, lod_bias: 0.0 }
    }

    fn emit_textures<S: CommandSink>(&mut self, sink: &mut S) {
        let sampler = self.sampler();
        let foliage = self.spec.archetype == Archetype::Foliage;
        for m in 0..MATERIALS as u32 {
            let seed = self.rng.gen::<u64>();
            // Unit 0: diffuse. Foliage uses blocky alpha noise (RGBA8, so
            // the alpha survives) — whole 8×8 texel blocks are fully
            // transparent or fully opaque, which keeps the alpha-kill
            // share stable under mipmapped minification.
            if foliage {
                sink.consume(&Command::CreateTexture {
                    id: m * 3,
                    image: alpha_block_noise(256, 256, seed),
                    format: TexFormat::Rgba8,
                    mipmaps: true,
                    sampler,
                });
            } else {
                sink.consume(&Command::CreateTexture {
                    id: m * 3,
                    image: Image::noise(512, 512, seed),
                    format: TexFormat::Dxt1,
                    mipmaps: true,
                    sampler,
                });
            }
            // Units 1–2: normal/detail maps.
            sink.consume(&Command::CreateTexture {
                id: m * 3 + 1,
                image: Image::noise(256, 256, seed ^ 0xABCD),
                format: TexFormat::Dxt5,
                mipmaps: true,
                sampler,
            });
            sink.consume(&Command::CreateTexture {
                id: m * 3 + 2,
                image: Image::noise(128, 128, seed ^ 0x77AA),
                format: TexFormat::Dxt1,
                mipmaps: true,
                sampler,
            });
        }
        // Shared lookup tables for the post-processing chain (units 3–7).
        let lut_base = MATERIALS as u32 * 3;
        for k in 0..5u32 {
            sink.consume(&Command::CreateTexture {
                id: lut_base + k,
                image: Image::noise(32, 32, 0x2009 + k as u64),
                format: TexFormat::Rgba8,
                mipmaps: true,
                sampler,
            });
            sink.consume(&Command::State(StateCommand::BindTexture {
                unit: 3 + k as u8,
                texture: lut_base + k,
            }));
        }
    }

    // ---- per-frame emission ------------------------------------------

    fn emit_camera<S: CommandSink>(&mut self, frame: u32, sink: &mut S) {
        let world = self.world.as_ref().expect("world built");
        let t = frame as f32;
        let eye = world.eye + Vec3::new(0.3 * (t * 0.37).sin(), 0.1 * (t * 0.21).cos(), 0.0);
        let view = Mat4::look_at(eye, world.target, Vec3::Y);
        let proj = Mat4::perspective(60f32.to_radians(), 4.0 / 3.0, 0.5, 200.0);
        let mvp = (proj * view).transpose(); // rows as constants
        sink.consume(&Command::State(StateCommand::VertexConstants {
            base: shaders::constants::MVP_ROW0,
            values: vec![mvp.cols[0], mvp.cols[1], mvp.cols[2], mvp.cols[3]],
        }));
        sink.consume(&Command::State(StateCommand::FragmentConstants {
            base: shaders::constants::LIGHT,
            values: vec![
                Vec4::new(0.9, 0.85, 0.7, 1.0),
                Vec4::new(0.35, 0.4, 0.5, 1.0),
            ],
        }));
    }

    /// The archetype's back-face culling mode.
    fn cull(&self) -> CullMode {
        match self.spec.archetype {
            Archetype::Corridor | Archetype::Crowd => CullMode::Back,
            // Terrain strips alternate winding; storm sprites and foliage
            // leaves are two-sided.
            Archetype::Terrain | Archetype::Storm | Archetype::Foliage => CullMode::None,
        }
    }

    /// The geometry draw list after the API-style transformation.
    fn transform_items(&self, items: &[DrawItem]) -> Vec<DrawItem> {
        match self.spec.api {
            ApiStyle::Sorted | ApiStyle::Thrash => {
                let mut sorted = items.to_vec();
                sorted.sort_by_key(|i| i.material);
                sorted
            }
            ApiStyle::Tiny => {
                let mut out = Vec::new();
                for item in items {
                    let mut off = 0;
                    while off < item.count {
                        let rem = item.count - off;
                        // Chunks must preserve the assembled triangles:
                        // lists split on triangle boundaries, strips
                        // re-send the two shared indices.
                        let count = match item.prim {
                            PrimitiveType::TriangleStrip => rem.min(TINY_INDICES),
                            _ => rem.min(TINY_INDICES / 3 * 3),
                        };
                        out.push(DrawItem { first: item.first + off, count, ..*item });
                        if item.prim == PrimitiveType::TriangleStrip && off + count < item.count
                        {
                            off += count - 2;
                        } else {
                            off += count;
                        }
                    }
                }
                out
            }
            ApiStyle::Mega => {
                let mut out: Vec<DrawItem> = Vec::new();
                for item in items {
                    match out.last_mut() {
                        Some(last)
                            if last.prim == item.prim
                                && last.first + last.count == item.first =>
                        {
                            last.count += item.count;
                        }
                        _ => out.push(*item),
                    }
                }
                out
            }
        }
    }

    /// Seeded in-place shuffle for the state-thrash submission order.
    fn shuffle(&mut self, items: &mut [DrawItem]) {
        for i in (1..items.len()).rev() {
            let j = (self.rng.gen::<u64>() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    fn bind_material<S: CommandSink>(&self, material: u8, sink: &mut S) {
        for unit in 0..3u8 {
            sink.consume(&Command::State(StateCommand::BindTexture {
                unit,
                texture: material as u32 * 3 + unit as u32,
            }));
        }
    }

    fn draw<S: CommandSink>(&self, item: &DrawItem, sink: &mut S) {
        sink.consume(&Command::Draw {
            vertex_buffer: BUFFER,
            index_buffer: BUFFER,
            primitive: item.prim,
            first: item.first,
            count: item.count,
        });
    }

    /// Draws the geometry list with material binding per the API style.
    fn emit_geometry_draws<S: CommandSink>(&mut self, sink: &mut S) {
        let world = self.world.as_ref().expect("world built");
        let mut items = self.transform_items(&world.geometry);
        if self.spec.api == ApiStyle::Thrash {
            self.shuffle(&mut items);
            for item in &items {
                // Redundant rebinds before every draw: the state-thrash
                // signature (programs, full material, fresh constants).
                sink.consume(&Command::State(StateCommand::BindPrograms {
                    vertex: VS,
                    fragment: FS_MAIN,
                }));
                self.bind_material(item.material, sink);
                sink.consume(&Command::State(StateCommand::FragmentConstants {
                    base: shaders::constants::MATERIAL,
                    values: vec![Vec4::new(0.8, 0.8, 0.8, 1.0)],
                }));
                self.draw(item, sink);
            }
        } else {
            let mut last_material = u8::MAX;
            for item in &items {
                if item.material != last_material {
                    self.bind_material(item.material, sink);
                    last_material = item.material;
                }
                self.draw(item, sink);
            }
        }
    }

    /// Depth-only geometry pass (prepass and stencil ambient structure).
    fn emit_depth_pass<S: CommandSink>(&mut self, sink: &mut S) {
        sink.consume(&Command::State(StateCommand::Depth(DepthState::default())));
        sink.consume(&Command::State(StateCommand::ColorMask(false)));
        sink.consume(&Command::State(StateCommand::Blend(BlendState::default())));
        sink.consume(&Command::State(StateCommand::AlphaTest {
            enabled: false,
            reference: 0.0,
        }));
        sink.consume(&Command::State(StateCommand::StencilFront(stencil_off())));
        sink.consume(&Command::State(StateCommand::StencilBack(stencil_off())));
        sink.consume(&Command::State(StateCommand::Cull(self.cull())));
        sink.consume(&Command::State(StateCommand::FrontFaceWinding(FrontFace::Ccw)));
        sink.consume(&Command::State(StateCommand::BindPrograms {
            vertex: VS,
            fragment: FS_DEPTH,
        }));
        let world = self.world.as_ref().expect("world built");
        let mut items = self.transform_items(&world.geometry);
        if self.spec.api == ApiStyle::Thrash {
            self.shuffle(&mut items);
            for item in &items {
                // State thrash hits the depth pass too: redundant program
                // and constant rebinds before every draw.
                sink.consume(&Command::State(StateCommand::BindPrograms {
                    vertex: VS,
                    fragment: FS_DEPTH,
                }));
                sink.consume(&Command::State(StateCommand::VertexConstants {
                    base: shaders::constants::FILLER_A,
                    values: vec![Vec4::new(1.0, 0.0, 0.0, 0.0)],
                }));
                sink.consume(&Command::State(StateCommand::Cull(self.cull())));
                self.draw(item, sink);
            }
        } else {
            for item in &items {
                self.draw(item, sink);
            }
        }
    }

    /// A color-masked full-material pass: the foliage depth prepass,
    /// which must run the texturing fragment program so the alpha test
    /// can kill cutout texels while laying down depth.
    fn emit_masked_color_pass<S: CommandSink>(&mut self, sink: &mut S) {
        self.emit_surface_pass(sink, DepthState::default(), None, false);
    }

    /// A color pass over the geometry with the archetype's surface state.
    fn emit_color_pass<S: CommandSink>(
        &mut self,
        sink: &mut S,
        depth: DepthState,
        blend_override: Option<BlendState>,
    ) {
        self.emit_surface_pass(sink, depth, blend_override, true);
    }

    fn emit_surface_pass<S: CommandSink>(
        &mut self,
        sink: &mut S,
        depth: DepthState,
        blend_override: Option<BlendState>,
        color_mask: bool,
    ) {
        let storm = self.spec.archetype == Archetype::Storm;
        let depth = if storm { DepthState { write: false, ..depth } } else { depth };
        let blend = blend_override.unwrap_or(if storm { additive() } else { BlendState::default() });
        sink.consume(&Command::State(StateCommand::Depth(depth)));
        sink.consume(&Command::State(StateCommand::ColorMask(color_mask)));
        sink.consume(&Command::State(StateCommand::Blend(blend)));
        sink.consume(&Command::State(StateCommand::AlphaTest {
            enabled: self.spec.archetype == Archetype::Foliage,
            reference: 0.5,
        }));
        sink.consume(&Command::State(StateCommand::StencilFront(stencil_off())));
        sink.consume(&Command::State(StateCommand::StencilBack(stencil_off())));
        sink.consume(&Command::State(StateCommand::Cull(self.cull())));
        sink.consume(&Command::State(StateCommand::FrontFaceWinding(FrontFace::Ccw)));
        sink.consume(&Command::State(StateCommand::BindPrograms {
            vertex: VS,
            fragment: FS_MAIN,
        }));
        self.emit_geometry_draws(sink);
    }

    /// The stencil-shadow frame: ambient pass, then per light a volume
    /// pass (z-fail counting) and an additive relight pass.
    fn emit_stencil_frame<S: CommandSink>(&mut self, frame: u32, sink: &mut S) {
        self.emit_color_pass(sink, DepthState::default(), None);
        let _ = frame;
        for light in 0..LIGHTS {
            // Shadow volumes: no color, no depth writes, two-sided.
            sink.consume(&Command::State(StateCommand::Depth(DepthState {
                test: true,
                write: false,
                func: CompareFunc::Less,
            })));
            sink.consume(&Command::State(StateCommand::ColorMask(false)));
            sink.consume(&Command::State(StateCommand::AlphaTest {
                enabled: false,
                reference: 0.0,
            }));
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
            sink.consume(&Command::State(StateCommand::BindPrograms {
                vertex: VS,
                fragment: FS_DEPTH,
            }));
            let volumes = self.world.as_ref().expect("world built").volumes.clone();
            for item in &self.transform_items(&volumes) {
                self.draw(item, sink);
            }

            // Additive relight where the stencil nets zero.
            sink.consume(&Command::State(StateCommand::Depth(DepthState {
                test: true,
                write: false,
                func: CompareFunc::Equal,
            })));
            sink.consume(&Command::State(StateCommand::ColorMask(true)));
            sink.consume(&Command::State(StateCommand::Cull(self.cull())));
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
            sink.consume(&Command::State(StateCommand::Blend(additive())));
            sink.consume(&Command::State(StateCommand::FragmentConstants {
                base: shaders::constants::LIGHT,
                values: vec![Vec4::new(0.8 - 0.25 * light as f32, 0.7, 0.55, 1.0)],
            }));
            sink.consume(&Command::State(StateCommand::BindPrograms {
                vertex: VS,
                fragment: FS_MAIN,
            }));
            self.emit_geometry_draws(sink);
            sink.consume(&Command::Clear {
                mask: ClearMask { color: false, depth: false, stencil: true },
                color: Vec4::ZERO,
                depth: 1.0,
                stencil: 0,
            });
        }
    }

    /// The post-processing chain: fullscreen texture-heavy quads.
    fn emit_post_chain<S: CommandSink>(&mut self, sink: &mut S) {
        sink.consume(&Command::State(StateCommand::Depth(DepthState {
            test: false,
            write: false,
            func: CompareFunc::Always,
        })));
        sink.consume(&Command::State(StateCommand::Blend(BlendState::default())));
        sink.consume(&Command::State(StateCommand::AlphaTest {
            enabled: false,
            reference: 0.0,
        }));
        sink.consume(&Command::State(StateCommand::Cull(CullMode::None)));
        sink.consume(&Command::State(StateCommand::BindPrograms {
            vertex: VS,
            fragment: FS_POST,
        }));
        let quads = self.world.as_ref().expect("world built").fullscreen.clone();
        let mut last_material = u8::MAX;
        for quad in &self.transform_items(&quads) {
            if quad.material != last_material {
                self.bind_material(quad.material, sink);
                last_material = quad.material;
            }
            self.draw(quad, sink);
        }
    }
}

fn additive() -> BlendState {
    BlendState { enabled: true, src: BlendFactor::One, dst: BlendFactor::One }
}

fn stencil_off() -> StencilState {
    StencilState {
        test: false,
        func: CompareFunc::Always,
        reference: 0,
        read_mask: 0xff,
        fail: StencilOp::Keep,
        zfail: StencilOp::Keep,
        pass: StencilOp::Keep,
    }
}

/// Blocky alpha noise for foliage: 8×8 texel blocks that are either fully
/// opaque or fully transparent, so alpha-kill survives mip filtering.
fn alpha_block_noise(width: u32, height: u32, seed: u64) -> Image {
    let hash = |x: u32, y: u32| -> u64 {
        let mut h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(((x as u64) << 32) | y as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    };
    Image::from_fn(width, height, |x, y| {
        let v = (hash(x, y) & 0xff) as u8;
        let alpha = if hash(x / 8, y / 8) & 1 == 0 { 255 } else { 0 };
        [64 + v / 2, 96 + v / 4, 48 + v / 3, alpha]
    })
}

// ---- world construction ----------------------------------------------

fn build_world(archetype: Archetype, rng: &mut StdRng) -> World {
    let mut world = World {
        vertices: Vec::new(),
        indices: Vec::new(),
        geometry: Vec::new(),
        volumes: Vec::new(),
        fullscreen: Vec::new(),
        eye: Vec3::new(0.0, 2.0, -8.0),
        target: Vec3::new(0.0, 2.0, 30.0),
    };
    match archetype {
        Archetype::Corridor => build_corridor(&mut world, rng),
        Archetype::Terrain => build_terrain(&mut world, rng),
        Archetype::Storm => build_storm(&mut world, rng),
        Archetype::Foliage => build_foliage(&mut world, rng),
        Archetype::Crowd => build_crowd(&mut world, rng),
    }
    build_volumes(&mut world, rng);
    build_fullscreen(&mut world);
    world
}

/// Half-extents of the view frustum cross-section at distance `d`
/// (60° vertical FOV, 4:3 aspect).
fn frustum_half(d: f32) -> (f32, f32) {
    let half_h = d * (30f32.to_radians()).tan();
    (half_h * 4.0 / 3.0, half_h)
}

/// Indoor corridor: an enclosing room plus screen-filling wall layers at
/// increasing depth — raster depth complexity stacks by construction.
fn build_corridor(world: &mut World, rng: &mut StdRng) {
    let room = mesh::room(Vec3::new(0.0, 2.0, 12.0), Vec3::new(9.0, 7.0, 26.0), 6);
    world.push_geometry(&room, PrimitiveType::TriangleList, 0);
    for (layer, z) in (1..=7u32).map(|k| (k, 2.0 + 4.0 * k as f32)).collect::<Vec<_>>() {
        // Distance from the eye at z = -8.
        let d = z + 8.0;
        let (hw, hh) = frustum_half(d);
        let (hw, hh) = (hw * 0.85, hh * 0.85);
        let jitter = Vec3::new(
            (rng.gen::<f32>() - 0.5) * 2.0,
            (rng.gen::<f32>() - 0.5) * 1.0,
            0.0,
        );
        let center = Vec3::new(0.0, 2.0, z) + jitter;
        // u × v = -Z: front-facing toward the camera looking +Z. Each
        // layer is two half-panels so draw counts resemble a real scene
        // rather than one call per layer.
        let material = (layer % MATERIALS as u32) as u8;
        let v_axis = Vec3::new(0.0, 2.0 * hh, 0.0);
        for half in 0..2 {
            let u_axis = Vec3::new(-hw, 0.0, 0.0);
            let start = center + Vec3::new(hw - half as f32 * hw, 0.0, 0.0) - v_axis * 0.5;
            let panel = mesh::grid_panel(start, u_axis, v_axis, 5, 10);
            world.push_geometry(&panel, PrimitiveType::TriangleList, material);
        }
    }
}

/// Open terrain: strip-ordered heightfield patches. Rows are short enough
/// (6 cells) that each strip's top edge is still resident in the 16-entry
/// post-transform cache when the next strip re-reads it.
fn build_terrain(world: &mut World, rng: &mut StdRng) {
    world.eye = Vec3::new(0.0, 9.0, -10.0);
    world.target = Vec3::new(0.0, 0.0, 30.0);
    let cells = 6u32;
    for gx in -2i32..=2 {
        for gz in 0i32..5 {
            let origin = Vec3::new(
                gx as f32 * 24.0 - 12.0,
                -2.0,
                gz as f32 * 24.0 - 2.0,
            );
            let phase = rng.gen::<f32>() * std::f32::consts::TAU;
            let (m, ranges) = mesh::terrain_strips(origin, 24.0, cells, |x, z| {
                ((x * 7.0 + phase).sin() + (z * 5.0 + phase).cos()) * 1.5
            });
            // Concatenate the strip rows into one strip-ordered slice
            // (restarts approximated by a single long strip, like the
            // timedemo generator).
            let mut strip = Mesh { vertices: m.vertices.clone(), indices: Vec::new() };
            for &(start, count) in &ranges {
                strip
                    .indices
                    .extend_from_slice(&m.indices[start as usize..(start + count) as usize]);
            }
            let material = ((gx + 2) as u32 + gz as u32) % MATERIALS as u32;
            world.push_geometry(&strip, PrimitiveType::TriangleStrip, material as u8);
        }
    }
}

/// Particle storm: clouds of independent additive quads with fully
/// disjoint vertices — zero post-transform cache reuse by construction.
fn build_storm(world: &mut World, rng: &mut StdRng) {
    world.eye = Vec3::new(0.0, 0.0, -5.0);
    world.target = Vec3::new(0.0, 0.0, 20.0);
    const PARTICLES: u32 = 220;
    const PER_SLICE: u32 = 12;
    let mut mesh = Mesh::default();
    let mut sliced = 0u32;
    for p in 0..PARTICLES {
        let d = 6.0 + rng.gen::<f32>() * 24.0;
        let (hw, hh) = frustum_half(d + 5.0);
        let center = Vec3::new(
            (rng.gen::<f32>() - 0.5) * 1.6 * hw,
            (rng.gen::<f32>() - 0.5) * 1.6 * hh,
            d,
        );
        let half = 0.082 * (d + 5.0);
        // Two disjoint triangles: six unique vertices, no shared indices.
        let quad = [
            center + Vec3::new(-half, -half, 0.0),
            center + Vec3::new(half, -half, 0.0),
            center + Vec3::new(-half, half, 0.0),
            center + Vec3::new(half, -half, 0.0),
            center + Vec3::new(half, half, 0.0),
            center + Vec3::new(-half, half, 0.0),
        ];
        let uvs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        let base = mesh.vertex_count() as u32;
        for (pos, (u, v)) in quad.into_iter().zip(uvs) {
            mesh.vertices.push(pos.extend(1.0));
            mesh.vertices.push(Vec3::new(0.0, 0.0, -1.0).extend(0.0));
            mesh.vertices.push(Vec4::new(u, v, 0.0, 0.0));
        }
        mesh.indices.extend(base..base + 6);
        if (p + 1) % PER_SLICE == 0 || p + 1 == PARTICLES {
            let material = (sliced % MATERIALS as u32) as u8;
            world.push_geometry(&mesh, PrimitiveType::TriangleList, material);
            mesh = Mesh::default();
            sliced += 1;
        }
    }
}

/// Foliage: layers of two-sided alpha-tested panels; roughly half of each
/// panel's texels are fully transparent blocks.
fn build_foliage(world: &mut World, rng: &mut StdRng) {
    for layer in 0..6u32 {
        let z = 5.0 + 4.5 * layer as f32;
        let d = z + 8.0;
        let (hw, hh) = frustum_half(d);
        let (hw, hh) = (hw * 0.75, hh * 0.75);
        let jitter = Vec3::new((rng.gen::<f32>() - 0.5) * 3.0, (rng.gen::<f32>() - 0.5) * 1.5, 0.0);
        let center = Vec3::new(0.0, 2.0, z) + jitter;
        let material = (layer % MATERIALS as u32) as u8;
        let v_axis = Vec3::new(0.0, 2.0 * hh, 0.0);
        for half in 0..2 {
            let u_axis = Vec3::new(-hw, 0.0, 0.0);
            let start = center + Vec3::new(hw - half as f32 * hw, 0.0, 0.0) - v_axis * 0.5;
            let panel = mesh::grid_panel(start, u_axis, v_axis, 4, 8);
            world.push_geometry(&panel, PrimitiveType::TriangleList, material);
        }
    }
}

/// Crowd: a field of closed spheres — the far hemispheres back-face the
/// camera and feed the cull counter.
fn build_crowd(world: &mut World, rng: &mut StdRng) {
    world.eye = Vec3::new(0.0, 3.0, -10.0);
    world.target = Vec3::new(0.0, 1.5, 30.0);
    let mut placed = 0u32;
    for row in 0..6u32 {
        for col in 0..8u32 {
            let z = 6.0 + row as f32 * 6.0 + rng.gen::<f32>() * 2.0;
            let (hw, _) = frustum_half(z + 10.0);
            let x = (col as f32 / 7.0 - 0.5) * 1.7 * hw;
            let y = 1.5 + rng.gen::<f32>() * 2.5;
            let radius = 1.7 + rng.gen::<f32>() * 1.1;
            let sphere = mesh::uv_sphere(Vec3::new(x, y, z), radius, 6, 10);
            world.push_geometry(
                &sphere,
                PrimitiveType::TriangleList,
                (placed % MATERIALS as u32) as u8,
            );
            placed += 1;
        }
    }
}

/// Generic shadow-volume slabs for the stencil style: entry/exit quad
/// pairs at staggered depths in front of the camera.
fn build_volumes(world: &mut World, rng: &mut StdRng) {
    for k in 0..6u32 {
        let d = 6.0 + 4.0 * k as f32 + rng.gen::<f32>() * 2.0;
        let gap = 5.0 + rng.gen::<f32>() * 4.0;
        let (hw, hh) = frustum_half(d + 8.0);
        let span = Vec3::new(0.9 * hw, 0.0, 0.0);
        let up = Vec3::new(0.0, 0.9 * hh, 0.0);
        let x = (rng.gen::<f32>() - 0.5) * hw;
        let mut m = Mesh::default();
        let near_c = Vec3::new(x, 2.0, d);
        let far_c = Vec3::new(x, 2.0, d + gap);
        // Entry face (one winding) and exit face (flipped).
        m.append(&mesh::volume_quad(near_c, span, up));
        m.append(&mesh::volume_quad(far_c, up, span));
        let item = world.push(&m, PrimitiveType::TriangleList, 0);
        world.volumes.push(item);
    }
}

/// Oversized camera-facing quads just past the near plane, one per
/// post-processing pass.
fn build_fullscreen(world: &mut World) {
    let dir = (world.target - world.eye).normalized();
    for q in 0..POST_QUADS {
        let center = world.eye + dir * (2.5 + 0.1 * q as f32);
        let (hw, hh) = frustum_half(2.5 + 0.1 * q as f32);
        let u_axis = Vec3::Y.cross(dir).normalized() * (-4.0 * hw);
        let v_axis = Vec3::Y * (4.0 * hh);
        let quad = mesh::grid_panel(center - u_axis * 0.5 - v_axis * 0.5, u_axis, v_axis, 1, 1);
        let item = world.push(&quad, PrimitiveType::TriangleList, (q % MATERIALS as u32) as u8);
        world.fullscreen.push(item);
    }
}
