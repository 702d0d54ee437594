//! End-to-end pipeline tests: real draws through the full GPU.

use gwc_api::{ClearMask, Command, CommandSink, Indices, StateCommand, VertexLayout};
use gwc_math::Vec4;
use gwc_mem::MemClient;
use gwc_pipeline::{Gpu, GpuConfig};
use gwc_raster::{BlendFactor, BlendState, CompareFunc, CullMode, DepthState, PrimitiveType,
                 StencilOp, StencilState};
use gwc_shader::{Instr, Program, ProgramKind, Reg, Src};
use gwc_texture::{FilterMode, Image, SamplerState, TexFormat, WrapMode};

const W: u32 = 128;
const H: u32 = 128;

/// Pass-through vertex program: position from v0, texcoord varying from v1.
fn passthrough_vs() -> Program {
    Program::new(
        ProgramKind::Vertex,
        "passthrough",
        vec![
            Instr::mov(Reg::out(0), Src::input(0)),
            Instr::mov(Reg::out(1), Src::input(1)),
        ],
    )
    .unwrap()
}

/// Fragment program emitting a constant color from c0.
fn flat_fs() -> Program {
    Program::new(
        ProgramKind::Fragment,
        "flat",
        vec![Instr::mov(Reg::out(0), Src::constant(0))],
    )
    .unwrap()
}

/// Fragment program sampling texture unit 0 with the first varying.
fn textured_fs() -> Program {
    Program::new(
        ProgramKind::Fragment,
        "textured",
        vec![
            Instr::tex(Reg::temp(0), Src::input(0), 0),
            Instr::mov(Reg::out(0), Src::temp(0)),
        ],
    )
    .unwrap()
}

struct Ctx {
    gpu: Gpu,
}

impl Ctx {
    fn new() -> Ctx {
        let mut gpu = Gpu::new(GpuConfig::r520(W, H));
        // Resources: a fullscreen-ish triangle pair and a small quad.
        let quad = |cx: f32, cy: f32, half: f32, z: f32| -> Vec<Vec4> {
            // position + texcoord per vertex, 4 vertices.
            let mut data = Vec::new();
            for (dx, dy, u, v) in [
                (-half, -half, 0.0, 0.0),
                (half, -half, 1.0, 0.0),
                (half, half, 1.0, 1.0),
                (-half, half, 0.0, 1.0),
            ] {
                data.push(Vec4::new(cx + dx, cy + dy, z, 1.0));
                data.push(Vec4::new(u, v, 0.0, 0.0));
            }
            data
        };
        let layout = VertexLayout { attributes: 2, stride_bytes: 24 };
        // Buffer 0: centered quad at z=0 (depth 0.5), buffer 1: same
        // footprint farther, buffer 2: nearer.
        for (id, z) in [(0u32, 0.0f32), (1, 0.5), (2, -0.5)] {
            gpu.consume(&Command::CreateVertexBuffer {
                id,
                layout,
                data: quad(0.0, 0.0, 0.8, z),
            });
        }
        gpu.consume(&Command::CreateIndexBuffer {
            id: 0,
            indices: Indices::U16(vec![0, 1, 2, 0, 2, 3]),
        });
        gpu.consume(&Command::CreateProgram { id: 0, program: passthrough_vs() });
        gpu.consume(&Command::CreateProgram { id: 1, program: flat_fs() });
        gpu.consume(&Command::CreateProgram { id: 2, program: textured_fs() });
        gpu.consume(&Command::State(StateCommand::Cull(CullMode::None)));
        gpu.consume(&Command::State(StateCommand::BindPrograms { vertex: 0, fragment: 1 }));
        gpu.consume(&Command::State(StateCommand::FragmentConstants {
            base: 0,
            values: vec![Vec4::new(1.0, 0.0, 0.0, 1.0)],
        }));
        Ctx { gpu }
    }

    fn clear(&mut self) {
        self.gpu.consume(&Command::Clear {
            mask: ClearMask::ALL,
            color: Vec4::new(0.0, 0.0, 0.0, 1.0),
            depth: 1.0,
            stencil: 0,
        });
    }

    fn draw(&mut self, vb: u32) {
        self.gpu.consume(&Command::Draw {
            vertex_buffer: vb,
            index_buffer: 0,
            primitive: PrimitiveType::TriangleList,
            first: 0,
            count: 6,
        });
    }

    fn end_frame(&mut self) {
        self.gpu.consume(&Command::EndFrame);
    }
}

#[test]
fn draws_render_pixels() {
    let mut c = Ctx::new();
    c.clear();
    c.draw(0);
    c.end_frame();
    let fb = c.gpu.framebuffer();
    // Center pixel is red; corner stays black.
    let center = fb.pixel(W / 2, H / 2);
    assert!(center.x > 0.9 && center.y < 0.1, "center = {center:?}");
    let corner = fb.pixel(1, 1);
    assert!(corner.x < 0.1, "corner = {corner:?}");
    let f = &c.gpu.stats().frames()[0];
    // The quad covers (0.8 * 128)^2 ≈ 10486 pixels with 2 triangles.
    assert_eq!(f.assembled, 2);
    assert_eq!(f.traversed, 2);
    assert!(f.frags_raster > 9000 && f.frags_raster < 12000, "{}", f.frags_raster);
    assert_eq!(f.frags_raster, f.frags_zst);
    assert_eq!(f.frags_raster, f.frags_shaded);
    assert_eq!(f.frags_raster, f.frags_blended);
}

#[test]
fn vertex_cache_shares_quad_vertices() {
    let mut c = Ctx::new();
    c.clear();
    c.draw(0);
    c.end_frame();
    let f = &c.gpu.stats().frames()[0];
    // 6 indices, 4 distinct vertices: 2 hits.
    assert_eq!(f.indices, 6);
    assert_eq!(f.shaded_vertices, 4);
    assert_eq!(f.vcache_hits, 2);
    assert!((f.vertex_cache_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
}

#[test]
#[should_panic(expected = "vertex cache needs at least one entry")]
fn zero_entry_vertex_cache_is_rejected() {
    Gpu::new(GpuConfig { vertex_cache_entries: 0, ..GpuConfig::r520(16, 16) });
}

#[test]
fn occluded_geometry_removed_by_hz_or_z() {
    let mut c = Ctx::new();
    c.clear();
    c.draw(2); // near quad (depth 0.25)
    c.draw(1); // far quad (depth 0.75), fully occluded
    c.end_frame();
    let f = &c.gpu.stats().frames()[0];
    // The second quad's fragments must all die before shading.
    assert!(f.frags_shaded < f.frags_raster, "shaded {} raster {}", f.frags_shaded, f.frags_raster);
    assert!(f.quads_hz_removed > 0, "HZ should reject occluded quads");
    // Blended = only the visible near quad.
    assert!((f.frags_blended as i64 - (f.frags_raster / 2) as i64).abs() < 200);
}

#[test]
fn front_to_back_vs_back_to_front_overdraw() {
    // Back-to-front: everything shades. Front-to-back: the far quad dies.
    let shaded = |order: [u32; 2]| {
        let mut c = Ctx::new();
        c.clear();
        c.draw(order[0]);
        c.draw(order[1]);
        c.end_frame();
        c.gpu.stats().frames()[0].frags_shaded
    };
    let back_to_front = shaded([1, 2]);
    let front_to_back = shaded([2, 1]);
    assert!(
        back_to_front > front_to_back + 5000,
        "b2f {back_to_front} vs f2b {front_to_back}"
    );
}

#[test]
fn stencil_shadow_volume_pattern() {
    let mut c = Ctx::new();
    c.clear();
    // 1. Depth prepass: near quad fills z.
    c.draw(2);
    // 2. Stencil pass: far quad with color mask off, no depth write,
    //    zfail increments (fragments fail z behind the near quad).
    c.gpu.consume(&Command::State(StateCommand::ColorMask(false)));
    c.gpu.consume(&Command::State(StateCommand::Depth(DepthState {
        test: true,
        write: false,
        func: CompareFunc::Less,
    })));
    let sv = StencilState {
        test: true,
        func: CompareFunc::Always,
        reference: 0,
        read_mask: 0xff,
        fail: StencilOp::Keep,
        zfail: StencilOp::IncrWrap,
        pass: StencilOp::Keep,
    };
    c.gpu.consume(&Command::State(StateCommand::StencilFront(sv)));
    c.gpu.consume(&Command::State(StateCommand::StencilBack(sv)));
    c.draw(1);
    c.end_frame();
    let f = &c.gpu.stats().frames()[0];
    // HZ must NOT have removed the stencil-volume quads (zfail op active):
    // they all reach z&stencil and fail depth there.
    assert!(f.quads_zst_removed > 1000, "zst removed = {}", f.quads_zst_removed);
    // Stencil buffer recorded the shadow counts.
    assert_eq!(c.gpu.depth_buffer().stencil_at(W / 2, H / 2), 1);
    // Color-mask quads were counted for the prepass? No: prepass writes
    // color. Stencil pass quads died at zst, so no colormask count.
    assert!(f.frags_blended > 0);
}

#[test]
fn color_mask_quads_counted() {
    let mut c = Ctx::new();
    c.clear();
    c.gpu.consume(&Command::State(StateCommand::ColorMask(false)));
    c.draw(0);
    c.end_frame();
    let f = &c.gpu.stats().frames()[0];
    assert!(f.quads_colormask > 0);
    assert_eq!(f.frags_blended, 0);
    // Nothing rendered.
    assert!(c.gpu.framebuffer().pixel(W / 2, H / 2).x < 0.1);
}

#[test]
fn alpha_test_kills_transparent_quads() {
    let mut c = Ctx::new();
    c.clear();
    c.gpu.consume(&Command::State(StateCommand::AlphaTest { enabled: true, reference: 0.5 }));
    // Constant color with alpha 0.25 -> everything dies at alpha test.
    c.gpu.consume(&Command::State(StateCommand::FragmentConstants {
        base: 0,
        values: vec![Vec4::new(1.0, 0.0, 0.0, 0.25)],
    }));
    c.draw(0);
    c.end_frame();
    let f = &c.gpu.stats().frames()[0];
    assert!(f.quads_alpha_removed > 0);
    assert_eq!(f.frags_blended, 0);
    // Alpha test forces late-z: fragments were shaded first.
    assert!(f.frags_shaded > 0);
}

#[test]
fn textured_draw_samples_and_fills_caches() {
    let mut c = Ctx::new();
    let img = Image::checkerboard(64, 64, 4, [255, 255, 255, 255], [0, 0, 0, 255]);
    c.gpu.consume(&Command::CreateTexture {
        id: 0,
        image: img,
        format: TexFormat::Dxt1,
        mipmaps: true,
        sampler: SamplerState {
            wrap: WrapMode::Repeat,
            filter: FilterMode::Trilinear,
            lod_bias: 0.0,
        },
    });
    c.gpu.consume(&Command::State(StateCommand::BindTexture { unit: 0, texture: 0 }));
    c.gpu.consume(&Command::State(StateCommand::BindPrograms { vertex: 0, fragment: 2 }));
    c.clear();
    c.draw(0);
    c.end_frame();
    let f = &c.gpu.stats().frames()[0];
    assert!(f.tex_requests > 9000, "requests = {}", f.tex_requests);
    assert!(f.bilinear_samples >= f.tex_requests);
    assert!(f.fs_tex_instructions > 0);
    let l0 = c.gpu.tex_l0_stats();
    assert!(l0.hit_rate() > 0.5, "L0 hit rate = {}", l0.hit_rate());
    // The image must show the checkerboard (mean luminance mid-grey-ish).
    let lum = c.gpu.framebuffer().mean_luminance();
    assert!(lum > 0.02 && lum < 0.9, "luminance = {lum}");
    // Texture memory traffic happened.
    let tex_read = c.gpu.memory().frames()[0].client(MemClient::Texture).read;
    assert!(tex_read > 0);
}

#[test]
fn memory_distribution_covers_stages() {
    let mut c = Ctx::new();
    c.clear();
    c.draw(0);
    c.end_frame();
    let frame = c.gpu.memory().frames()[0];
    assert!(frame.client(MemClient::Vertex).read > 0, "vertex traffic");
    assert!(frame.client(MemClient::ZStencil).total() > 0, "z traffic");
    assert!(frame.client(MemClient::Color).total() > 0, "color traffic");
    assert!(frame.client(MemClient::Dac).read > 0, "dac traffic");
    assert!(frame.client(MemClient::CommandProcessor).total() > 0, "cp traffic");
    let shares: f64 = MemClient::ALL.iter().map(|&cl| frame.share(cl)).sum();
    assert!((shares - 1.0).abs() < 1e-9);
}

#[test]
fn fast_clear_makes_first_z_reads_free() {
    let mut c = Ctx::new();
    c.clear();
    c.draw(0);
    c.end_frame();
    let z = c.gpu.memory().frames()[0].client(MemClient::ZStencil);
    // With fast clear, z fills read nothing on the first touch: the read
    // side must be far below the write side for a single-layer frame.
    assert!(z.read < z.written, "read {} written {}", z.read, z.written);
}

#[test]
fn blending_reads_and_writes_color() {
    let mut c = Ctx::new();
    c.clear();
    // Co-planar additive passes need LessEqual, like multipass lighting.
    c.gpu.consume(&Command::State(StateCommand::Depth(DepthState {
        test: true,
        write: true,
        func: CompareFunc::LessEqual,
    })));
    c.gpu.consume(&Command::State(StateCommand::Blend(BlendState {
        enabled: true,
        src: BlendFactor::One,
        dst: BlendFactor::One,
    })));
    c.gpu.consume(&Command::State(StateCommand::FragmentConstants {
        base: 0,
        values: vec![Vec4::new(0.25, 0.25, 0.0, 1.0)],
    }));
    c.draw(0);
    c.draw(0);
    c.end_frame();
    // Two additive passes: 0.5 in red+green at the center.
    let p = c.gpu.framebuffer().pixel(W / 2, H / 2);
    assert!((p.x - 0.5).abs() < 0.02, "{p:?}");
    let f = &c.gpu.stats().frames()[0];
    // Overdraw of 2 at blending.
    let (_, _, _, blend_od) = f.overdraw((W * H) as u64);
    assert!(blend_od > 1.0, "blend overdraw = {blend_od}");
}

#[test]
fn culling_discards_backfaces() {
    let mut c = Ctx::new();
    c.clear();
    c.gpu.consume(&Command::State(StateCommand::Cull(CullMode::Back)));
    c.draw(0); // CCW quad: front-facing, survives
    c.end_frame();
    c.clear();
    c.gpu.consume(&Command::State(StateCommand::Cull(CullMode::Front)));
    c.draw(0); // now culled
    c.end_frame();
    let frames = c.gpu.stats().frames();
    assert_eq!(frames[0].culled, 0);
    assert_eq!(frames[0].traversed, 2);
    assert_eq!(frames[1].culled, 2);
    assert_eq!(frames[1].traversed, 0);
}

#[test]
fn quad_efficiency_reported() {
    let mut c = Ctx::new();
    c.clear();
    c.draw(0);
    c.end_frame();
    let f = &c.gpu.stats().frames()[0];
    let (raster_eff, zst_eff) = f.quad_efficiency();
    // Two large triangles: high efficiency (the paper reports >90% at
    // 1024×768; at 128×128 the diagonal-edge share is slightly larger).
    assert!(raster_eff > 0.85, "raster efficiency {raster_eff}");
    assert!(zst_eff > 0.85, "zst efficiency {zst_eff}");
}

#[test]
fn frame_series_lengths() {
    let mut c = Ctx::new();
    for _ in 0..3 {
        c.clear();
        c.draw(0);
        c.end_frame();
    }
    assert_eq!(c.gpu.stats().frames().len(), 3);
    assert_eq!(c.gpu.memory().frames().len(), 3);
    let hits = c.gpu.stats().series("vcache", |f| f.vertex_cache_hit_rate());
    assert_eq!(hits.len(), 3);
}
