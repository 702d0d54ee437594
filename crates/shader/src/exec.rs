//! Shader interpreter.
//!
//! Vertex programs run one vertex at a time; fragment programs run one
//! 2×2 quad at a time. Quad-granularity fragment execution matches real
//! hardware: the texture unit needs all four fragments' coordinates to
//! compute screen-space derivatives for level-of-detail selection, and
//! helper (dead) lanes still execute so derivatives stay valid.

use gwc_math::Vec4;

use crate::isa::{Instr, Opcode, RegFile, Src};
use crate::program::{Program, ProgramKind, MAX_CONSTANTS, MAX_OUTPUTS, MAX_TEMPS};

/// Dynamic execution statistics (the microarchitectural complement of the
/// static Table IV / XII counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Instructions executed (per vertex or per quad, not per lane).
    pub instructions: u64,
    /// Texture instructions executed.
    pub texture_instructions: u64,
}

impl ExecStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.instructions += other.instructions;
        self.texture_instructions += other.texture_instructions;
    }

    /// The delta accumulated since `earlier` was captured. Counters are
    /// monotonic, so this is how per-frame figures fall out of the
    /// machines' cumulative totals.
    pub fn delta_since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            instructions: self.instructions - earlier.instructions,
            texture_instructions: self.texture_instructions - earlier.texture_instructions,
        }
    }
}

/// A quad texture request handed to the texture unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureRequest {
    /// Texture unit index.
    pub unit: u8,
    /// Per-lane texture coordinates in quad order
    /// `[(x,y), (x+1,y), (x,y+1), (x+1,y+1)]`.
    pub coords: [Vec4; 4],
    /// Per-lane LOD bias (non-zero only for `TXB`).
    pub lod_bias: f32,
    /// Projective sample (`TXP`): divide coordinates by `w`.
    pub projective: bool,
    /// Which lanes correspond to live (covered, unkilled) fragments.
    /// Helper lanes still receive coordinates for derivative purposes.
    pub active: [bool; 4],
}

/// The texture unit interface the interpreter samples through.
pub trait QuadSampler {
    /// Samples one quad: returns the filtered texel color for each lane.
    fn sample_quad(&mut self, request: &TextureRequest) -> [Vec4; 4];
}

/// A sampler that returns a fixed color — useful for tests and for
/// API-level (non-simulated) statistics runs where texel values don't
/// matter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NullSampler {
    /// The color returned for every sample.
    pub color: Vec4,
}

impl QuadSampler for NullSampler {
    fn sample_quad(&mut self, _request: &TextureRequest) -> [Vec4; 4] {
        [self.color; 4]
    }
}

/// Result of running a fragment program on one quad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentQuadResult {
    /// Output color (`o0`) per lane.
    pub color: [Vec4; 4],
    /// Replaced depth (`o1.x`) per lane, when the program writes depth.
    pub depth: Option<[f32; 4]>,
    /// Lanes killed by `KIL`.
    pub killed: [bool; 4],
}

/// The shader execution engine: constant store plus interpreter.
///
/// One machine is shared by all programs of a device; constants are bound
/// before each draw (they model the ARB "program environment/local
/// parameters").
#[derive(Debug, Clone, PartialEq)]
pub struct ShaderMachine {
    constants: Vec<Vec4>,
    stats: ExecStats,
}

impl Default for ShaderMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl ShaderMachine {
    /// Creates a machine with all constants zero.
    pub fn new() -> Self {
        ShaderMachine { constants: vec![Vec4::ZERO; MAX_CONSTANTS as usize], stats: ExecStats::default() }
    }

    /// Sets constant register `c<i>`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the constant file.
    pub fn set_constant(&mut self, i: usize, v: Vec4) {
        self.constants[i] = v;
    }

    /// Reads constant register `c<i>`.
    pub fn constant(&self, i: usize) -> Vec4 {
        self.constants[i]
    }

    /// Size of the constant register file.
    pub fn constant_count(&self) -> usize {
        self.constants.len()
    }

    /// Accumulated execution statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Resets accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    /// Overwrites the accumulated statistics (checkpoint restore).
    pub fn restore_stats(&mut self, stats: ExecStats) {
        self.stats = stats;
    }

    /// Runs a vertex program on one vertex.
    ///
    /// `inputs` are the vertex attributes (`v0..`); missing attributes read
    /// as zero. Returns the output registers (`o0` = clip position,
    /// `o1..` = varyings).
    ///
    /// # Panics
    ///
    /// Panics if the program is not a vertex program.
    pub fn run_vertex(&mut self, program: &Program, inputs: &[Vec4]) -> [Vec4; MAX_OUTPUTS as usize] {
        assert_eq!(program.kind(), ProgramKind::Vertex, "run_vertex needs a vertex program");
        let mut lanes = Lanes::new(&[inputs, &[], &[], &[]]);
        for instr in program.instructions() {
            self.stats.instructions += 1;
            lanes.execute_alu(instr, &self.constants);
        }
        lanes.outputs[0]
    }

    /// Runs a fragment program on one quad.
    ///
    /// `inputs[lane]` are the interpolated varyings for that lane (in the
    /// same register slots the vertex program wrote them, i.e. `v0` is the
    /// first varying). `live` marks covered lanes; helper lanes execute but
    /// their results are discarded by the pipeline. Texture instructions
    /// are forwarded to `sampler`.
    ///
    /// # Panics
    ///
    /// Panics if the program is not a fragment program.
    pub fn run_fragment_quad<S: QuadSampler>(
        &mut self,
        program: &Program,
        inputs: &[&[Vec4]; 4],
        live: [bool; 4],
        sampler: &mut S,
    ) -> FragmentQuadResult {
        assert_eq!(program.kind(), ProgramKind::Fragment, "run_fragment_quad needs a fragment program");
        let mut lanes = Lanes::new(inputs);
        let mut killed = [false; 4];
        for instr in program.instructions() {
            self.stats.instructions += 1;
            match instr.op {
                Opcode::Tex | Opcode::Txp | Opcode::Txb => {
                    self.stats.texture_instructions += 1;
                    let src = instr.srcs[0];
                    let coords = [
                        lanes.read(0, src, &self.constants),
                        lanes.read(1, src, &self.constants),
                        lanes.read(2, src, &self.constants),
                        lanes.read(3, src, &self.constants),
                    ];
                    let lod_bias = if instr.op == Opcode::Txb { coords[0].w } else { 0.0 };
                    let mut active = [false; 4];
                    for i in 0..4 {
                        active[i] = live[i] && !killed[i];
                    }
                    let req = TextureRequest {
                        unit: instr.tex_unit,
                        coords,
                        lod_bias,
                        projective: instr.op == Opcode::Txp,
                        active,
                    };
                    let texels = sampler.sample_quad(&req);
                    for (lane, &texel) in texels.iter().enumerate() {
                        lanes.write(lane, instr, texel);
                    }
                }
                Opcode::Kil => {
                    for (lane, kill) in killed.iter_mut().enumerate() {
                        let v = lanes.read(lane, instr.srcs[0], &self.constants);
                        if v.x < 0.0 || v.y < 0.0 || v.z < 0.0 || v.w < 0.0 {
                            *kill = true;
                        }
                    }
                }
                _ => lanes.execute_alu(instr, &self.constants),
            }
        }
        let depth = if program.writes_depth() {
            Some([
                lanes.outputs[0][1].x,
                lanes.outputs[1][1].x,
                lanes.outputs[2][1].x,
                lanes.outputs[3][1].x,
            ])
        } else {
            None
        };
        FragmentQuadResult {
            color: [
                lanes.outputs[0][0],
                lanes.outputs[1][0],
                lanes.outputs[2][0],
                lanes.outputs[3][0],
            ],
            depth,
            killed,
        }
    }
}

const MAX_INPUT_REGS: usize = 16;

/// Per-lane register state during execution (4 lanes; vertex programs use
/// lane 0 only). Fixed-size storage: this sits on the hot path (one
/// instance per shaded quad), so no heap allocation.
struct Lanes {
    inputs: [[Vec4; MAX_INPUT_REGS]; 4],
    temps: [[Vec4; MAX_TEMPS as usize]; 4],
    outputs: [[Vec4; MAX_OUTPUTS as usize]; 4],
}

impl Lanes {
    fn new(inputs: &[&[Vec4]; 4]) -> Lanes {
        let mut fixed = [[Vec4::ZERO; MAX_INPUT_REGS]; 4];
        for (row, src) in fixed.iter_mut().zip(inputs.iter()) {
            let n = src.len().min(MAX_INPUT_REGS);
            row[..n].copy_from_slice(&src[..n]);
        }
        Lanes {
            inputs: fixed,
            temps: [[Vec4::ZERO; MAX_TEMPS as usize]; 4],
            outputs: [[Vec4::ZERO; MAX_OUTPUTS as usize]; 4],
        }
    }

    fn read(&self, lane: usize, src: Src, constants: &[Vec4]) -> Vec4 {
        let raw = match src.reg.file {
            RegFile::Input => self.inputs[lane][src.reg.index as usize],
            RegFile::Temp => self.temps[lane][src.reg.index as usize],
            RegFile::Constant => constants[src.reg.index as usize],
            RegFile::Output => Vec4::ZERO, // rejected by validation
        };
        let s = src.swizzle.0;
        let sw = Vec4::new(raw[s[0] as usize], raw[s[1] as usize], raw[s[2] as usize], raw[s[3] as usize]);
        if src.negate {
            -sw
        } else {
            sw
        }
    }

    fn write(&mut self, lane: usize, instr: &Instr, value: Vec4) {
        let mask = instr.mask.0;
        let dst = match instr.dst.file {
            RegFile::Temp => &mut self.temps[lane][instr.dst.index as usize],
            RegFile::Output => &mut self.outputs[lane][instr.dst.index as usize],
            _ => return, // rejected by validation
        };
        for c in 0..4 {
            if mask[c] {
                dst[c] = value[c];
            }
        }
    }

    /// Executes a non-texture, non-kill instruction on all four lanes.
    fn execute_alu(&mut self, instr: &Instr, constants: &[Vec4]) {
        for lane in 0..4 {
            let a = self.read(lane, instr.srcs[0], constants);
            let b = self.read(lane, instr.srcs[1], constants);
            let c = self.read(lane, instr.srcs[2], constants);
            let result = match instr.op {
                Opcode::Mov => a,
                Opcode::Add => a + b,
                Opcode::Sub => a - b,
                Opcode::Mul => a * b,
                Opcode::Mad => a * b + c,
                Opcode::Dp3 => Vec4::splat(a.dot3(b)),
                Opcode::Dp4 => Vec4::splat(a.dot(b)),
                Opcode::Min => a.min(b),
                Opcode::Max => a.max(b),
                Opcode::Slt => Vec4::new(
                    (a.x < b.x) as u8 as f32,
                    (a.y < b.y) as u8 as f32,
                    (a.z < b.z) as u8 as f32,
                    (a.w < b.w) as u8 as f32,
                ),
                Opcode::Sge => Vec4::new(
                    (a.x >= b.x) as u8 as f32,
                    (a.y >= b.y) as u8 as f32,
                    (a.z >= b.z) as u8 as f32,
                    (a.w >= b.w) as u8 as f32,
                ),
                Opcode::Rcp => {
                    let r = if a.x == 0.0 { f32::MAX } else { 1.0 / a.x };
                    Vec4::splat(r)
                }
                Opcode::Rsq => {
                    let ax = a.x.abs();
                    let r = if ax == 0.0 { f32::MAX } else { 1.0 / ax.sqrt() };
                    Vec4::splat(r)
                }
                Opcode::Ex2 => Vec4::splat(a.x.exp2()),
                Opcode::Lg2 => {
                    let ax = a.x.abs();
                    Vec4::splat(if ax == 0.0 { -127.0 } else { ax.log2() })
                }
                Opcode::Frc => Vec4::new(
                    a.x - a.x.floor(),
                    a.y - a.y.floor(),
                    a.z - a.z.floor(),
                    a.w - a.w.floor(),
                ),
                Opcode::Cmp => Vec4::new(
                    if c.x < 0.0 { b.x } else { a.x },
                    if c.y < 0.0 { b.y } else { a.y },
                    if c.z < 0.0 { b.z } else { a.z },
                    if c.w < 0.0 { b.w } else { a.w },
                ),
                Opcode::Lrp => b * a + c * (Vec4::ONE - a),
                Opcode::Tex | Opcode::Txp | Opcode::Txb | Opcode::Kil => {
                    unreachable!("handled by caller")
                }
            };
            self.write(lane, instr, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Reg, Swizzle, WriteMask};

    fn machine() -> ShaderMachine {
        ShaderMachine::new()
    }

    fn vp(instrs: Vec<Instr>) -> Program {
        Program::new(ProgramKind::Vertex, "vp", instrs).unwrap()
    }

    fn fp(instrs: Vec<Instr>) -> Program {
        Program::new(ProgramKind::Fragment, "fp", instrs).unwrap()
    }

    #[test]
    fn vertex_passthrough() {
        let p = vp(vec![Instr::mov(Reg::out(0), Src::input(0))]);
        let mut m = machine();
        let pos = Vec4::new(1.0, 2.0, 3.0, 1.0);
        let out = m.run_vertex(&p, &[pos]);
        assert_eq!(out[0], pos);
        assert_eq!(m.stats().instructions, 1);
    }

    #[test]
    fn vertex_matrix_transform_via_dp4() {
        // Standard 4-instruction position transform: o0.c = dot(row_c, v0).
        let p = vp(vec![
            Instr::dp4(Reg::out(0), Src::constant(0), Src::input(0)).masked(WriteMask::X),
            Instr::dp4(Reg::out(0), Src::constant(1), Src::input(0))
                .masked(WriteMask([false, true, false, false])),
            Instr::dp4(Reg::out(0), Src::constant(2), Src::input(0))
                .masked(WriteMask([false, false, true, false])),
            Instr::dp4(Reg::out(0), Src::constant(3), Src::input(0)).masked(WriteMask::W),
        ]);
        let mut m = machine();
        // Rows of a scale-by-2 matrix.
        m.set_constant(0, Vec4::new(2.0, 0.0, 0.0, 0.0));
        m.set_constant(1, Vec4::new(0.0, 2.0, 0.0, 0.0));
        m.set_constant(2, Vec4::new(0.0, 0.0, 2.0, 0.0));
        m.set_constant(3, Vec4::new(0.0, 0.0, 0.0, 1.0));
        let out = m.run_vertex(&p, &[Vec4::new(1.0, 2.0, 3.0, 1.0)]);
        assert_eq!(out[0], Vec4::new(2.0, 4.0, 6.0, 1.0));
        assert_eq!(m.stats().instructions, 4);
    }

    #[test]
    fn swizzle_and_negate() {
        let p = vp(vec![Instr::mov(
            Reg::out(0),
            Src::input(0).swiz(Swizzle([3, 2, 1, 0])).neg(),
        )]);
        let mut m = machine();
        let out = m.run_vertex(&p, &[Vec4::new(1.0, 2.0, 3.0, 4.0)]);
        assert_eq!(out[0], Vec4::new(-4.0, -3.0, -2.0, -1.0));
    }

    #[test]
    fn mad_and_writemask() {
        let p = vp(vec![
            Instr::mov(Reg::out(0), Src::constant(2)),
            Instr::mad(Reg::out(0), Src::input(0), Src::constant(0), Src::constant(1))
                .masked(WriteMask::XYZ),
        ]);
        let mut m = machine();
        m.set_constant(0, Vec4::splat(2.0));
        m.set_constant(1, Vec4::splat(1.0));
        m.set_constant(2, Vec4::splat(9.0));
        let out = m.run_vertex(&p, &[Vec4::new(1.0, 2.0, 3.0, 4.0)]);
        assert_eq!(out[0], Vec4::new(3.0, 5.0, 7.0, 9.0)); // w untouched
    }

    #[test]
    fn rcp_rsq_scalar_broadcast() {
        let p = vp(vec![
            Instr::rcp(Reg::temp(0), Src::input(0)),
            Instr::rsq(Reg::temp(1), Src::input(0).swiz(Swizzle::YYYY)),
            Instr::add(Reg::out(0), Src::temp(0), Src::temp(1)),
        ]);
        let mut m = machine();
        let out = m.run_vertex(&p, &[Vec4::new(4.0, 16.0, 0.0, 0.0)]);
        // 1/4 + 1/sqrt(16) = 0.5 broadcast
        assert!((out[0].x - 0.5).abs() < 1e-6);
        assert!((out[0].w - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rcp_of_zero_is_finite() {
        let p = vp(vec![Instr::rcp(Reg::out(0), Src::input(0))]);
        let mut m = machine();
        let out = m.run_vertex(&p, &[Vec4::ZERO]);
        assert!(out[0].x.is_finite());
    }

    #[test]
    fn missing_inputs_read_zero() {
        let p = vp(vec![Instr::mov(Reg::out(0), Src::input(7))]);
        let mut m = machine();
        let out = m.run_vertex(&p, &[Vec4::ONE]);
        assert_eq!(out[0], Vec4::ZERO);
    }

    #[test]
    fn fragment_tex_goes_through_sampler() {
        let p = fp(vec![
            Instr::tex(Reg::temp(0), Src::input(0), 3),
            Instr::mov(Reg::out(0), Src::temp(0)),
        ]);
        struct Capture {
            seen: Option<TextureRequest>,
        }
        impl QuadSampler for Capture {
            fn sample_quad(&mut self, request: &TextureRequest) -> [Vec4; 4] {
                self.seen = Some(*request);
                [Vec4::new(0.25, 0.5, 0.75, 1.0); 4]
            }
        }
        let mut m = machine();
        let mut sampler = Capture { seen: None };
        let coords: Vec<Vec4> = (0..4).map(|i| Vec4::new(i as f32, 0.0, 0.0, 1.0)).collect();
        let ins: [&[Vec4]; 4] = [&coords[0..1], &coords[1..2], &coords[2..3], &coords[3..4]];
        let r = m.run_fragment_quad(&p, &ins, [true, true, false, true], &mut sampler);
        let req = sampler.seen.expect("sampler called");
        assert_eq!(req.unit, 3);
        assert_eq!(req.coords[2].x, 2.0);
        assert_eq!(req.active, [true, true, false, true]);
        assert_eq!(r.color[0], Vec4::new(0.25, 0.5, 0.75, 1.0));
        assert_eq!(m.stats().texture_instructions, 1);
        assert_eq!(m.stats().instructions, 2);
    }

    #[test]
    fn kill_marks_lanes_and_masks_texture_active() {
        // Kill lanes whose v0.x < 0, then texture.
        let p = fp(vec![
            Instr::kil(Src::input(0)),
            Instr::tex(Reg::out(0), Src::input(0), 0),
        ]);
        struct ActiveCheck;
        impl QuadSampler for ActiveCheck {
            fn sample_quad(&mut self, request: &TextureRequest) -> [Vec4; 4] {
                assert_eq!(request.active, [true, false, true, false]);
                [Vec4::ZERO; 4]
            }
        }
        let mut m = machine();
        let a = [Vec4::new(1.0, 0.0, 0.0, 0.0)];
        let b = [Vec4::new(-1.0, 0.0, 0.0, 0.0)];
        let ins: [&[Vec4]; 4] = [&a, &b, &a, &b];
        let r = m.run_fragment_quad(&p, &ins, [true; 4], &mut ActiveCheck);
        assert_eq!(r.killed, [false, true, false, true]);
    }

    #[test]
    fn depth_write_propagates() {
        let p = fp(vec![
            Instr::mov(Reg::out(0), Src::constant(0)),
            Instr::mov(Reg::out(1), Src::constant(1)).masked(WriteMask::X),
        ]);
        let mut m = machine();
        m.set_constant(1, Vec4::new(0.625, 0.0, 0.0, 0.0));
        let empty: [Vec4; 0] = [];
        let ins: [&[Vec4]; 4] = [&empty, &empty, &empty, &empty];
        let r = m.run_fragment_quad(&p, &ins, [true; 4], &mut NullSampler::default());
        assert_eq!(r.depth, Some([0.625; 4]));
    }

    #[test]
    fn cmp_and_lrp_semantics() {
        let p = vp(vec![
            Instr::cmp(Reg::temp(0), Src::constant(0), Src::constant(1), Src::input(0)),
            Instr::lrp(Reg::out(0), Src::constant(2), Src::temp(0), Src::constant(1)),
        ]);
        let mut m = machine();
        m.set_constant(0, Vec4::splat(10.0));
        m.set_constant(1, Vec4::splat(20.0));
        m.set_constant(2, Vec4::splat(0.5));
        // input x = -1 -> cmp picks 20; others -> 10.
        let out = m.run_vertex(&p, &[Vec4::new(-1.0, 1.0, 1.0, 1.0)]);
        // lrp: 0.5*t0 + 0.5*20
        assert_eq!(out[0], Vec4::new(20.0, 15.0, 15.0, 15.0));
    }

    #[test]
    fn slt_sge_complementary() {
        let p = vp(vec![
            Instr::new(Opcode::Slt, Reg::temp(0), &[Src::input(0), Src::input(1)]),
            Instr::new(Opcode::Sge, Reg::temp(1), &[Src::input(0), Src::input(1)]),
            Instr::add(Reg::out(0), Src::temp(0), Src::temp(1)),
        ]);
        let mut m = machine();
        let out = m.run_vertex(&p, &[Vec4::new(1.0, 5.0, -3.0, 0.0), Vec4::new(2.0, 5.0, -4.0, 0.0)]);
        // slt + sge = 1 componentwise.
        assert_eq!(out[0], Vec4::ONE);
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let p = vp(vec![Instr::mov(Reg::out(0), Src::input(0))]);
        let mut m = machine();
        for _ in 0..10 {
            m.run_vertex(&p, &[Vec4::ONE]);
        }
        assert_eq!(m.stats().instructions, 10);
        m.reset_stats();
        assert_eq!(m.stats().instructions, 0);
    }

    #[test]
    #[should_panic(expected = "needs a vertex program")]
    fn run_vertex_rejects_fragment_program() {
        let p = fp(vec![Instr::mov(Reg::out(0), Src::constant(0))]);
        machine().run_vertex(&p, &[]);
    }
}
