//! Shader program container and validation.

use crate::isa::{Instr, Opcode, RegFile};

/// Which pipeline stage a program runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramKind {
    /// Vertex program: transforms one vertex; `o0` is the clip-space
    /// position, `o1..` are varyings.
    Vertex,
    /// Fragment program: shades one fragment; `o0` is the color, `o1.x`
    /// optionally replaces depth.
    Fragment,
}

/// Errors produced by [`Program::new`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A program must contain at least one instruction.
    Empty,
    /// Instruction at the index uses a fragment-only opcode in a vertex
    /// program.
    FragmentOnlyOp(usize),
    /// Instruction at the index uses a register index beyond the limits.
    RegisterOutOfRange(usize),
    /// Instruction at the index writes a read-only file or reads a
    /// write-only file.
    InvalidFileUsage(usize),
    /// Instruction at the index has an invalid swizzle.
    BadSwizzle(usize),
    /// Instruction at the index samples a texture unit beyond the limit.
    TextureUnitOutOfRange(usize),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::FragmentOnlyOp(i) => {
                write!(f, "instruction {i} uses a fragment-only opcode in a vertex program")
            }
            ProgramError::RegisterOutOfRange(i) => {
                write!(f, "instruction {i} references a register index out of range")
            }
            ProgramError::InvalidFileUsage(i) => {
                write!(f, "instruction {i} writes a read-only or reads a write-only register file")
            }
            ProgramError::BadSwizzle(i) => write!(f, "instruction {i} has an invalid swizzle"),
            ProgramError::TextureUnitOutOfRange(i) => {
                write!(f, "instruction {i} samples a texture unit out of range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Register-file size limits (matching ARB program limits of the era).
pub(crate) const MAX_INPUTS: u8 = 16;
pub(crate) const MAX_TEMPS: u8 = 32;
pub(crate) const MAX_CONSTANTS: u8 = 96;
pub(crate) const MAX_OUTPUTS: u8 = 8;
pub(crate) const MAX_TEX_UNITS: u8 = 16;

/// A validated shader program.
///
/// The static instruction-mix queries ([`Program::instruction_count`],
/// [`Program::texture_count`], [`Program::alu_count`]) are what the paper's
/// Tables IV and XII report, and [`Program::uses_kill`] feeds the early-z
/// eligibility decision in the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    kind: ProgramKind,
    name: String,
    instructions: Vec<Instr>,
}

impl Program {
    /// Validates and constructs a program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first invalid instruction:
    /// fragment-only opcodes in vertex programs, register indices beyond
    /// the file limits, writes to read-only files, reads of the output
    /// file, invalid swizzles, or texture units beyond the limit.
    pub fn new(
        kind: ProgramKind,
        name: impl Into<String>,
        instructions: Vec<Instr>,
    ) -> Result<Program, ProgramError> {
        if instructions.is_empty() {
            return Err(ProgramError::Empty);
        }
        for (i, instr) in instructions.iter().enumerate() {
            if kind == ProgramKind::Vertex && instr.op.is_fragment_only() {
                return Err(ProgramError::FragmentOnlyOp(i));
            }
            if instr.op != Opcode::Kil {
                // Destination checks.
                match instr.dst.file {
                    RegFile::Temp => {
                        if instr.dst.index >= MAX_TEMPS {
                            return Err(ProgramError::RegisterOutOfRange(i));
                        }
                    }
                    RegFile::Output => {
                        if instr.dst.index >= MAX_OUTPUTS {
                            return Err(ProgramError::RegisterOutOfRange(i));
                        }
                    }
                    RegFile::Input | RegFile::Constant => {
                        return Err(ProgramError::InvalidFileUsage(i));
                    }
                }
            }
            for src in instr.srcs.iter().take(instr.op.arity()) {
                let limit = match src.reg.file {
                    RegFile::Input => MAX_INPUTS,
                    RegFile::Temp => MAX_TEMPS,
                    RegFile::Constant => MAX_CONSTANTS,
                    RegFile::Output => return Err(ProgramError::InvalidFileUsage(i)),
                };
                if src.reg.index >= limit {
                    return Err(ProgramError::RegisterOutOfRange(i));
                }
                if !src.swizzle.is_valid() {
                    return Err(ProgramError::BadSwizzle(i));
                }
            }
            if instr.op.is_texture() && instr.tex_unit >= MAX_TEX_UNITS {
                return Err(ProgramError::TextureUnitOutOfRange(i));
            }
        }
        Ok(Program { kind, name: name.into(), instructions })
    }

    /// The stage this program targets.
    pub fn kind(&self) -> ProgramKind {
        self.kind
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[Instr] {
        &self.instructions
    }

    /// Total static instruction count (Table IV / Table XII "Instructions").
    pub fn instruction_count(&self) -> usize {
        self.instructions.len()
    }

    /// Static texture-instruction count (Table XII "Texture Instructions").
    pub fn texture_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.op.is_texture()).count()
    }

    /// Static ALU (non-texture) instruction count.
    pub fn alu_count(&self) -> usize {
        self.instruction_count() - self.texture_count()
    }

    /// ALU-to-texture ratio (Table XII); `f64::INFINITY` for programs with
    /// no texture instructions.
    pub fn alu_tex_ratio(&self) -> f64 {
        let tex = self.texture_count();
        if tex == 0 {
            f64::INFINITY
        } else {
            self.alu_count() as f64 / tex as f64
        }
    }

    /// Whether the program can kill fragments (`KIL`), which disables
    /// early-z.
    pub fn uses_kill(&self) -> bool {
        self.instructions.iter().any(|i| i.op == Opcode::Kil)
    }

    /// Whether the program writes the depth output (`o1`), which also
    /// disables early-z.
    pub fn writes_depth(&self) -> bool {
        self.kind == ProgramKind::Fragment
            && self
                .instructions
                .iter()
                .any(|i| i.op != Opcode::Kil && i.dst.file == RegFile::Output && i.dst.index == 1)
    }

    /// Texture units the program samples (sorted, deduplicated).
    pub fn sampled_units(&self) -> Vec<u8> {
        let mut units: Vec<u8> = self
            .instructions
            .iter()
            .filter(|i| i.op.is_texture())
            .map(|i| i.tex_unit)
            .collect();
        units.sort_unstable();
        units.dedup();
        units
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Reg, Src, Swizzle};

    fn vp(instrs: Vec<Instr>) -> Result<Program, ProgramError> {
        Program::new(ProgramKind::Vertex, "test-vp", instrs)
    }

    fn fp(instrs: Vec<Instr>) -> Result<Program, ProgramError> {
        Program::new(ProgramKind::Fragment, "test-fp", instrs)
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(vp(vec![]).unwrap_err(), ProgramError::Empty);
    }

    #[test]
    fn tex_in_vertex_program_rejected() {
        let err = vp(vec![Instr::tex(Reg::temp(0), Src::input(0), 0)]).unwrap_err();
        assert_eq!(err, ProgramError::FragmentOnlyOp(0));
    }

    #[test]
    fn register_limits_enforced() {
        let err = vp(vec![Instr::mov(Reg::temp(0), Src::input(16))]).unwrap_err();
        assert_eq!(err, ProgramError::RegisterOutOfRange(0));
        let err = vp(vec![Instr::mov(Reg::out(8), Src::input(0))]).unwrap_err();
        assert_eq!(err, ProgramError::RegisterOutOfRange(0));
    }

    #[test]
    fn writing_constants_rejected() {
        let err = vp(vec![Instr::mov(Reg::constant(0), Src::input(0))]).unwrap_err();
        assert_eq!(err, ProgramError::InvalidFileUsage(0));
    }

    #[test]
    fn reading_outputs_rejected() {
        let err = vp(vec![Instr::mov(Reg::temp(0), Src::reg(Reg::out(0)))]).unwrap_err();
        assert_eq!(err, ProgramError::InvalidFileUsage(0));
    }

    #[test]
    fn bad_swizzle_rejected() {
        let s = Src::input(0).swiz(Swizzle([0, 1, 2, 7]));
        let err = vp(vec![Instr::mov(Reg::temp(0), s)]).unwrap_err();
        assert_eq!(err, ProgramError::BadSwizzle(0));
    }

    #[test]
    fn texture_unit_limit() {
        let err = fp(vec![Instr::tex(Reg::out(0), Src::input(0), 16)]).unwrap_err();
        assert_eq!(err, ProgramError::TextureUnitOutOfRange(0));
    }

    #[test]
    fn instruction_mix_counts() {
        let p = fp(vec![
            Instr::tex(Reg::temp(0), Src::input(0), 0),
            Instr::tex(Reg::temp(1), Src::input(1), 1),
            Instr::mul(Reg::temp(2), Src::temp(0), Src::temp(1)),
            Instr::mad(Reg::temp(2), Src::temp(2), Src::constant(0), Src::constant(1)),
            Instr::mov(Reg::out(0), Src::temp(2)),
        ])
        .unwrap();
        assert_eq!(p.instruction_count(), 5);
        assert_eq!(p.texture_count(), 2);
        assert_eq!(p.alu_count(), 3);
        assert!((p.alu_tex_ratio() - 1.5).abs() < 1e-12);
        assert_eq!(p.sampled_units(), vec![0, 1]);
    }

    #[test]
    fn alu_only_ratio_is_infinite() {
        let p = fp(vec![Instr::mov(Reg::out(0), Src::constant(0))]).unwrap();
        assert!(p.alu_tex_ratio().is_infinite());
    }

    #[test]
    fn kill_and_depth_detection() {
        let with_kill = fp(vec![
            Instr::kil(Src::input(0)),
            Instr::mov(Reg::out(0), Src::constant(0)),
        ])
        .unwrap();
        assert!(with_kill.uses_kill());
        assert!(!with_kill.writes_depth());

        let with_depth = fp(vec![
            Instr::mov(Reg::out(0), Src::constant(0)),
            Instr::mov(Reg::out(1), Src::constant(1)).masked(crate::WriteMask::X),
        ])
        .unwrap();
        assert!(with_depth.writes_depth());
        assert!(!with_depth.uses_kill());
    }
}
