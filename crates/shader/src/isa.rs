//! Instruction set definition.

/// Register file a register index refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegFile {
    /// Input attributes: vertex attributes for vertex programs,
    /// interpolants for fragment programs.
    Input,
    /// Read-write temporaries.
    Temp,
    /// Read-only constants (program parameters).
    Constant,
    /// Write-only outputs: `o0` is the position (vertex) or color
    /// (fragment); `o1` is optional depth for fragment programs.
    Output,
}

/// A register reference: a file plus an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg {
    /// Which register file.
    pub file: RegFile,
    /// Index within the file.
    pub index: u8,
}

impl Reg {
    /// Input register `v<i>`.
    pub const fn input(i: u8) -> Reg {
        Reg { file: RegFile::Input, index: i }
    }

    /// Temporary register `r<i>`.
    pub const fn temp(i: u8) -> Reg {
        Reg { file: RegFile::Temp, index: i }
    }

    /// Constant register `c<i>`.
    pub const fn constant(i: u8) -> Reg {
        Reg { file: RegFile::Constant, index: i }
    }

    /// Output register `o<i>`.
    pub const fn out(i: u8) -> Reg {
        Reg { file: RegFile::Output, index: i }
    }
}

/// A four-component swizzle. Each element selects a source component
/// (0 = x … 3 = w).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Swizzle(pub [u8; 4]);

impl Swizzle {
    /// The identity swizzle `.xyzw`.
    pub const XYZW: Swizzle = Swizzle([0, 1, 2, 3]);
    /// Broadcast `.xxxx`.
    pub const XXXX: Swizzle = Swizzle([0, 0, 0, 0]);
    /// Broadcast `.yyyy`.
    pub const YYYY: Swizzle = Swizzle([1, 1, 1, 1]);
    /// Broadcast `.zzzz`.
    pub const ZZZZ: Swizzle = Swizzle([2, 2, 2, 2]);
    /// Broadcast `.wwww`.
    pub const WWWW: Swizzle = Swizzle([3, 3, 3, 3]);

    /// `true` when every lane index is below 4.
    pub fn is_valid(self) -> bool {
        self.0.iter().all(|&c| c < 4)
    }
}

impl Default for Swizzle {
    fn default() -> Self {
        Swizzle::XYZW
    }
}

/// A source operand: register, swizzle, optional negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Src {
    /// Source register.
    pub reg: Reg,
    /// Component selection.
    pub swizzle: Swizzle,
    /// Negate after swizzling.
    pub negate: bool,
}

impl Src {
    /// Plain (un-swizzled, un-negated) source from a register.
    pub const fn reg(reg: Reg) -> Src {
        Src { reg, swizzle: Swizzle::XYZW, negate: false }
    }

    /// Plain source from input register `v<i>`.
    pub const fn input(i: u8) -> Src {
        Src::reg(Reg::input(i))
    }

    /// Plain source from temp register `r<i>`.
    pub const fn temp(i: u8) -> Src {
        Src::reg(Reg::temp(i))
    }

    /// Plain source from constant register `c<i>`.
    pub const fn constant(i: u8) -> Src {
        Src::reg(Reg::constant(i))
    }

    /// Returns this source with a swizzle applied.
    pub const fn swiz(mut self, s: Swizzle) -> Src {
        self.swizzle = s;
        self
    }

    /// Returns this source negated.
    pub const fn neg(mut self) -> Src {
        self.negate = true;
        self
    }
}

/// Destination component write mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteMask(pub [bool; 4]);

impl WriteMask {
    /// Write all components.
    pub const XYZW: WriteMask = WriteMask([true, true, true, true]);
    /// Write only `.x`.
    pub const X: WriteMask = WriteMask([true, false, false, false]);
    /// Write `.xyz`.
    pub const XYZ: WriteMask = WriteMask([true, true, true, false]);
    /// Write only `.w`.
    pub const W: WriteMask = WriteMask([false, false, false, true]);
}

impl Default for WriteMask {
    fn default() -> Self {
        WriteMask::XYZW
    }
}

/// Instruction opcodes.
///
/// The set mirrors the ARB vertex/fragment program ISA that 2004–2006 games
/// target. `Tex*` opcodes and `Kil` are fragment-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// `dst = src0`
    Mov,
    /// `dst = src0 + src1`
    Add,
    /// `dst = src0 - src1`
    Sub,
    /// `dst = src0 * src1`
    Mul,
    /// `dst = src0 * src1 + src2`
    Mad,
    /// 3-component dot product, broadcast to all lanes.
    Dp3,
    /// 4-component dot product, broadcast to all lanes.
    Dp4,
    /// Component-wise minimum.
    Min,
    /// Component-wise maximum.
    Max,
    /// `dst = (src0 < src1) ? 1 : 0` per component.
    Slt,
    /// `dst = (src0 >= src1) ? 1 : 0` per component.
    Sge,
    /// Reciprocal of `src0.x`, broadcast.
    Rcp,
    /// Reciprocal square root of `|src0.x|`, broadcast.
    Rsq,
    /// `2^src0.x`, broadcast.
    Ex2,
    /// `log2 |src0.x|`, broadcast (−∞ for 0 input is clamped to −127).
    Lg2,
    /// Fractional part per component.
    Frc,
    /// `dst = src2 ? src0 : src1` per component (`src2 < 0` selects src1),
    /// the ARB `CMP` semantics.
    Cmp,
    /// Linear interpolation: `dst = src0 * src1 + (1 - src0) * src2`.
    Lrp,
    /// Texture sample from unit `tex_unit` at coordinates `src0.xy(z)`.
    Tex,
    /// Projective texture sample: coordinates divided by `src0.w`.
    Txp,
    /// Texture sample with LOD bias from `src0.w`.
    Txb,
    /// Kill the fragment if any enabled component of `src0` is negative.
    Kil,
}

impl Opcode {
    /// `true` for texture-sampling opcodes (the "texture instructions" of
    /// Table XII).
    pub fn is_texture(self) -> bool {
        matches!(self, Opcode::Tex | Opcode::Txp | Opcode::Txb)
    }

    /// `true` for opcodes only meaningful in fragment programs.
    pub fn is_fragment_only(self) -> bool {
        self.is_texture() || self == Opcode::Kil
    }

    /// Number of source operands this opcode consumes.
    pub fn arity(self) -> usize {
        match self {
            Opcode::Mov
            | Opcode::Rcp
            | Opcode::Rsq
            | Opcode::Ex2
            | Opcode::Lg2
            | Opcode::Frc
            | Opcode::Tex
            | Opcode::Txp
            | Opcode::Txb
            | Opcode::Kil => 1,
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::Dp3
            | Opcode::Dp4
            | Opcode::Min
            | Opcode::Max
            | Opcode::Slt
            | Opcode::Sge => 2,
            Opcode::Mad | Opcode::Cmp | Opcode::Lrp => 3,
        }
    }
}

/// One shader instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Destination register (ignored for [`Opcode::Kil`]).
    pub dst: Reg,
    /// Destination write mask.
    pub mask: WriteMask,
    /// Source operands; only the first [`Opcode::arity`] entries are used.
    pub srcs: [Src; 3],
    /// Texture unit for `Tex`/`Txp`/`Txb`.
    pub tex_unit: u8,
}

const ZERO_SRC: Src = Src::constant(0);

impl Instr {
    /// Generic constructor.
    pub fn new(op: Opcode, dst: Reg, srcs: &[Src]) -> Instr {
        let mut s = [ZERO_SRC; 3];
        for (i, src) in srcs.iter().enumerate().take(3) {
            s[i] = *src;
        }
        Instr { op, dst, mask: WriteMask::XYZW, srcs: s, tex_unit: 0 }
    }

    /// `MOV dst, a`.
    pub fn mov(dst: Reg, a: Src) -> Instr {
        Instr::new(Opcode::Mov, dst, &[a])
    }

    /// `ADD dst, a, b`.
    pub fn add(dst: Reg, a: Src, b: Src) -> Instr {
        Instr::new(Opcode::Add, dst, &[a, b])
    }

    /// `SUB dst, a, b`.
    pub fn sub(dst: Reg, a: Src, b: Src) -> Instr {
        Instr::new(Opcode::Sub, dst, &[a, b])
    }

    /// `MUL dst, a, b`.
    pub fn mul(dst: Reg, a: Src, b: Src) -> Instr {
        Instr::new(Opcode::Mul, dst, &[a, b])
    }

    /// `MAD dst, a, b, c`.
    pub fn mad(dst: Reg, a: Src, b: Src, c: Src) -> Instr {
        Instr::new(Opcode::Mad, dst, &[a, b, c])
    }

    /// `DP3 dst, a, b`.
    pub fn dp3(dst: Reg, a: Src, b: Src) -> Instr {
        Instr::new(Opcode::Dp3, dst, &[a, b])
    }

    /// `DP4 dst, a, b`.
    pub fn dp4(dst: Reg, a: Src, b: Src) -> Instr {
        Instr::new(Opcode::Dp4, dst, &[a, b])
    }

    /// `MIN dst, a, b`.
    pub fn min(dst: Reg, a: Src, b: Src) -> Instr {
        Instr::new(Opcode::Min, dst, &[a, b])
    }

    /// `MAX dst, a, b`.
    pub fn max(dst: Reg, a: Src, b: Src) -> Instr {
        Instr::new(Opcode::Max, dst, &[a, b])
    }

    /// `RCP dst, a.x`.
    pub fn rcp(dst: Reg, a: Src) -> Instr {
        Instr::new(Opcode::Rcp, dst, &[a])
    }

    /// `RSQ dst, a.x`.
    pub fn rsq(dst: Reg, a: Src) -> Instr {
        Instr::new(Opcode::Rsq, dst, &[a])
    }

    /// `LRP dst, a, b, c`.
    pub fn lrp(dst: Reg, a: Src, b: Src, c: Src) -> Instr {
        Instr::new(Opcode::Lrp, dst, &[a, b, c])
    }

    /// `CMP dst, a, b, cond`.
    pub fn cmp(dst: Reg, a: Src, b: Src, cond: Src) -> Instr {
        Instr::new(Opcode::Cmp, dst, &[a, b, cond])
    }

    /// `TEX dst, coord, texture[unit]`.
    pub fn tex(dst: Reg, coord: Src, unit: u8) -> Instr {
        let mut i = Instr::new(Opcode::Tex, dst, &[coord]);
        i.tex_unit = unit;
        i
    }

    /// `TXP dst, coord, texture[unit]` (projective).
    pub fn txp(dst: Reg, coord: Src, unit: u8) -> Instr {
        let mut i = Instr::new(Opcode::Txp, dst, &[coord]);
        i.tex_unit = unit;
        i
    }

    /// `KIL src` — kill fragment when any component of `src` is negative.
    pub fn kil(src: Src) -> Instr {
        Instr::new(Opcode::Kil, Reg::temp(0), &[src])
    }

    /// Returns this instruction with a write mask.
    pub fn masked(mut self, mask: WriteMask) -> Instr {
        self.mask = mask;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_classification() {
        assert!(Opcode::Tex.is_texture());
        assert!(Opcode::Txp.is_texture());
        assert!(Opcode::Txb.is_texture());
        assert!(!Opcode::Mad.is_texture());
        assert!(Opcode::Kil.is_fragment_only());
        assert!(!Opcode::Dp4.is_fragment_only());
    }

    #[test]
    fn arity_per_opcode() {
        assert_eq!(Opcode::Mov.arity(), 1);
        assert_eq!(Opcode::Mul.arity(), 2);
        assert_eq!(Opcode::Mad.arity(), 3);
        assert_eq!(Opcode::Kil.arity(), 1);
    }

    #[test]
    fn src_modifiers() {
        let s = Src::temp(3).swiz(Swizzle::XXXX).neg();
        assert_eq!(s.reg, Reg::temp(3));
        assert_eq!(s.swizzle, Swizzle::XXXX);
        assert!(s.negate);
    }

    #[test]
    fn swizzle_validity() {
        assert!(Swizzle::XYZW.is_valid());
        assert!(!Swizzle([0, 1, 2, 4]).is_valid());
    }

    #[test]
    fn tex_builder_sets_unit() {
        let i = Instr::tex(Reg::temp(0), Src::input(2), 5);
        assert_eq!(i.tex_unit, 5);
        assert_eq!(i.op, Opcode::Tex);
    }
}
