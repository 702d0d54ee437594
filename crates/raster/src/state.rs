//! Fixed-function pipeline state shared between the API layer and the
//! rasterization/ROP stages.

/// Primitive topologies the games of Table V use.
///
/// OpenGL and Direct3D offer more (points, lines, polygons, quads), but the
/// paper observes the benchmarks use exclusively triangle lists, strips and
/// fans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveType {
    /// Independent triangles: 3 indices each.
    TriangleList,
    /// Each new index forms a triangle with the previous two.
    TriangleStrip,
    /// Each new index forms a triangle with the first and previous index.
    TriangleFan,
}

impl PrimitiveType {
    /// Number of triangles produced by `index_count` indices
    /// (0 when too few).
    pub fn triangle_count(self, index_count: usize) -> usize {
        match self {
            PrimitiveType::TriangleList => index_count / 3,
            PrimitiveType::TriangleStrip | PrimitiveType::TriangleFan => {
                index_count.saturating_sub(2)
            }
        }
    }

    /// The three vertex-index positions of triangle `t` within the stream.
    ///
    /// Strip triangles alternate winding; the swap keeps a consistent
    /// orientation, matching the GL convention.
    pub fn triangle_indices(self, t: usize) -> (usize, usize, usize) {
        match self {
            PrimitiveType::TriangleList => (3 * t, 3 * t + 1, 3 * t + 2),
            PrimitiveType::TriangleStrip => {
                if t.is_multiple_of(2) {
                    (t, t + 1, t + 2)
                } else {
                    (t + 1, t, t + 2)
                }
            }
            PrimitiveType::TriangleFan => (0, t + 1, t + 2),
        }
    }

    /// Short display name (Table V column header).
    pub fn short_name(self) -> &'static str {
        match self {
            PrimitiveType::TriangleList => "TL",
            PrimitiveType::TriangleStrip => "TS",
            PrimitiveType::TriangleFan => "TF",
        }
    }
}

/// Comparison functions for depth, stencil and alpha tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompareFunc {
    /// Never passes.
    Never,
    /// Passes when the incoming value is less.
    #[default]
    Less,
    /// Passes when equal.
    Equal,
    /// Passes when less or equal.
    LessEqual,
    /// Passes when greater.
    Greater,
    /// Passes when not equal.
    NotEqual,
    /// Passes when greater or equal.
    GreaterEqual,
    /// Always passes.
    Always,
}

impl CompareFunc {
    /// Evaluates the comparison `incoming OP stored`.
    #[inline]
    pub fn compare<T: PartialOrd>(self, incoming: T, stored: T) -> bool {
        match self {
            CompareFunc::Never => false,
            CompareFunc::Less => incoming < stored,
            CompareFunc::Equal => incoming == stored,
            CompareFunc::LessEqual => incoming <= stored,
            CompareFunc::Greater => incoming > stored,
            CompareFunc::NotEqual => incoming != stored,
            CompareFunc::GreaterEqual => incoming >= stored,
            CompareFunc::Always => true,
        }
    }
}

/// Stencil update operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StencilOp {
    /// Leave the stencil value unchanged.
    #[default]
    Keep,
    /// Set to zero.
    Zero,
    /// Replace with the reference value.
    Replace,
    /// Increment, clamping at 255.
    IncrClamp,
    /// Decrement, clamping at 0.
    DecrClamp,
    /// Increment with wraparound (the shadow-volume op).
    IncrWrap,
    /// Decrement with wraparound (the shadow-volume op).
    DecrWrap,
    /// Bitwise invert.
    Invert,
}

impl StencilOp {
    /// Applies the operation to a stored stencil value.
    #[inline]
    pub fn apply(self, stored: u8, reference: u8) -> u8 {
        match self {
            StencilOp::Keep => stored,
            StencilOp::Zero => 0,
            StencilOp::Replace => reference,
            StencilOp::IncrClamp => stored.saturating_add(1),
            StencilOp::DecrClamp => stored.saturating_sub(1),
            StencilOp::IncrWrap => stored.wrapping_add(1),
            StencilOp::DecrWrap => stored.wrapping_sub(1),
            StencilOp::Invert => !stored,
        }
    }
}

/// Depth test configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthState {
    /// Depth test enabled.
    pub test: bool,
    /// Depth writes enabled.
    pub write: bool,
    /// Comparison function.
    pub func: CompareFunc,
}

impl Default for DepthState {
    fn default() -> Self {
        DepthState { test: true, write: true, func: CompareFunc::Less }
    }
}

/// Stencil test configuration (single-face; two-sided stencil is modelled
/// by the pipeline binding different state per facing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilState {
    /// Stencil test enabled.
    pub test: bool,
    /// Comparison function against the stored value.
    pub func: CompareFunc,
    /// Reference value.
    pub reference: u8,
    /// AND-mask applied to both reference and stored value before compare.
    pub read_mask: u8,
    /// Op when the stencil test fails.
    pub fail: StencilOp,
    /// Op when stencil passes but depth fails (the shadow-volume hook).
    pub zfail: StencilOp,
    /// Op when both pass.
    pub pass: StencilOp,
}

impl Default for StencilState {
    fn default() -> Self {
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
}

/// Triangle facings to cull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CullMode {
    /// Cull nothing.
    None,
    /// Cull back faces (the common case).
    #[default]
    Back,
    /// Cull front faces (shadow-volume z-fail passes).
    Front,
}

/// Which screen-space winding counts as front-facing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrontFace {
    /// Counter-clockwise (the GL default).
    #[default]
    Ccw,
    /// Clockwise.
    Cw,
}

/// Blend factors (the subset 2005-era games use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlendFactor {
    /// 0
    Zero,
    /// 1
    One,
    /// Source alpha.
    SrcAlpha,
    /// 1 − source alpha.
    OneMinusSrcAlpha,
    /// Destination color.
    DstColor,
    /// Source color.
    SrcColor,
}

/// Blend configuration: `out = src * src_factor + dst * dst_factor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlendState {
    /// Blending enabled (otherwise source replaces destination).
    pub enabled: bool,
    /// Source factor.
    pub src: BlendFactor,
    /// Destination factor.
    pub dst: BlendFactor,
}

impl Default for BlendState {
    fn default() -> Self {
        BlendState { enabled: false, src: BlendFactor::One, dst: BlendFactor::Zero }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_counts() {
        assert_eq!(PrimitiveType::TriangleList.triangle_count(9), 3);
        assert_eq!(PrimitiveType::TriangleList.triangle_count(10), 3);
        assert_eq!(PrimitiveType::TriangleStrip.triangle_count(9), 7);
        assert_eq!(PrimitiveType::TriangleFan.triangle_count(9), 7);
        assert_eq!(PrimitiveType::TriangleStrip.triangle_count(2), 0);
    }

    #[test]
    fn strip_alternates_winding() {
        let (a, b, c) = PrimitiveType::TriangleStrip.triangle_indices(0);
        assert_eq!((a, b, c), (0, 1, 2));
        let (a, b, c) = PrimitiveType::TriangleStrip.triangle_indices(1);
        assert_eq!((a, b, c), (2, 1, 3));
    }

    #[test]
    fn fan_pivots_on_first() {
        assert_eq!(PrimitiveType::TriangleFan.triangle_indices(0), (0, 1, 2));
        assert_eq!(PrimitiveType::TriangleFan.triangle_indices(5), (0, 6, 7));
    }

    #[test]
    fn compare_funcs() {
        assert!(CompareFunc::Less.compare(1.0, 2.0));
        assert!(!CompareFunc::Less.compare(2.0, 2.0));
        assert!(CompareFunc::LessEqual.compare(2.0, 2.0));
        assert!(CompareFunc::Equal.compare(5u8, 5u8));
        assert!(CompareFunc::Always.compare(9.0, 0.0));
        assert!(!CompareFunc::Never.compare(0.0, 9.0));
        assert!(CompareFunc::GreaterEqual.compare(3.0, 3.0));
        assert!(CompareFunc::NotEqual.compare(1u8, 2u8));
    }

    #[test]
    fn stencil_ops() {
        assert_eq!(StencilOp::Keep.apply(7, 3), 7);
        assert_eq!(StencilOp::Zero.apply(7, 3), 0);
        assert_eq!(StencilOp::Replace.apply(7, 3), 3);
        assert_eq!(StencilOp::IncrClamp.apply(255, 0), 255);
        assert_eq!(StencilOp::DecrClamp.apply(0, 0), 0);
        assert_eq!(StencilOp::IncrWrap.apply(255, 0), 0);
        assert_eq!(StencilOp::DecrWrap.apply(0, 0), 255);
        assert_eq!(StencilOp::Invert.apply(0b1010_1010, 0), 0b0101_0101);
    }

    #[test]
    fn primitive_short_names() {
        assert_eq!(PrimitiveType::TriangleList.short_name(), "TL");
        assert_eq!(PrimitiveType::TriangleStrip.short_name(), "TS");
        assert_eq!(PrimitiveType::TriangleFan.short_name(), "TF");
    }

    #[test]
    fn defaults_match_gl() {
        let d = DepthState::default();
        assert!(d.test && d.write);
        assert_eq!(d.func, CompareFunc::Less);
        let s = StencilState::default();
        assert!(!s.test);
        assert_eq!(s.func, CompareFunc::Always);
        let b = BlendState::default();
        assert!(!b.enabled);
    }
}
