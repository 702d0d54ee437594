//! The traced command vocabulary.

use gwc_math::Vec4;
use gwc_raster::{BlendState, CullMode, DepthState, FrontFace, PrimitiveType, StencilState};
use gwc_shader::Program;
use gwc_texture::{Image, SamplerState, TexFormat};

/// Which graphics API a workload targets (Table I's API column). The
/// command vocabulary is shared; the flag matters because only OpenGL
/// workloads drive the microarchitectural simulator, mirroring the paper's
/// ATTILA limitation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphicsApi {
    /// OpenGL (simulated microarchitecturally, like the paper's OGL set).
    OpenGl,
    /// Direct3D (API-level statistics only, like the paper's D3D set).
    Direct3D,
}

impl GraphicsApi {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GraphicsApi::OpenGl => "OpenGL",
            GraphicsApi::Direct3D => "Direct3D",
        }
    }
}

/// Index data for an indexed draw. The element width is the "bytes per
/// index" of Table III (2 for 16-bit engines, 4 for the Doom3 engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Indices {
    /// 16-bit indices.
    U16(Vec<u16>),
    /// 32-bit indices.
    U32(Vec<u32>),
}

impl Indices {
    /// Number of indices.
    pub fn len(&self) -> usize {
        match self {
            Indices::U16(v) => v.len(),
            Indices::U32(v) => v.len(),
        }
    }

    /// `true` when there are no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per index element.
    pub fn bytes_per_index(&self) -> u32 {
        match self {
            Indices::U16(_) => 2,
            Indices::U32(_) => 4,
        }
    }

    /// Total bytes (the CPU→GPU index traffic of Table III / Figure 2).
    pub fn total_bytes(&self) -> u64 {
        self.len() as u64 * self.bytes_per_index() as u64
    }

    /// Index at position `i`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Indices::U16(v) => v[i] as u32,
            Indices::U32(v) => v[i],
        }
    }
}

/// Vertex attribute layout: how many [`Vec4`] attribute slots each vertex
/// carries and how many bytes the packed vertex occupies in GPU memory.
///
/// The byte size drives Table XVII's bytes-per-vertex measurement; games of
/// the era pack position (12 B), normal (12 B), tangent (12–16 B), one or
/// two texcoord sets (8 B each) and a color (4 B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexLayout {
    /// Number of Vec4 attribute slots per vertex (position first).
    pub attributes: u8,
    /// Packed size of one vertex in GPU memory, in bytes.
    pub stride_bytes: u16,
}

impl VertexLayout {
    /// A typical lit-and-textured layout: position, normal, uv
    /// (12 + 12 + 8 = 32 bytes).
    pub const POS_NORMAL_UV: VertexLayout = VertexLayout { attributes: 3, stride_bytes: 32 };

    /// The Doom3-class layout: position, normal, tangent, bitangent, uv,
    /// color (12+12+12+12+8+4 = 60 bytes).
    pub const DOOM3: VertexLayout = VertexLayout { attributes: 6, stride_bytes: 60 };
}

/// Buffer masks for [`Command::Clear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClearMask {
    /// Clear the color buffer.
    pub color: bool,
    /// Clear the depth buffer.
    pub depth: bool,
    /// Clear the stencil buffer.
    pub stencil: bool,
}

impl ClearMask {
    /// Clear all three buffers.
    pub const ALL: ClearMask = ClearMask { color: true, depth: true, stencil: true };
    /// Clear depth and stencil only (between Doom3 light passes).
    pub const DEPTH_STENCIL: ClearMask = ClearMask { color: false, depth: true, stencil: true };
}

/// A state-change API call. Each one counts toward Figure 3's
/// "state calls between batches".
#[derive(Debug, Clone, PartialEq)]
pub enum StateCommand {
    /// Depth test configuration.
    Depth(DepthState),
    /// Stencil configuration for front-facing triangles.
    StencilFront(StencilState),
    /// Stencil configuration for back-facing triangles (two-sided stencil,
    /// the shadow-volume fast path).
    StencilBack(StencilState),
    /// Face culling mode.
    Cull(CullMode),
    /// Front-face winding.
    FrontFaceWinding(FrontFace),
    /// Blend configuration.
    Blend(BlendState),
    /// Color write mask (false = the Doom3 stencil-only passes).
    ColorMask(bool),
    /// Alpha test: when enabled, fragments with alpha below the reference
    /// are discarded after shading.
    AlphaTest {
        /// Test enabled.
        enabled: bool,
        /// Reference alpha in `[0, 1]`.
        reference: f32,
    },
    /// Bind a texture (with its sampler) to a texture unit.
    BindTexture {
        /// Texture unit.
        unit: u8,
        /// Texture id (from [`Command::CreateTexture`]).
        texture: u32,
    },
    /// Bind vertex and fragment programs.
    BindPrograms {
        /// Vertex program id.
        vertex: u32,
        /// Fragment program id.
        fragment: u32,
    },
    /// Set a range of vertex-program constants.
    VertexConstants {
        /// First constant register.
        base: u8,
        /// Values.
        values: Vec<Vec4>,
    },
    /// Set a range of fragment-program constants.
    FragmentConstants {
        /// First constant register.
        base: u8,
        /// Values.
        values: Vec<Vec4>,
    },
}

/// One traced API command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Upload a vertex buffer to GPU memory (startup traffic; thereafter
    /// only indices cross the bus — the "indexed mode" of Section III.A).
    CreateVertexBuffer {
        /// Buffer id (dense, app-chosen).
        id: u32,
        /// Attribute layout.
        layout: VertexLayout,
        /// `vertex_count × layout.attributes` attribute values.
        data: Vec<Vec4>,
    },
    /// Upload an index buffer.
    CreateIndexBuffer {
        /// Buffer id.
        id: u32,
        /// The indices.
        indices: Indices,
    },
    /// Create a texture from an image.
    CreateTexture {
        /// Texture id.
        id: u32,
        /// Source image.
        image: Image,
        /// GPU storage format.
        format: TexFormat,
        /// Generate a full mip chain.
        mipmaps: bool,
        /// Sampler configuration.
        sampler: SamplerState,
    },
    /// Create a shader program.
    CreateProgram {
        /// Program id.
        id: u32,
        /// The validated program.
        program: Program,
    },
    /// A state-change call.
    State(StateCommand),
    /// Clear framebuffer surfaces.
    Clear {
        /// Which surfaces.
        mask: ClearMask,
        /// Clear color.
        color: Vec4,
        /// Clear depth.
        depth: f32,
        /// Clear stencil.
        stencil: u8,
    },
    /// An indexed draw call — one *batch* in the paper's vocabulary.
    Draw {
        /// Vertex buffer id.
        vertex_buffer: u32,
        /// Index buffer id.
        index_buffer: u32,
        /// Primitive topology.
        primitive: PrimitiveType,
        /// First index.
        first: u32,
        /// Number of indices.
        count: u32,
    },
    /// Frame boundary (swap-buffers).
    EndFrame,
}

impl Command {
    /// `true` for the commands Figure 3 counts as "state calls".
    pub fn is_state_call(&self) -> bool {
        matches!(
            self,
            Command::State(_)
                | Command::CreateVertexBuffer { .. }
                | Command::CreateIndexBuffer { .. }
                | Command::CreateTexture { .. }
                | Command::CreateProgram { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_bytes() {
        let i16 = Indices::U16(vec![0, 1, 2, 3]);
        assert_eq!(i16.len(), 4);
        assert_eq!(i16.bytes_per_index(), 2);
        assert_eq!(i16.total_bytes(), 8);
        let i32 = Indices::U32(vec![7; 3]);
        assert_eq!(i32.bytes_per_index(), 4);
        assert_eq!(i32.total_bytes(), 12);
        assert_eq!(i32.get(1), 7);
        assert!(!i32.is_empty());
    }

    #[test]
    fn layouts() {
        assert_eq!(VertexLayout::POS_NORMAL_UV.stride_bytes, 32);
        assert_eq!(VertexLayout::DOOM3.stride_bytes, 60);
        assert_eq!(VertexLayout::DOOM3.attributes, 6);
    }

    #[test]
    fn state_call_classification() {
        assert!(Command::State(StateCommand::ColorMask(false)).is_state_call());
        assert!(!Command::EndFrame.is_state_call());
        assert!(!Command::Draw {
            vertex_buffer: 0,
            index_buffer: 0,
            primitive: PrimitiveType::TriangleList,
            first: 0,
            count: 3
        }
        .is_state_call());
    }

    #[test]
    fn api_names() {
        assert_eq!(GraphicsApi::OpenGl.name(), "OpenGL");
        assert_eq!(GraphicsApi::Direct3D.name(), "Direct3D");
    }
}
