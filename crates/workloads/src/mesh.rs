//! Procedural mesh generation for the synthetic scenes.
//!
//! Meshes are emitted in the interleaved attribute layout the workloads
//! use: position (xyz, w=1), normal (xyz), texcoord (xy) — three [`Vec4`]
//! attribute slots per vertex.

use gwc_math::{Vec3, Vec4};

/// Attribute slots per vertex (position, normal, uv).
pub const ATTRIBS: u8 = 3;

/// A generated mesh: interleaved vertex data plus 32-bit indices
/// (narrowed to 16-bit by the caller when the engine uses short indices).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mesh {
    /// `vertex_count × ATTRIBS` interleaved attributes.
    pub vertices: Vec<Vec4>,
    /// Triangle-list indices (strips are re-indexed by the generator).
    pub indices: Vec<u32>,
}

impl Mesh {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len() / ATTRIBS as usize
    }

    /// Appends another mesh, offsetting its indices.
    pub fn append(&mut self, other: &Mesh) {
        let base = self.vertex_count() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.indices.extend(other.indices.iter().map(|&i| i + base));
    }

    fn push_vertex(&mut self, pos: Vec3, normal: Vec3, u: f32, v: f32) {
        self.vertices.push(pos.extend(1.0));
        self.vertices.push(normal.extend(0.0));
        self.vertices.push(Vec4::new(u, v, 0.0, 0.0));
    }
}

/// A rectangular panel subdivided into `nu × nv` quads (2 triangles each),
/// spanning `origin` to `origin + u_axis + v_axis`, with vertex-sharing
/// row-major triangle-list indices (good post-transform cache locality,
/// like the optimized meshes of Hoppe's vertex-cache ordering).
pub fn grid_panel(origin: Vec3, u_axis: Vec3, v_axis: Vec3, nu: u32, nv: u32) -> Mesh {
    assert!(nu > 0 && nv > 0, "panel must have at least one quad");
    let normal = u_axis.cross(v_axis).normalized();
    let mut mesh = Mesh::default();
    for j in 0..=nv {
        for i in 0..=nu {
            let fu = i as f32 / nu as f32;
            let fv = j as f32 / nv as f32;
            let pos = origin + u_axis * fu + v_axis * fv;
            mesh.push_vertex(pos, normal, fu, fv);
        }
    }
    let stride = nu + 1;
    for j in 0..nv {
        for i in 0..nu {
            let a = j * stride + i;
            let b = a + 1;
            let c = a + stride;
            let d = c + 1;
            mesh.indices.extend([a, b, c, b, d, c]);
        }
    }
    mesh
}

/// A UV sphere: a closed mesh whose far hemisphere back-faces the camera
/// (the synthetic source of Table VII's culled triangles).
pub fn uv_sphere(center: Vec3, radius: f32, stacks: u32, slices: u32) -> Mesh {
    assert!(stacks >= 2 && slices >= 3, "sphere too coarse");
    let mut mesh = Mesh::default();
    for j in 0..=stacks {
        let theta = std::f32::consts::PI * j as f32 / stacks as f32;
        for i in 0..=slices {
            let phi = 2.0 * std::f32::consts::PI * i as f32 / slices as f32;
            let n = Vec3::new(theta.sin() * phi.cos(), theta.cos(), theta.sin() * phi.sin());
            mesh.push_vertex(
                center + n * radius,
                n,
                i as f32 / slices as f32,
                j as f32 / stacks as f32,
            );
        }
    }
    let stride = slices + 1;
    for j in 0..stacks {
        for i in 0..slices {
            let a = j * stride + i;
            let b = a + 1;
            let c = a + stride;
            let d = c + 1;
            // Outward-facing CCW winding (viewed from outside).
            mesh.indices.extend([a, c, b, b, c, d]);
        }
    }
    mesh
}

/// An inward-facing box room: six grid panels whose normals point into the
/// interior (the camera renders the room from inside, so all faces are
/// front-facing).
pub fn room(center: Vec3, half: Vec3, subdiv: u32) -> Mesh {
    let s = subdiv.max(1);
    let mut mesh = Mesh::default();
    let c = center;
    let h = half;
    // Each wall: origin + two axes chosen so u×v points inward.
    let walls = [
        // -X wall, normal +X (u×v = y×z = +x).
        (Vec3::new(c.x - h.x, c.y - h.y, c.z - h.z), Vec3::new(0.0, 2.0 * h.y, 0.0), Vec3::new(0.0, 0.0, 2.0 * h.z)),
        // +X wall, normal -X (z×y = -x).
        (Vec3::new(c.x + h.x, c.y - h.y, c.z - h.z), Vec3::new(0.0, 0.0, 2.0 * h.z), Vec3::new(0.0, 2.0 * h.y, 0.0)),
        // -Y floor, normal +Y (z×x = +y).
        (Vec3::new(c.x - h.x, c.y - h.y, c.z - h.z), Vec3::new(0.0, 0.0, 2.0 * h.z), Vec3::new(2.0 * h.x, 0.0, 0.0)),
        // +Y ceiling, normal -Y (x×z = -y).
        (Vec3::new(c.x - h.x, c.y + h.y, c.z - h.z), Vec3::new(2.0 * h.x, 0.0, 0.0), Vec3::new(0.0, 0.0, 2.0 * h.z)),
        // -Z wall, normal +Z (x×y = +z).
        (Vec3::new(c.x - h.x, c.y - h.y, c.z - h.z), Vec3::new(2.0 * h.x, 0.0, 0.0), Vec3::new(0.0, 2.0 * h.y, 0.0)),
        // +Z wall, normal -Z (y×x = -z).
        (Vec3::new(c.x - h.x, c.y - h.y, c.z + h.z), Vec3::new(0.0, 2.0 * h.y, 0.0), Vec3::new(2.0 * h.x, 0.0, 0.0)),
    ];
    for (origin, u, v) in walls {
        mesh.append(&grid_panel(origin, u, v, s, s));
    }
    mesh
}

/// A large screen-crossing quad used as a synthetic shadow-volume face:
/// positioned at depth `z` in view space terms, spanning generously beyond
/// the frustum so it rasterizes as huge triangles.
pub fn volume_quad(center: Vec3, right: Vec3, up: Vec3) -> Mesh {
    grid_panel(center - right * 0.5 - up * 0.5, right, up, 1, 1)
}

/// Terrain heightfield strips for the open scenes: returns the shared mesh
/// plus per-row index ranges suitable for `TriangleStrip` draws.
///
/// The returned ranges index into [`Mesh::indices`], which for this
/// generator stores strip-ordered indices: row `j` occupies
/// `ranges[j].0 .. ranges[j].0 + ranges[j].1`.
pub fn terrain_strips(
    origin: Vec3,
    size: f32,
    cells: u32,
    height: impl Fn(f32, f32) -> f32,
) -> (Mesh, Vec<(u32, u32)>) {
    assert!(cells >= 1);
    let mut mesh = Mesh::default();
    let n = cells + 1;
    for j in 0..n {
        for i in 0..n {
            let fx = i as f32 / cells as f32;
            let fz = j as f32 / cells as f32;
            let pos = origin + Vec3::new(fx * size, height(fx, fz), fz * size);
            mesh.push_vertex(pos, Vec3::Y, fx * cells as f32 / 4.0, fz * cells as f32 / 4.0);
        }
    }
    let mut ranges = Vec::new();
    for j in 0..cells {
        let start = mesh.indices.len() as u32;
        for i in 0..n {
            mesh.indices.push(j * n + i);
            mesh.indices.push((j + 1) * n + i);
        }
        ranges.push((start, mesh.indices.len() as u32 - start));
    }
    (mesh, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_counts() {
        let m = grid_panel(Vec3::ZERO, Vec3::X * 4.0, Vec3::Y * 2.0, 4, 2);
        assert_eq!(m.vertex_count(), 15);
        assert_eq!(m.indices.len(), 4 * 2 * 6);
        // All indices valid.
        assert!(m.indices.iter().all(|&i| (i as usize) < m.vertex_count()));
    }

    #[test]
    fn panel_normal_consistent() {
        let m = grid_panel(Vec3::ZERO, Vec3::X, Vec3::Y, 2, 2);
        // u×v = +Z.
        for v in 0..m.vertex_count() {
            let n = m.vertices[v * 3 + 1];
            assert!((n.z - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sphere_closed_and_unit_normals() {
        let m = uv_sphere(Vec3::ZERO, 2.0, 8, 12);
        assert_eq!(m.indices.len() % 3, 0);
        for v in 0..m.vertex_count() {
            let p = m.vertices[v * 3].xyz();
            let n = m.vertices[v * 3 + 1].xyz();
            assert!((p.length() - 2.0).abs() < 1e-4);
            assert!((n.length() - 1.0).abs() < 1e-4);
            // Normal points outward.
            assert!(p.dot(n) > 0.0);
        }
    }

    #[test]
    fn room_has_six_walls() {
        let m = room(Vec3::ZERO, Vec3::splat(10.0), 2);
        // 6 walls x (3x3 verts) and 6 x (2x2x2 tris).
        assert_eq!(m.vertex_count(), 6 * 9);
        assert_eq!(m.indices.len(), 6 * 8 * 3);
    }

    #[test]
    fn room_normals_point_inward() {
        let m = room(Vec3::ZERO, Vec3::splat(5.0), 1);
        for v in 0..m.vertex_count() {
            let p = m.vertices[v * 3].xyz();
            let n = m.vertices[v * 3 + 1].xyz();
            // From a wall point, the inward normal points toward the
            // center (negative dot with the position).
            assert!(p.dot(n) < 0.0, "vertex {v}: p={p:?} n={n:?}");
        }
    }

    #[test]
    fn append_offsets_indices() {
        let mut a = grid_panel(Vec3::ZERO, Vec3::X, Vec3::Y, 1, 1);
        let b = grid_panel(Vec3::Z, Vec3::X, Vec3::Y, 1, 1);
        let verts_a = a.vertex_count() as u32;
        a.append(&b);
        assert_eq!(a.vertex_count(), 8);
        assert!(a.indices[6..].iter().all(|&i| i >= verts_a));
    }

    #[test]
    fn terrain_strip_ranges_are_valid() {
        let (m, ranges) = terrain_strips(Vec3::ZERO, 100.0, 8, |x, z| (x + z) * 2.0);
        assert_eq!(ranges.len(), 8);
        for &(start, count) in &ranges {
            assert_eq!(count, 18); // (8+1) * 2 indices per strip row
            let end = (start + count) as usize;
            assert!(end <= m.indices.len());
            assert!(m.indices[start as usize..end]
                .iter()
                .all(|&i| (i as usize) < m.vertex_count()));
        }
    }

    #[test]
    fn volume_quad_two_triangles() {
        let m = volume_quad(Vec3::ZERO, Vec3::X * 100.0, Vec3::Y * 100.0);
        assert_eq!(m.indices.len(), 6);
        assert_eq!(m.vertex_count(), 4);
    }
}
