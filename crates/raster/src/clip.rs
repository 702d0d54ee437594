//! The clipper stage: trivial frustum rejection plus near-plane clipping.
//!
//! Table VII of the paper reports 30–51% of assembled triangles discarded
//! by clipping. In hardware the clipper trivially rejects triangles fully
//! outside the view frustum; triangles crossing only the side planes are
//! passed through (the rasterizer's viewport bound handles them), but
//! triangles crossing the near plane must be geometrically clipped because
//! vertices with `w <= 0` cannot be projected.

use gwc_math::Vec4;

use crate::vertex::ShadedVertex;

/// Outcome of the clipper stage for one triangle.
#[derive(Debug, Clone, PartialEq)]
pub enum ClipResult {
    /// Entirely outside the frustum — discarded (counted in Table VII's
    /// "% clipped").
    Rejected,
    /// Inside (or only crossing side planes): rasterize as-is.
    Accepted,
    /// Crossed the near plane: replaced by one or two clipped triangles.
    Clipped(Vec<[ShadedVertex; 3]>),
}

/// Where a triangle lies relative to the canonical clip volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Containment {
    /// Entirely outside at least one plane.
    Outside,
    /// Crosses at least one plane.
    Intersecting,
    /// Entirely inside all planes.
    Inside,
}

/// Classifies a triangle given by three homogeneous clip-space vertices
/// against the canonical clip volume (`-w <= x,y,z <= w`).
///
/// Returns `Outside` when all three vertices are beyond one common plane
/// (trivial reject), `Inside` when all vertices satisfy all six
/// inequalities, `Intersecting` otherwise.
fn classify_clip_triangle(v0: Vec4, v1: Vec4, v2: Vec4) -> Containment {
    // Outcode per vertex: bit i set if outside plane i.
    let outcode = |v: Vec4| -> u8 {
        let mut c = 0u8;
        if v.x < -v.w {
            c |= 1;
        }
        if v.x > v.w {
            c |= 2;
        }
        if v.y < -v.w {
            c |= 4;
        }
        if v.y > v.w {
            c |= 8;
        }
        if v.z < -v.w {
            c |= 16;
        }
        if v.z > v.w {
            c |= 32;
        }
        c
    };
    let (c0, c1, c2) = (outcode(v0), outcode(v1), outcode(v2));
    if c0 & c1 & c2 != 0 {
        Containment::Outside
    } else if c0 | c1 | c2 == 0 {
        Containment::Inside
    } else {
        Containment::Intersecting
    }
}

/// Signed distance of a clip-space point from the near plane `z = -w`
/// (positive inside).
#[inline]
fn near_dist(v: &ShadedVertex) -> f32 {
    v.clip.z + v.clip.w
}

/// Clips a triangle against the view frustum.
///
/// Returns [`ClipResult::Rejected`] when all three vertices are outside one
/// frustum plane, [`ClipResult::Accepted`] when no near-plane crossing
/// exists, and [`ClipResult::Clipped`] with 1–2 output triangles otherwise.
pub fn clip_near(tri: &[ShadedVertex; 3]) -> ClipResult {
    match classify_clip_triangle(tri[0].clip, tri[1].clip, tri[2].clip) {
        Containment::Outside => return ClipResult::Rejected,
        Containment::Inside => return ClipResult::Accepted,
        Containment::Intersecting => {}
    }
    let d = [near_dist(&tri[0]), near_dist(&tri[1]), near_dist(&tri[2])];
    if d.iter().all(|&x| x >= 0.0) {
        // Crosses only side planes; the tiled traversal clamps to the
        // viewport, so no geometric clipping is needed.
        return ClipResult::Accepted;
    }
    if d.iter().all(|&x| x < 0.0) {
        return ClipResult::Rejected;
    }
    // Sutherland–Hodgman against the near plane.
    let mut out: Vec<ShadedVertex> = Vec::with_capacity(4);
    for i in 0..3 {
        let j = (i + 1) % 3;
        let (vi, vj) = (&tri[i], &tri[j]);
        let (di, dj) = (d[i], d[j]);
        if di >= 0.0 {
            out.push(*vi);
        }
        if (di >= 0.0) != (dj >= 0.0) {
            let t = di / (di - dj);
            out.push(vi.lerp(vj, t));
        }
    }
    debug_assert!(out.len() == 3 || out.len() == 4, "near clip output size {}", out.len());
    let mut tris = Vec::with_capacity(2);
    for k in 1..out.len().saturating_sub(1) {
        tris.push([out[0], out[k], out[k + 1]]);
    }
    if tris.is_empty() {
        ClipResult::Rejected
    } else {
        ClipResult::Clipped(tris)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32, y: f32, z: f32, w: f32) -> ShadedVertex {
        ShadedVertex::at(Vec4::new(x, y, z, w))
    }

    #[test]
    fn clip_triangle_trivial_cases() {
        // Fully inside the canonical volume.
        let inside = classify_clip_triangle(
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(0.5, 0.0, 0.0, 1.0),
            Vec4::new(0.0, 0.5, 0.0, 1.0),
        );
        assert_eq!(inside, Containment::Inside);
        // All vertices beyond +x.
        let outside = classify_clip_triangle(
            Vec4::new(2.0, 0.0, 0.0, 1.0),
            Vec4::new(3.0, 0.0, 0.0, 1.0),
            Vec4::new(2.0, 1.0, 0.0, 1.0),
        );
        assert_eq!(outside, Containment::Outside);
        // Straddling +x.
        let straddle = classify_clip_triangle(
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(3.0, 0.0, 0.0, 1.0),
            Vec4::new(0.0, 1.0, 0.0, 1.0),
        );
        assert_eq!(straddle, Containment::Intersecting);
    }

    #[test]
    fn clip_triangle_separate_planes_not_rejected() {
        // Vertices each outside a *different* plane: cannot trivially reject.
        let c = classify_clip_triangle(
            Vec4::new(-2.0, 0.0, 0.0, 1.0),
            Vec4::new(2.0, 0.0, 0.0, 1.0),
            Vec4::new(0.0, 2.0, 0.0, 1.0),
        );
        assert_eq!(c, Containment::Intersecting);
    }

    #[test]
    fn fully_inside_accepted() {
        let tri = [v(0.0, 0.0, 0.0, 1.0), v(0.5, 0.0, 0.0, 1.0), v(0.0, 0.5, 0.0, 1.0)];
        assert_eq!(clip_near(&tri), ClipResult::Accepted);
    }

    #[test]
    fn fully_outside_rejected() {
        let tri = [v(5.0, 0.0, 0.0, 1.0), v(6.0, 0.0, 0.0, 1.0), v(5.0, 1.0, 0.0, 1.0)];
        assert_eq!(clip_near(&tri), ClipResult::Rejected);
    }

    #[test]
    fn behind_near_plane_rejected() {
        // All z < -w.
        let tri = [v(0.0, 0.0, -2.0, 1.0), v(1.0, 0.0, -3.0, 1.0), v(0.0, 1.0, -2.5, 1.0)];
        assert_eq!(clip_near(&tri), ClipResult::Rejected);
    }

    #[test]
    fn side_plane_crossing_accepted_unclipped() {
        // Straddles +x but entirely in front of the near plane.
        let tri = [v(0.0, 0.0, 0.0, 1.0), v(3.0, 0.0, 0.0, 1.0), v(0.0, 0.5, 0.0, 1.0)];
        assert_eq!(clip_near(&tri), ClipResult::Accepted);
    }

    #[test]
    fn one_vertex_behind_gives_two_triangles() {
        let tri = [v(0.0, 0.0, -2.0, 1.0), v(1.0, 0.0, 0.0, 1.0), v(-1.0, 0.0, 0.0, 1.0)];
        match clip_near(&tri) {
            ClipResult::Clipped(ts) => {
                assert_eq!(ts.len(), 2);
                for t in &ts {
                    for vert in t {
                        assert!(near_dist(vert) >= -1e-5, "clipped vertex still behind near");
                    }
                }
            }
            other => panic!("expected Clipped, got {other:?}"),
        }
    }

    #[test]
    fn two_vertices_behind_gives_one_triangle() {
        let tri = [v(0.0, 0.0, -2.0, 1.0), v(1.0, 0.0, -2.0, 1.0), v(0.0, 1.0, 0.5, 1.0)];
        match clip_near(&tri) {
            ClipResult::Clipped(ts) => {
                assert_eq!(ts.len(), 1);
                for vert in &ts[0] {
                    assert!(near_dist(vert) >= -1e-5);
                }
            }
            other => panic!("expected Clipped, got {other:?}"),
        }
    }

    #[test]
    fn clipped_vertices_lie_on_near_plane() {
        let tri = [v(0.0, 0.0, -2.0, 1.0), v(1.0, 0.0, 0.0, 1.0), v(-1.0, 0.0, 0.0, 1.0)];
        if let ClipResult::Clipped(ts) = clip_near(&tri) {
            let mut on_plane = 0;
            for t in &ts {
                for vert in t {
                    if near_dist(vert).abs() < 1e-5 {
                        on_plane += 1;
                    }
                }
            }
            assert!(on_plane >= 2, "expected intersection vertices on the near plane");
        } else {
            panic!("expected Clipped");
        }
    }

    #[test]
    fn varyings_interpolated_through_clip() {
        let mut a = v(0.0, 0.0, -3.0, 1.0); // behind: dist = -2
        let mut b = v(1.0, 0.0, 1.0, 1.0); // in front: dist = 2
        let c = v(-1.0, 0.0, 1.0, 1.0);
        a.varyings[0] = Vec4::splat(0.0);
        b.varyings[0] = Vec4::splat(4.0);
        if let ClipResult::Clipped(ts) = clip_near(&[a, b, c]) {
            // The intersection of edge a->b is at t = 0.5: varying = 2.
            let found = ts.iter().flatten().any(|vert| {
                (vert.varyings[0].x - 2.0).abs() < 1e-4 && near_dist(vert).abs() < 1e-4
            });
            assert!(found, "interpolated varying not found: {ts:?}");
        } else {
            panic!("expected Clipped");
        }
    }
}
