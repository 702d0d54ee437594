//! View frustum extraction and classification.

use crate::{Aabb, Mat4, Plane, Vec3, Vec4};

/// The result of classifying a volume against a [`Frustum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Containment {
    /// Entirely outside at least one plane.
    Outside,
    /// Crosses at least one plane.
    Intersecting,
    /// Entirely inside all planes.
    Inside,
}

/// A view frustum as six inward-facing planes, extracted from a combined
/// projection-view matrix (Gribb–Hartmann method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frustum {
    /// Planes in order: left, right, bottom, top, near, far. Normals point
    /// inside the frustum.
    pub planes: [Plane; 6],
}

impl Frustum {
    /// Index of the near plane in [`Frustum::planes`].
    pub const NEAR: usize = 4;

    /// Extracts the six clip planes from a projection–view matrix
    /// (clip = m * world).
    pub fn from_matrix(m: &Mat4) -> Self {
        let r0 = m.row(0);
        let r1 = m.row(1);
        let r2 = m.row(2);
        let r3 = m.row(3);
        let p = |v: Vec4| Plane::from_coefficients(v).normalized();
        Frustum {
            planes: [
                p(r3 + r0), // left:   x > -w
                p(r3 - r0), // right:  x < w
                p(r3 + r1), // bottom: y > -w
                p(r3 - r1), // top:    y < w
                p(r3 + r2), // near:   z > -w
                p(r3 - r2), // far:    z < w
            ],
        }
    }

    /// Classifies a world-space point.
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.planes.iter().all(|pl| pl.signed_distance(p) >= 0.0)
    }

    /// Classifies an axis-aligned box (conservative: may report
    /// `Intersecting` for boxes that are actually outside near frustum
    /// corners).
    pub fn classify_aabb(&self, b: &Aabb) -> Containment {
        if b.is_empty() {
            return Containment::Outside;
        }
        let mut inside_all = true;
        for pl in &self.planes {
            // p-vertex / n-vertex test.
            let pv = Vec3::new(
                if pl.normal.x >= 0.0 { b.max.x } else { b.min.x },
                if pl.normal.y >= 0.0 { b.max.y } else { b.min.y },
                if pl.normal.z >= 0.0 { b.max.z } else { b.min.z },
            );
            if pl.signed_distance(pv) < 0.0 {
                return Containment::Outside;
            }
            let nv = Vec3::new(
                if pl.normal.x >= 0.0 { b.min.x } else { b.max.x },
                if pl.normal.y >= 0.0 { b.min.y } else { b.max.y },
                if pl.normal.z >= 0.0 { b.min.z } else { b.max.z },
            );
            if pl.signed_distance(nv) < 0.0 {
                inside_all = false;
            }
        }
        if inside_all {
            Containment::Inside
        } else {
            Containment::Intersecting
        }
    }

    /// Classifies a triangle given by three homogeneous clip-space vertices
    /// against the canonical clip volume
    /// (`-w <= x,y,z <= w`). This is the test the clipper stage performs.
    ///
    /// Returns `Outside` when all three vertices are beyond one common
    /// plane (trivial reject), `Inside` when all vertices satisfy all six
    /// inequalities, `Intersecting` otherwise.
    pub fn classify_clip_triangle(v0: Vec4, v1: Vec4, v2: Vec4) -> Containment {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_proj() -> Mat4 {
        Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 1.0, 100.0)
            * Mat4::look_at(Vec3::ZERO, -Vec3::Z, Vec3::Y)
    }

    #[test]
    fn point_in_front_is_inside() {
        let f = Frustum::from_matrix(&view_proj());
        assert!(f.contains_point(Vec3::new(0.0, 0.0, -10.0)));
        assert!(!f.contains_point(Vec3::new(0.0, 0.0, 10.0))); // behind camera
        assert!(!f.contains_point(Vec3::new(0.0, 0.0, -200.0))); // past far
        assert!(!f.contains_point(Vec3::new(50.0, 0.0, -10.0))); // way left/right
    }

    #[test]
    fn aabb_classification() {
        let f = Frustum::from_matrix(&view_proj());
        let inside = Aabb::new(Vec3::new(-1.0, -1.0, -11.0), Vec3::new(1.0, 1.0, -9.0));
        assert_eq!(f.classify_aabb(&inside), Containment::Inside);
        let outside = Aabb::new(Vec3::new(-1.0, -1.0, 9.0), Vec3::new(1.0, 1.0, 11.0));
        assert_eq!(f.classify_aabb(&outside), Containment::Outside);
        let straddle = Aabb::new(Vec3::new(-1.0, -1.0, -2.0), Vec3::new(1.0, 1.0, 2.0));
        assert_eq!(f.classify_aabb(&straddle), Containment::Intersecting);
        assert_eq!(f.classify_aabb(&Aabb::EMPTY), Containment::Outside);
    }

    #[test]
    fn clip_triangle_trivial_cases() {
        // Fully inside the canonical volume.
        let inside = Frustum::classify_clip_triangle(
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(0.5, 0.0, 0.0, 1.0),
            Vec4::new(0.0, 0.5, 0.0, 1.0),
        );
        assert_eq!(inside, Containment::Inside);
        // All vertices beyond +x.
        let outside = Frustum::classify_clip_triangle(
            Vec4::new(2.0, 0.0, 0.0, 1.0),
            Vec4::new(3.0, 0.0, 0.0, 1.0),
            Vec4::new(2.0, 1.0, 0.0, 1.0),
        );
        assert_eq!(outside, Containment::Outside);
        // Straddling +x.
        let straddle = Frustum::classify_clip_triangle(
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(3.0, 0.0, 0.0, 1.0),
            Vec4::new(0.0, 1.0, 0.0, 1.0),
        );
        assert_eq!(straddle, Containment::Intersecting);
    }

    #[test]
    fn clip_triangle_separate_planes_not_rejected() {
        // Vertices each outside a *different* plane: cannot trivially reject.
        let c = Frustum::classify_clip_triangle(
            Vec4::new(-2.0, 0.0, 0.0, 1.0),
            Vec4::new(2.0, 0.0, 0.0, 1.0),
            Vec4::new(0.0, 2.0, 0.0, 1.0),
        );
        assert_eq!(c, Containment::Intersecting);
    }

    #[test]
    fn matrix_frustum_agrees_with_clip_test() {
        let vp = view_proj();
        let f = Frustum::from_matrix(&vp);
        // Sample some points; world-space plane test must agree with the
        // canonical clip-volume inequality for w > 0.
        for &p in &[
            Vec3::new(0.0, 0.0, -50.0),
            Vec3::new(5.0, -3.0, -20.0),
            Vec3::new(30.0, 0.0, -20.0),
            Vec3::new(0.0, 0.0, -0.5),
        ] {
            let clip = vp * p.extend(1.0);
            let in_clip = clip.x >= -clip.w
                && clip.x <= clip.w
                && clip.y >= -clip.w
                && clip.y <= clip.w
                && clip.z >= -clip.w
                && clip.z <= clip.w;
            assert_eq!(f.contains_point(p), in_clip, "disagreement at {p:?}");
        }
    }
}
