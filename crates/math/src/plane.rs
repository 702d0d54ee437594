//! Oriented planes in 3D.

use crate::{Vec3, Vec4};

/// A plane `n·p + d = 0`. Points with `signed_distance > 0` are on the side
/// the normal points toward (the "inside" for frustum planes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    /// Plane normal (not necessarily unit length unless normalized).
    pub normal: Vec3,
    /// Plane offset.
    pub d: f32,
}

impl Plane {
    /// Creates a plane from a normal and offset.
    #[inline]
    pub const fn new(normal: Vec3, d: f32) -> Self {
        Plane { normal, d }
    }

    /// Creates a plane from homogeneous coefficients `(a, b, c, d)`.
    #[inline]
    pub fn from_coefficients(v: Vec4) -> Self {
        Plane { normal: v.xyz(), d: v.w }
    }

    /// Creates a plane through three points with normal given by the
    /// right-handed winding `(b - a) × (c - a)`.
    pub fn from_points(a: Vec3, b: Vec3, c: Vec3) -> Self {
        let normal = (b - a).cross(c - a).normalized();
        Plane { normal, d: -normal.dot(a) }
    }

    /// Returns a plane with unit-length normal (distance values become true
    /// Euclidean distances). Zero normals are returned unchanged.
    pub fn normalized(self) -> Plane {
        let len = self.normal.length();
        if len > 0.0 {
            Plane { normal: self.normal / len, d: self.d / len }
        } else {
            self
        }
    }

    /// Signed distance from `p` to the plane (scaled by `|normal|`).
    #[inline]
    pub fn signed_distance(&self, p: Vec3) -> f32 {
        self.normal.dot(p) + self.d
    }

    /// Evaluates the plane against a homogeneous point: `n·xyz + d·w`.
    #[inline]
    pub fn eval_homogeneous(&self, p: Vec4) -> f32 {
        self.normal.x * p.x + self.normal.y * p.y + self.normal.z * p.z + self.d * p.w
    }

    /// Intersection parameter `t` of the segment `a + t (b - a)` with the
    /// plane, or `None` if the segment is parallel to the plane.
    pub fn intersect_segment(&self, a: Vec3, b: Vec3) -> Option<f32> {
        let da = self.signed_distance(a);
        let db = self.signed_distance(b);
        let denom = da - db;
        if denom.abs() < 1e-12 {
            None
        } else {
            Some(da / denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_distance() {
        // XY plane through origin, normal +Z.
        let p = Plane::from_points(Vec3::ZERO, Vec3::X, Vec3::Y);
        assert!((p.normal - Vec3::Z).length() < 1e-6);
        assert!((p.signed_distance(Vec3::new(0.0, 0.0, 5.0)) - 5.0).abs() < 1e-6);
        assert!((p.signed_distance(Vec3::new(3.0, -2.0, -1.0)) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_preserves_zero_set() {
        let p = Plane::new(Vec3::new(0.0, 0.0, 4.0), -8.0); // z = 2
        let n = p.normalized();
        let on = Vec3::new(1.0, 1.0, 2.0);
        assert!(p.signed_distance(on).abs() < 1e-6);
        assert!(n.signed_distance(on).abs() < 1e-6);
        assert!((n.normal.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segment_intersection_param() {
        let p = Plane::new(Vec3::Z, -1.0); // z = 1
        let t = p
            .intersect_segment(Vec3::ZERO, Vec3::new(0.0, 0.0, 2.0))
            .expect("crosses");
        assert!((t - 0.5).abs() < 1e-6);
    }

    #[test]
    fn parallel_segment_no_intersection() {
        let p = Plane::new(Vec3::Z, 0.0);
        assert!(p.intersect_segment(Vec3::X, Vec3::Y).is_none());
    }

    #[test]
    fn eval_homogeneous_matches_affine() {
        let p = Plane::new(Vec3::new(1.0, 2.0, 3.0), 4.0);
        let q = Vec3::new(0.5, -1.0, 2.0);
        assert!(
            (p.eval_homogeneous(q.extend(1.0)) - p.signed_distance(q)).abs() < 1e-6
        );
    }
}
