//! Property-based tests for the math substrate.

use gwc_math::{Mat4, Vec3};
use proptest::prelude::*;

fn finite_f32(range: std::ops::Range<f32>) -> impl Strategy<Value = f32> {
    range.prop_filter("finite", |x| x.is_finite())
}

fn vec3_in(lo: f32, hi: f32) -> impl Strategy<Value = Vec3> {
    (finite_f32(lo..hi), finite_f32(lo..hi), finite_f32(lo..hi))
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn dot_is_commutative(a in vec3_in(-100.0, 100.0), b in vec3_in(-100.0, 100.0)) {
        prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-3);
    }

    #[test]
    fn cross_is_antisymmetric(a in vec3_in(-100.0, 100.0), b in vec3_in(-100.0, 100.0)) {
        let c = a.cross(b) + b.cross(a);
        prop_assert!(c.length() < 1e-2);
    }

    #[test]
    fn cross_orthogonal_to_inputs(a in vec3_in(-10.0, 10.0), b in vec3_in(-10.0, 10.0)) {
        let c = a.cross(b);
        // |a x b . a| <= eps * |a||b||a| scale
        let scale = (a.length() * b.length() * a.length()).max(1.0);
        prop_assert!(c.dot(a).abs() / scale < 1e-4);
    }

    #[test]
    fn normalized_is_unit_or_zero(a in vec3_in(-100.0, 100.0)) {
        let n = a.normalized();
        let len = n.length();
        prop_assert!(len == 0.0 || (len - 1.0).abs() < 1e-4);
    }

    #[test]
    fn mat_vec_distributes(
        t in vec3_in(-10.0, 10.0),
        angle in finite_f32(-3.0..3.0),
        a in vec3_in(-10.0, 10.0),
        b in vec3_in(-10.0, 10.0),
    ) {
        let m = Mat4::translation(t) * Mat4::rotation_y(angle);
        let lhs = m * (a.extend(1.0) + b.extend(0.0));
        let rhs = (m * a.extend(1.0)) + (m * b.extend(0.0));
        prop_assert!((lhs - rhs).dot(lhs - rhs) < 1e-3);
    }

    #[test]
    fn inverse_roundtrips_points(
        t in vec3_in(-10.0, 10.0),
        angle in finite_f32(-3.0..3.0),
        s in finite_f32(0.1..4.0),
        p in vec3_in(-10.0, 10.0),
    ) {
        let m = Mat4::translation(t) * Mat4::rotation_x(angle) * Mat4::scale(Vec3::splat(s));
        let inv = m.inverse().unwrap();
        let q = inv.transform_point(m.transform_point(p));
        prop_assert!((q - p).length() < 1e-2);
    }
}
