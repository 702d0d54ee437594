//! Column-major 4x4 matrix.

use std::ops::Mul;

use crate::{Vec3, Vec4};

/// A column-major 4x4 matrix, matching the OpenGL convention used by the
/// simulated API layer.
///
/// `cols[c]` is column `c`; element *(row r, col c)* is `cols[c][r]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// The four columns of the matrix.
    pub cols: [Vec4; 4],
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::IDENTITY
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from four columns.
    #[inline]
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Mat4 { cols: [c0, c1, c2, c3] }
    }

    /// Returns row `r` as a [`Vec4`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= 4`.
    #[inline]
    pub fn row(&self, r: usize) -> Vec4 {
        Vec4::new(self.cols[0][r], self.cols[1][r], self.cols[2][r], self.cols[3][r])
    }

    /// Translation matrix.
    pub fn translation(t: Vec3) -> Mat4 {
        let mut m = Mat4::IDENTITY;
        m.cols[3] = Vec4::new(t.x, t.y, t.z, 1.0);
        m
    }

    /// Non-uniform scale matrix.
    pub fn scale(s: Vec3) -> Mat4 {
        Mat4::from_cols(
            Vec4::new(s.x, 0.0, 0.0, 0.0),
            Vec4::new(0.0, s.y, 0.0, 0.0),
            Vec4::new(0.0, 0.0, s.z, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the X axis by `angle` radians.
    pub fn rotation_x(angle: f32) -> Mat4 {
        let (s, c) = angle.sin_cos();
        Mat4::from_cols(
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, c, s, 0.0),
            Vec4::new(0.0, -s, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the Y axis by `angle` radians.
    pub fn rotation_y(angle: f32) -> Mat4 {
        let (s, c) = angle.sin_cos();
        Mat4::from_cols(
            Vec4::new(c, 0.0, -s, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(s, 0.0, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the Z axis by `angle` radians.
    pub fn rotation_z(angle: f32) -> Mat4 {
        let (s, c) = angle.sin_cos();
        Mat4::from_cols(
            Vec4::new(c, s, 0.0, 0.0),
            Vec4::new(-s, c, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Right-handed perspective projection with a `[-1, 1]` clip-space depth
    /// range (the OpenGL convention).
    ///
    /// `fovy` is the vertical field of view in radians; `near`/`far` are the
    /// positive distances to the clip planes.
    ///
    /// # Panics
    ///
    /// Panics if `near <= 0`, `far <= near`, `aspect <= 0` or
    /// `fovy` is not in `(0, π)`.
    pub fn perspective(fovy: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
        assert!(near > 0.0 && far > near, "invalid near/far: {near}/{far}");
        assert!(aspect > 0.0, "invalid aspect: {aspect}");
        assert!(fovy > 0.0 && fovy < std::f32::consts::PI, "invalid fovy: {fovy}");
        let f = 1.0 / (fovy * 0.5).tan();
        let nf = 1.0 / (near - far);
        Mat4::from_cols(
            Vec4::new(f / aspect, 0.0, 0.0, 0.0),
            Vec4::new(0.0, f, 0.0, 0.0),
            Vec4::new(0.0, 0.0, (far + near) * nf, -1.0),
            Vec4::new(0.0, 0.0, 2.0 * far * near * nf, 0.0),
        )
    }

    /// Right-handed orthographic projection with `[-1, 1]` depth range.
    pub fn orthographic(left: f32, right: f32, bottom: f32, top: f32, near: f32, far: f32) -> Mat4 {
        let rl = 1.0 / (right - left);
        let tb = 1.0 / (top - bottom);
        let fne = 1.0 / (far - near);
        Mat4::from_cols(
            Vec4::new(2.0 * rl, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 2.0 * tb, 0.0, 0.0),
            Vec4::new(0.0, 0.0, -2.0 * fne, 0.0),
            Vec4::new(
                -(right + left) * rl,
                -(top + bottom) * tb,
                -(far + near) * fne,
                1.0,
            ),
        )
    }

    /// Right-handed look-at view matrix.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
        let f = (target - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Mat4::from_cols(
            Vec4::new(s.x, u.x, -f.x, 0.0),
            Vec4::new(s.y, u.y, -f.y, 0.0),
            Vec4::new(s.z, u.z, -f.z, 0.0),
            Vec4::new(-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0),
        )
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat4 {
        Mat4::from_cols(self.row(0), self.row(1), self.row(2), self.row(3))
    }

    /// Transforms a point (`w = 1`).
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let v = *self * p.extend(1.0);
        v.xyz()
    }

    /// Transforms a direction (`w = 0`), ignoring translation.
    #[inline]
    pub fn transform_dir(&self, d: Vec3) -> Vec3 {
        let v = *self * d.extend(0.0);
        v.xyz()
    }

    /// General matrix inverse via cofactor expansion.
    ///
    /// Returns `None` when the matrix is singular (determinant within
    /// `1e-12` of zero).
    pub fn inverse(&self) -> Option<Mat4> {
        // Flatten to row-major m[r][c] for readability.
        let m = |r: usize, c: usize| self.cols[c][r];
        let a2323 = m(2, 2) * m(3, 3) - m(2, 3) * m(3, 2);
        let a1323 = m(2, 1) * m(3, 3) - m(2, 3) * m(3, 1);
        let a1223 = m(2, 1) * m(3, 2) - m(2, 2) * m(3, 1);
        let a0323 = m(2, 0) * m(3, 3) - m(2, 3) * m(3, 0);
        let a0223 = m(2, 0) * m(3, 2) - m(2, 2) * m(3, 0);
        let a0123 = m(2, 0) * m(3, 1) - m(2, 1) * m(3, 0);
        let a2313 = m(1, 2) * m(3, 3) - m(1, 3) * m(3, 2);
        let a1313 = m(1, 1) * m(3, 3) - m(1, 3) * m(3, 1);
        let a1213 = m(1, 1) * m(3, 2) - m(1, 2) * m(3, 1);
        let a2312 = m(1, 2) * m(2, 3) - m(1, 3) * m(2, 2);
        let a1312 = m(1, 1) * m(2, 3) - m(1, 3) * m(2, 1);
        let a1212 = m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1);
        let a0313 = m(1, 0) * m(3, 3) - m(1, 3) * m(3, 0);
        let a0213 = m(1, 0) * m(3, 2) - m(1, 2) * m(3, 0);
        let a0312 = m(1, 0) * m(2, 3) - m(1, 3) * m(2, 0);
        let a0212 = m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0);
        let a0113 = m(1, 0) * m(3, 1) - m(1, 1) * m(3, 0);
        let a0112 = m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0);

        let det = m(0, 0) * (m(1, 1) * a2323 - m(1, 2) * a1323 + m(1, 3) * a1223)
            - m(0, 1) * (m(1, 0) * a2323 - m(1, 2) * a0323 + m(1, 3) * a0223)
            + m(0, 2) * (m(1, 0) * a1323 - m(1, 1) * a0323 + m(1, 3) * a0123)
            - m(0, 3) * (m(1, 0) * a1223 - m(1, 1) * a0223 + m(1, 2) * a0123);
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;

        let r = |v: f32| v * inv_det;
        // inv[r][c]
        let out = [
            [
                r(m(1, 1) * a2323 - m(1, 2) * a1323 + m(1, 3) * a1223),
                r(-(m(0, 1) * a2323 - m(0, 2) * a1323 + m(0, 3) * a1223)),
                r(m(0, 1) * a2313 - m(0, 2) * a1313 + m(0, 3) * a1213),
                r(-(m(0, 1) * a2312 - m(0, 2) * a1312 + m(0, 3) * a1212)),
            ],
            [
                r(-(m(1, 0) * a2323 - m(1, 2) * a0323 + m(1, 3) * a0223)),
                r(m(0, 0) * a2323 - m(0, 2) * a0323 + m(0, 3) * a0223),
                r(-(m(0, 0) * a2313 - m(0, 2) * a0313 + m(0, 3) * a0213)),
                r(m(0, 0) * a2312 - m(0, 2) * a0312 + m(0, 3) * a0212),
            ],
            [
                r(m(1, 0) * a1323 - m(1, 1) * a0323 + m(1, 3) * a0123),
                r(-(m(0, 0) * a1323 - m(0, 1) * a0323 + m(0, 3) * a0123)),
                r(m(0, 0) * a1313 - m(0, 1) * a0313 + m(0, 3) * a0113),
                r(-(m(0, 0) * a1312 - m(0, 1) * a0312 + m(0, 3) * a0112)),
            ],
            [
                r(-(m(1, 0) * a1223 - m(1, 1) * a0223 + m(1, 2) * a0123)),
                r(m(0, 0) * a1223 - m(0, 1) * a0223 + m(0, 2) * a0123),
                r(-(m(0, 0) * a1213 - m(0, 1) * a0213 + m(0, 2) * a0113)),
                r(m(0, 0) * a1212 - m(0, 1) * a0212 + m(0, 2) * a0112),
            ],
        ];
        Some(Mat4::from_cols(
            Vec4::new(out[0][0], out[1][0], out[2][0], out[3][0]),
            Vec4::new(out[0][1], out[1][1], out[2][1], out[3][1]),
            Vec4::new(out[0][2], out[1][2], out[2][2], out[3][2]),
            Vec4::new(out[0][3], out[1][3], out[2][3], out[3][3]),
        ))
    }
}

impl Mul for Mat4 {
    type Output = Mat4;

    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut cols = [Vec4::ZERO; 4];
        for (c, col) in cols.iter_mut().enumerate() {
            *col = self * rhs.cols[c];
        }
        Mat4 { cols }
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;

    #[inline]
    fn mul(self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn mats_close(a: &Mat4, b: &Mat4, eps: f32) -> bool {
        (0..4).all(|c| {
            (0..4).all(|r| approx_eq(a.cols[c][r], b.cols[c][r], eps))
        })
    }

    #[test]
    fn identity_is_neutral() {
        let v = Vec4::new(1.0, -2.0, 3.0, 1.0);
        assert_eq!(Mat4::IDENTITY * v, v);
        let m = Mat4::translation(Vec3::new(1.0, 2.0, 3.0));
        assert!(mats_close(&(Mat4::IDENTITY * m), &m, 0.0));
        assert!(mats_close(&(m * Mat4::IDENTITY), &m, 0.0));
    }

    #[test]
    fn translation_moves_points_not_dirs() {
        let m = Mat4::translation(Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(m.transform_point(Vec3::ZERO), Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(m.transform_dir(Vec3::X), Vec3::X);
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let m = Mat4::rotation_z(std::f32::consts::FRAC_PI_2);
        let v = m.transform_point(Vec3::X);
        assert!((v - Vec3::Y).length() < 1e-6);
    }

    #[test]
    fn matrix_multiply_composes() {
        let t = Mat4::translation(Vec3::new(1.0, 0.0, 0.0));
        let r = Mat4::rotation_z(std::f32::consts::FRAC_PI_2);
        // (t * r) applies rotation first, then translation.
        let p = (t * r).transform_point(Vec3::X);
        assert!((p - Vec3::new(1.0, 1.0, 0.0)).length() < 1e-6);
    }

    #[test]
    fn perspective_maps_near_and_far() {
        let m = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 1.0, 100.0);
        let near = (m * Vec4::new(0.0, 0.0, -1.0, 1.0)).perspective_divide();
        let far = (m * Vec4::new(0.0, 0.0, -100.0, 1.0)).perspective_divide();
        assert!(approx_eq(near.z, -1.0, 1e-4), "near.z = {}", near.z);
        assert!(approx_eq(far.z, 1.0, 1e-4), "far.z = {}", far.z);
    }

    #[test]
    #[should_panic(expected = "invalid near/far")]
    fn perspective_rejects_bad_planes() {
        let _ = Mat4::perspective(1.0, 1.0, 10.0, 1.0);
    }

    #[test]
    fn look_at_centers_target() {
        let m = Mat4::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
        let p = m.transform_point(Vec3::ZERO);
        // Target should lie on the -Z axis in view space.
        assert!(p.x.abs() < 1e-6 && p.y.abs() < 1e-6);
        assert!(approx_eq(p.z, -5.0, 1e-5));
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Mat4::translation(Vec3::new(1.0, 2.0, 3.0))
            * Mat4::rotation_y(0.7)
            * Mat4::scale(Vec3::new(2.0, 3.0, 0.5));
        let inv = m.inverse().expect("invertible");
        assert!(mats_close(&(m * inv), &Mat4::IDENTITY, 1e-5));
        assert!(mats_close(&(inv * m), &Mat4::IDENTITY, 1e-5));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Mat4::scale(Vec3::new(0.0, 1.0, 1.0));
        assert!(m.inverse().is_none());
    }

    #[test]
    fn transpose_involution() {
        let m = Mat4::perspective(1.0, 1.3, 0.5, 50.0);
        assert!(mats_close(&m.transpose().transpose(), &m, 0.0));
    }

    #[test]
    fn orthographic_maps_corners() {
        let m = Mat4::orthographic(0.0, 10.0, 0.0, 10.0, 1.0, 11.0);
        let p = (m * Vec4::new(0.0, 0.0, -1.0, 1.0)).perspective_divide();
        assert!(approx_eq(p.x, -1.0, 1e-6) && approx_eq(p.y, -1.0, 1e-6));
        assert!(approx_eq(p.z, -1.0, 1e-6));
        let q = (m * Vec4::new(10.0, 10.0, -11.0, 1.0)).perspective_divide();
        assert!(approx_eq(q.x, 1.0, 1e-6) && approx_eq(q.y, 1.0, 1e-6));
        assert!(approx_eq(q.z, 1.0, 1e-6));
    }
}
