//! Fixed-size float vectors used throughout the simulator.

use std::ops::{Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub,
               SubAssign};

macro_rules! impl_binop {
    ($ty:ident, $($f:ident),+) => {
        impl Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, rhs: $ty) -> $ty { $ty { $($f: self.$f + rhs.$f),+ } }
        }
        impl Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, rhs: $ty) -> $ty { $ty { $($f: self.$f - rhs.$f),+ } }
        }
        impl Mul for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: $ty) -> $ty { $ty { $($f: self.$f * rhs.$f),+ } }
        }
        impl Mul<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: f32) -> $ty { $ty { $($f: self.$f * rhs),+ } }
        }
        impl Mul<$ty> for f32 {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: $ty) -> $ty { $ty { $($f: self * rhs.$f),+ } }
        }
        impl Div<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, rhs: f32) -> $ty { $ty { $($f: self.$f / rhs),+ } }
        }
        impl Neg for $ty {
            type Output = $ty;
            #[inline]
            fn neg(self) -> $ty { $ty { $($f: -self.$f),+ } }
        }
        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: $ty) { *self = *self + rhs; }
        }
        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: $ty) { *self = *self - rhs; }
        }
        impl MulAssign<f32> for $ty {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) { *self = *self * rhs; }
        }
        impl DivAssign<f32> for $ty {
            #[inline]
            fn div_assign(&mut self, rhs: f32) { *self = *self / rhs; }
        }
    };
}

/// A 2-component float vector (texture coordinates, screen positions).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec2) -> f32 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// 2D cross product (signed area of the parallelogram).
    #[inline]
    pub fn cross(self, rhs: Vec2) -> f32 {
        self.x * rhs.y - self.y * rhs.x
    }
}

impl_binop!(Vec2, x, y);

/// A 3-component float vector (positions, normals, colors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 { x: 1.0, y: 1.0, z: 1.0 };
    /// Unit X axis.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit Y axis.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit Z axis.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Returns the vector scaled to unit length. Returns `ZERO` for a
    /// zero-length input instead of producing NaNs.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len > 0.0 {
            self / len
        } else {
            Vec3::ZERO
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Extends to a [`Vec4`] with the given `w`.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

impl_binop!(Vec3, x, y, z);

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

/// A 4-component float vector (homogeneous positions, RGBA colors, shader
/// registers).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

impl Vec4 {
    /// The zero vector.
    pub const ZERO: Vec4 = Vec4 { x: 0.0, y: 0.0, z: 0.0, w: 0.0 };
    /// The all-ones vector.
    pub const ONE: Vec4 = Vec4 { x: 1.0, y: 1.0, z: 1.0, w: 1.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Vec4 { x, y, z, w }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec4 { x: v, y: v, z: v, w: v }
    }

    /// Dot product over all four components.
    #[inline]
    pub fn dot(self, rhs: Vec4) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z + self.w * rhs.w
    }

    /// Dot product over the first three components.
    #[inline]
    pub fn dot3(self, rhs: Vec4) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Truncates to the XYZ components.
    #[inline]
    pub fn xyz(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Truncates to the XY components.
    #[inline]
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Perspective division: `(x/w, y/w, z/w)`.
    ///
    /// # Panics
    ///
    /// Does not panic, but returns non-finite components when `w == 0`.
    #[inline]
    pub fn perspective_divide(self) -> Vec3 {
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec4) -> Vec4 {
        Vec4::new(
            self.x.min(rhs.x),
            self.y.min(rhs.y),
            self.z.min(rhs.z),
            self.w.min(rhs.w),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec4) -> Vec4 {
        Vec4::new(
            self.x.max(rhs.x),
            self.y.max(rhs.y),
            self.z.max(rhs.z),
            self.w.max(rhs.w),
        )
    }

    /// Clamps all components into `[0, 1]`.
    #[inline]
    pub fn saturate(self) -> Vec4 {
        self.max(Vec4::ZERO).min(Vec4::ONE)
    }

    /// Linear interpolation between `self` and `rhs`.
    #[inline]
    pub fn lerp(self, rhs: Vec4, t: f32) -> Vec4 {
        self + (rhs - self) * t
    }
}

impl_binop!(Vec4, x, y, z, w);

impl Index<usize> for Vec4 {
    type Output = f32;

    /// Component access by index (0..4).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            3 => &self.w,
            _ => panic!("Vec4 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec4 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            3 => &mut self.w,
            _ => panic!("Vec4 index out of range: {i}"),
        }
    }
}

impl From<[f32; 4]> for Vec4 {
    #[inline]
    fn from(a: [f32; 4]) -> Self {
        Vec4::new(a[0], a[1], a[2], a[3])
    }
}

impl From<Vec4> for [f32; 4] {
    #[inline]
    fn from(v: Vec4) -> Self {
        [v.x, v.y, v.z, v.w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 32.0);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 0.5, -0.25);
        let b = Vec3::new(-2.0, 1.0, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-5);
        assert!(c.dot(b).abs() < 1e-5);
    }

    #[test]
    fn vec3_cross_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn vec3_normalized_unit_length() {
        let v = Vec3::new(3.0, 4.0, 12.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vec3_normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn vec4_perspective_divide() {
        let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
        assert_eq!(v.perspective_divide(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn vec4_index_roundtrip() {
        let mut v = Vec4::new(1.0, 2.0, 3.0, 4.0);
        for i in 0..4 {
            v[i] += 1.0;
        }
        assert_eq!(v, Vec4::new(2.0, 3.0, 4.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vec4_index_out_of_range_panics() {
        let v = Vec4::ZERO;
        let _ = v[4];
    }

    #[test]
    fn vec4_saturate_clamps() {
        let v = Vec4::new(-1.0, 0.5, 2.0, 1.0).saturate();
        assert_eq!(v, Vec4::new(0.0, 0.5, 1.0, 1.0));
    }

    #[test]
    fn vec2_cross_sign() {
        // CCW turn has positive cross product.
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert!(a.cross(b) > 0.0);
        assert!(b.cross(a) < 0.0);
    }

    #[test]
    fn array_conversions() {
        let v: Vec3 = [1.0, 2.0, 3.0].into();
        let a: [f32; 3] = v.into();
        assert_eq!(a, [1.0, 2.0, 3.0]);
        let v4: Vec4 = [1.0, 2.0, 3.0, 4.0].into();
        let a4: [f32; 4] = v4.into();
        assert_eq!(a4, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn vec4_lerp_endpoints() {
        let a = Vec4::ZERO;
        let b = Vec4::ONE;
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec4::splat(0.5));
    }
}
