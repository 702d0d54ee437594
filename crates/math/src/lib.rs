//! Minimal 3D graphics math for the GWC GPU simulator.
//!
//! This crate provides the small, allocation-free math vocabulary used by the
//! rest of the workspace: [`Vec2`], [`Vec3`], [`Vec4`] and a column-major
//! [`Mat4`].
//!
//! It is deliberately not a general-purpose linear algebra library — only the
//! operations a rendering pipeline needs (transforms, dot/cross products,
//! perspective projection) are implemented, but those are implemented
//! completely and tested.
//!
//! # Examples
//!
//! ```
//! use gwc_math::{Mat4, Vec3, Vec4};
//!
//! let proj = Mat4::perspective(60f32.to_radians(), 4.0 / 3.0, 0.1, 100.0);
//! let view = Mat4::look_at(
//!     Vec3::new(0.0, 0.0, 5.0),
//!     Vec3::ZERO,
//!     Vec3::new(0.0, 1.0, 0.0),
//! );
//! let clip = proj * view * Vec4::new(0.0, 0.0, 0.0, 1.0);
//! assert!(clip.w > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mat;
mod vec;

pub use mat::Mat4;
pub use vec::{Vec2, Vec3, Vec4};

/// Linear interpolation between `a` and `b` by factor `t` (not clamped).
///
/// ```
/// assert_eq!(gwc_math::lerp(0.0, 10.0, 0.25), 2.5);
/// ```
#[inline]
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

/// Clamps `x` into `[lo, hi]`.
///
/// ```
/// assert_eq!(gwc_math::clamp(5.0, 0.0, 1.0), 1.0);
/// ```
#[inline]
pub fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    x.max(lo).min(hi)
}

/// Approximate float equality with absolute tolerance `eps`.
#[inline]
pub fn approx_eq(a: f32, b: f32, eps: f32) -> bool {
    (a - b).abs() <= eps
}
