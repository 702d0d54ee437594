//! Post-shading vertices and the viewport transform.

use gwc_math::{Vec3, Vec4};

/// Number of varying registers carried from vertex to fragment programs.
pub const MAX_VARYINGS: usize = 7;

/// A vertex after vertex-program execution: a clip-space position plus the
/// varyings written to `o1..o7`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadedVertex {
    /// Clip-space position (the vertex program's `o0`).
    pub clip: Vec4,
    /// Varyings (`o1..`), interpolated across the triangle.
    pub varyings: [Vec4; MAX_VARYINGS],
}

impl ShadedVertex {
    /// A vertex at a clip-space position with zero varyings.
    pub fn at(clip: Vec4) -> Self {
        ShadedVertex { clip, varyings: [Vec4::ZERO; MAX_VARYINGS] }
    }

    /// Linear interpolation in clip space (used by the near-plane clipper;
    /// interpolating *before* the perspective divide is exact).
    pub fn lerp(&self, other: &ShadedVertex, t: f32) -> ShadedVertex {
        let mut varyings = [Vec4::ZERO; MAX_VARYINGS];
        for (o, (a, b)) in varyings.iter_mut().zip(self.varyings.iter().zip(other.varyings.iter()))
        {
            *o = a.lerp(*b, t);
        }
        ShadedVertex { clip: self.clip.lerp(other.clip, t), varyings }
    }
}

/// The render target rectangle and depth range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Viewport {
    /// Creates a viewport.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "viewport must be non-empty");
        Viewport { width, height }
    }

    /// Total pixels.
    pub fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }
}

/// Maps a clip-space position to screen space.
///
/// Returns `(x, y, z, inv_w)` where `x, y` are pixel coordinates, `z` is in
/// `[0, 1]` (the depth-buffer range) and `inv_w = 1/w` drives
/// perspective-correct interpolation.
///
/// The caller must ensure `w > 0` (the clipper guarantees this for
/// triangles that survive near-plane clipping).
pub fn viewport_transform(clip: Vec4, vp: &Viewport) -> Vec3 {
    let inv_w = 1.0 / clip.w;
    let ndc_x = clip.x * inv_w;
    let ndc_y = clip.y * inv_w;
    let ndc_z = clip.z * inv_w;
    Vec3::new(
        (ndc_x + 1.0) * 0.5 * vp.width as f32,
        (1.0 - ndc_y) * 0.5 * vp.height as f32,
        (ndc_z + 1.0) * 0.5,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_maps_to_middle() {
        let vp = Viewport::new(640, 480);
        let p = viewport_transform(Vec4::new(0.0, 0.0, 0.0, 1.0), &vp);
        assert_eq!(p.x, 320.0);
        assert_eq!(p.y, 240.0);
        assert_eq!(p.z, 0.5);
    }

    #[test]
    fn corners_map_to_edges() {
        let vp = Viewport::new(100, 100);
        let tl = viewport_transform(Vec4::new(-1.0, 1.0, -1.0, 1.0), &vp);
        assert_eq!((tl.x, tl.y, tl.z), (0.0, 0.0, 0.0));
        let br = viewport_transform(Vec4::new(1.0, -1.0, 1.0, 1.0), &vp);
        assert_eq!((br.x, br.y, br.z), (100.0, 100.0, 1.0));
    }

    #[test]
    fn homogeneous_scaling_invariant() {
        let vp = Viewport::new(256, 256);
        let a = viewport_transform(Vec4::new(0.5, 0.25, 0.1, 1.0), &vp);
        let b = viewport_transform(Vec4::new(1.0, 0.5, 0.2, 2.0), &vp);
        assert!((a.x - b.x).abs() < 1e-4 && (a.y - b.y).abs() < 1e-4);
    }

    #[test]
    fn vertex_lerp_midpoint() {
        let mut a = ShadedVertex::at(Vec4::new(0.0, 0.0, 0.0, 1.0));
        let mut b = ShadedVertex::at(Vec4::new(2.0, 4.0, 6.0, 1.0));
        a.varyings[0] = Vec4::splat(0.0);
        b.varyings[0] = Vec4::splat(10.0);
        let m = a.lerp(&b, 0.5);
        assert_eq!(m.clip, Vec4::new(1.0, 2.0, 3.0, 1.0));
        assert_eq!(m.varyings[0], Vec4::splat(5.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_viewport_panics() {
        Viewport::new(0, 10);
    }
}
