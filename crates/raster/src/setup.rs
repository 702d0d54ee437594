//! Triangle setup: edge equations, facing, and perspective-correct
//! interpolation.

use gwc_math::{Vec2, Vec4};

use crate::state::{CullMode, FrontFace};
use crate::vertex::{viewport_transform, ShadedVertex, Viewport, MAX_VARYINGS};

/// A triangle prepared for rasterization: screen positions, normalized edge
/// equations (inside ≥ 0), and the per-vertex data needed for
/// perspective-correct interpolation.
///
/// The simulated GPU's triangle setup unit produces exactly this (at the
/// paper's Table II rate of 2 triangles/cycle); the tiled traversal then
/// evaluates the edge equations hierarchically.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangleSetup {
    /// Screen-space x per vertex.
    sx: [f64; 3],
    /// Screen-space y per vertex.
    sy: [f64; 3],
    /// Depth-range z per vertex.
    z: [f32; 3],
    /// 1/w per vertex.
    inv_w: [f32; 3],
    /// Edge equation coefficients: `E_i(x, y) = a_i x + b_i y + c_i`,
    /// normalized so the interior is non-negative.
    a: [f64; 3],
    b: [f64; 3],
    c: [f64; 3],
    /// Twice the (positive) triangle area in pixels².
    area2: f64,
    /// Sign of the raw screen-space winding (+1 = counter-clockwise in
    /// y-down screen coordinates).
    winding: f64,
    varyings: [[Vec4; MAX_VARYINGS]; 3],
}

impl TriangleSetup {
    /// Performs viewport transform and edge setup.
    ///
    /// Returns `None` for degenerate (zero-area) triangles, which hardware
    /// discards at setup.
    pub fn new(v: &[ShadedVertex; 3], vp: &Viewport) -> Option<TriangleSetup> {
        let mut sx = [0f64; 3];
        let mut sy = [0f64; 3];
        let mut z = [0f32; 3];
        let mut inv_w = [0f32; 3];
        for i in 0..3 {
            if v[i].clip.w <= 0.0 {
                // The clipper guarantees w > 0; anything else is degenerate.
                return None;
            }
            let s = viewport_transform(v[i].clip, vp);
            sx[i] = s.x as f64;
            sy[i] = s.y as f64;
            z[i] = s.z;
            inv_w[i] = 1.0 / v[i].clip.w;
        }
        let raw_area2 =
            (sx[1] - sx[0]) * (sy[2] - sy[0]) - (sy[1] - sy[0]) * (sx[2] - sx[0]);
        if raw_area2 == 0.0 || !raw_area2.is_finite() {
            return None;
        }
        let flip = if raw_area2 < 0.0 { -1.0 } else { 1.0 };
        let mut a = [0f64; 3];
        let mut b = [0f64; 3];
        let mut c = [0f64; 3];
        for i in 0..3 {
            let j = (i + 1) % 3;
            // E_i(p) = cross(v_j - v_i, p - v_i), normalized to inside >= 0.
            let dx = sx[j] - sx[i];
            let dy = sy[j] - sy[i];
            a[i] = -dy * flip;
            b[i] = dx * flip;
            c[i] = (dy * sx[i] - dx * sy[i]) * flip;
        }
        Some(TriangleSetup {
            sx,
            sy,
            z,
            inv_w,
            a,
            b,
            c,
            area2: raw_area2 * flip,
            // In y-down screen space a counter-clockwise (GL front) triangle
            // has negative raw area.
            winding: -flip,
            varyings: [v[0].varyings, v[1].varyings, v[2].varyings],
        })
    }

    /// Twice the triangle's screen-space area in pixels².
    pub fn area2(&self) -> f64 {
        self.area2
    }

    /// Triangle area in pixels (an estimate of fragments covered; compare
    /// Table VIII).
    pub fn area(&self) -> f64 {
        self.area2 * 0.5
    }

    /// `true` when the triangle faces the viewer under the given
    /// front-face convention.
    pub fn is_front_facing(&self, front: FrontFace) -> bool {
        match front {
            FrontFace::Ccw => self.winding > 0.0,
            FrontFace::Cw => self.winding < 0.0,
        }
    }

    /// `true` when the cull mode discards this triangle.
    pub fn is_culled(&self, cull: CullMode, front: FrontFace) -> bool {
        match cull {
            CullMode::None => false,
            CullMode::Back => !self.is_front_facing(front),
            CullMode::Front => self.is_front_facing(front),
        }
    }

    /// Evaluates the three edge equations at a point.
    #[inline]
    pub fn edges_at(&self, x: f64, y: f64) -> [f64; 3] {
        [
            self.a[0] * x + self.b[0] * y + self.c[0],
            self.a[1] * x + self.b[1] * y + self.c[1],
            self.a[2] * x + self.b[2] * y + self.c[2],
        ]
    }

    /// Sample-coverage test at a pixel center, applying a tie-break rule on
    /// shared edges so adjacent triangles never double-shade a pixel.
    #[inline]
    pub fn covers(&self, px: u32, py: u32) -> bool {
        let x = px as f64 + 0.5;
        let y = py as f64 + 0.5;
        let e = self.edges_at(x, y);
        #[allow(clippy::needless_range_loop)] // lanes step lockstep arrays
        for i in 0..3 {
            if e[i] < 0.0 {
                return false;
            }
            if e[i] == 0.0 && !(self.a[i] > 0.0 || (self.a[i] == 0.0 && self.b[i] > 0.0)) {
                return false;
            }
        }
        true
    }

    /// Normalized barycentric weights of a point (weights of v0, v1, v2).
    #[inline]
    pub fn barycentric(&self, x: f64, y: f64) -> [f64; 3] {
        let e = self.edges_at(x, y);
        // E_i spans edge v_i -> v_{i+1}; the opposite vertex is v_{i+2}.
        [e[1] / self.area2, e[2] / self.area2, e[0] / self.area2]
    }

    /// Depth at a pixel center (screen-space affine interpolation, as
    /// hardware interpolates z).
    #[inline]
    pub fn depth_at(&self, px: u32, py: u32) -> f32 {
        let w = self.barycentric(px as f64 + 0.5, py as f64 + 0.5);
        (w[0] * self.z[0] as f64 + w[1] * self.z[1] as f64 + w[2] * self.z[2] as f64) as f32
    }

    /// Perspective-correct interpolation of varying register `idx` at a
    /// pixel center.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= MAX_VARYINGS`.
    pub fn varying_at(&self, px: u32, py: u32, idx: usize) -> Vec4 {
        let w = self.barycentric(px as f64 + 0.5, py as f64 + 0.5);
        let mut num = Vec4::ZERO;
        let mut den = 0f32;
        #[allow(clippy::needless_range_loop)] // lanes step lockstep arrays
        for i in 0..3 {
            let wi = w[i] as f32 * self.inv_w[i];
            num += self.varyings[i][idx] * wi;
            den += wi;
        }
        if den.abs() < 1e-20 {
            Vec4::ZERO
        } else {
            num / den
        }
    }

    /// All varyings at a pixel center (perspective-correct).
    pub fn varyings_at(&self, px: u32, py: u32) -> [Vec4; MAX_VARYINGS] {
        let w = self.barycentric(px as f64 + 0.5, py as f64 + 0.5);
        let mut den = 0f32;
        let mut wi = [0f32; 3];
        for i in 0..3 {
            wi[i] = w[i] as f32 * self.inv_w[i];
            den += wi[i];
        }
        let inv_den = if den.abs() < 1e-20 { 0.0 } else { 1.0 / den };
        std::array::from_fn(|v| {
            (self.varyings[0][v] * wi[0] + self.varyings[1][v] * wi[1] + self.varyings[2][v] * wi[2])
                * inv_den
        })
    }

    /// The screen-space bounding box clamped to the viewport, as inclusive
    /// pixel bounds `(x0, y0, x1, y1)`; `None` when fully off-screen.
    pub fn pixel_bounds(&self, vp: &Viewport) -> Option<(u32, u32, u32, u32)> {
        let min_x = self.sx.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_x = self.sx.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min_y = self.sy.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_y = self.sy.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let x0 = (min_x - 0.5).floor().max(0.0) as i64;
        let y0 = (min_y - 0.5).floor().max(0.0) as i64;
        let x1 = (max_x - 0.5).ceil().min(vp.width as f64 - 1.0) as i64;
        let y1 = (max_y - 0.5).ceil().min(vp.height as f64 - 1.0) as i64;
        if x0 > x1 || y0 > y1 || x1 < 0 || y1 < 0 {
            None
        } else {
            Some((x0 as u32, y0 as u32, x1 as u32, y1 as u32))
        }
    }

    /// Screen-space position of vertex `i` (diagnostics).
    pub fn screen_pos(&self, i: usize) -> Vec2 {
        Vec2::new(self.sx[i] as f32, self.sy[i] as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_math::Vec4;

    fn vert(x: f32, y: f32, z: f32) -> ShadedVertex {
        // NDC coordinates with w = 1.
        ShadedVertex::at(Vec4::new(x, y, z, 1.0))
    }

    fn vp() -> Viewport {
        Viewport::new(100, 100)
    }

    /// A CCW (GL front-facing) fullscreen-ish triangle.
    fn ccw_tri() -> [ShadedVertex; 3] {
        [vert(-0.5, -0.5, 0.0), vert(0.5, -0.5, 0.0), vert(0.0, 0.5, 0.0)]
    }

    #[test]
    fn degenerate_rejected() {
        let t = [vert(0.0, 0.0, 0.0), vert(0.0, 0.0, 0.0), vert(1.0, 1.0, 0.0)];
        assert!(TriangleSetup::new(&t, &vp()).is_none());
    }

    #[test]
    fn non_positive_w_rejected() {
        let mut t = ccw_tri();
        t[0].clip.w = 0.0;
        assert!(TriangleSetup::new(&t, &vp()).is_none());
    }

    #[test]
    fn facing_and_culling() {
        let s = TriangleSetup::new(&ccw_tri(), &vp()).unwrap();
        assert!(s.is_front_facing(FrontFace::Ccw));
        assert!(!s.is_front_facing(FrontFace::Cw));
        assert!(!s.is_culled(CullMode::Back, FrontFace::Ccw));
        assert!(s.is_culled(CullMode::Front, FrontFace::Ccw));
        assert!(!s.is_culled(CullMode::None, FrontFace::Cw));

        // Reversed winding flips facing.
        let rev = [ccw_tri()[0], ccw_tri()[2], ccw_tri()[1]];
        let s2 = TriangleSetup::new(&rev, &vp()).unwrap();
        assert!(!s2.is_front_facing(FrontFace::Ccw));
    }

    #[test]
    fn interior_point_covered() {
        let s = TriangleSetup::new(&ccw_tri(), &vp()).unwrap();
        // NDC (0,0) maps to pixel (50,50); slightly inside the triangle.
        assert!(s.covers(50, 49));
        assert!(!s.covers(5, 5));
        assert!(!s.covers(95, 95));
    }

    #[test]
    fn coverage_independent_of_winding() {
        let a = TriangleSetup::new(&ccw_tri(), &vp()).unwrap();
        let rev = [ccw_tri()[0], ccw_tri()[2], ccw_tri()[1]];
        let b = TriangleSetup::new(&rev, &vp()).unwrap();
        for y in (0..100).step_by(7) {
            for x in (0..100).step_by(7) {
                assert_eq!(a.covers(x, y), b.covers(x, y), "disagreement at ({x},{y})");
            }
        }
    }

    #[test]
    fn shared_edge_no_double_coverage() {
        // Two triangles sharing the diagonal of a square.
        let q = [vert(-0.5, -0.5, 0.0), vert(0.5, -0.5, 0.0), vert(0.5, 0.5, 0.0), vert(-0.5, 0.5, 0.0)];
        let t0 = TriangleSetup::new(&[q[0], q[1], q[2]], &vp()).unwrap();
        let t1 = TriangleSetup::new(&[q[0], q[2], q[3]], &vp()).unwrap();
        let mut covered_once = 0;
        for y in 25..75 {
            for x in 25..75 {
                let n = t0.covers(x, y) as u32 + t1.covers(x, y) as u32;
                assert!(n <= 1, "pixel ({x},{y}) covered by both triangles");
                covered_once += n;
            }
        }
        // The square interior is ~50x50 pixels; all should be covered once.
        assert!(covered_once > 2300, "covered {covered_once}");
    }

    #[test]
    fn area_matches_geometry() {
        let s = TriangleSetup::new(&ccw_tri(), &vp()).unwrap();
        // Base 50 px, height 50 px -> area 1250.
        assert!((s.area() - 1250.0).abs() < 1.0, "area = {}", s.area());
    }

    #[test]
    fn depth_interpolates_linearly() {
        let t = [vert(-1.0, 0.0, -1.0), vert(1.0, 0.0, -1.0), vert(0.0, 1.0, 1.0)];
        let s = TriangleSetup::new(&t, &vp()).unwrap();
        // Bottom edge: z = 0 (depth-range maps -1 -> 0); apex z = 1.
        let near_bottom = s.depth_at(50, 49);
        let near_top = s.depth_at(50, 1);
        assert!(near_bottom < near_top);
        assert!(near_bottom >= 0.0 && near_top <= 1.0);
    }

    #[test]
    fn varying_perspective_correction() {
        // Two vertices at different w: perspective-correct interpolation
        // pulls the midpoint value toward the near (large 1/w) vertex.
        let mut a = ShadedVertex::at(Vec4::new(-0.5, 0.0, 0.0, 1.0));
        let mut b = ShadedVertex::at(Vec4::new(2.0, 0.0, 0.0, 4.0)); // ndc x=0.5
        let c = ShadedVertex::at(Vec4::new(0.0, 1.0, 0.0, 1.0));
        a.varyings[0] = Vec4::splat(0.0);
        b.varyings[0] = Vec4::splat(1.0);
        let s = TriangleSetup::new(&[a, b, c], &vp()).unwrap();
        // Halfway along the a-b edge in *screen* space (NDC y=0 is pixel
        // row 50 in y-down screen coordinates; sample just inside).
        let v = s.varying_at(50, 49, 0);
        assert!(v.x < 0.45, "perspective correction missing: {}", v.x);
        assert!(v.x > 0.05);
    }

    #[test]
    fn barycentric_sums_to_one() {
        let s = TriangleSetup::new(&ccw_tri(), &vp()).unwrap();
        let w = s.barycentric(50.0, 50.0);
        assert!((w[0] + w[1] + w[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn varyings_at_matches_varying_at() {
        let mut tri = ccw_tri();
        tri[0].varyings[2] = Vec4::new(1.0, 2.0, 3.0, 4.0);
        tri[1].varyings[2] = Vec4::new(5.0, 6.0, 7.0, 8.0);
        let s = TriangleSetup::new(&tri, &vp()).unwrap();
        let all = s.varyings_at(50, 45);
        let one = s.varying_at(50, 45, 2);
        assert!((all[2] - one).dot(all[2] - one) < 1e-9);
    }

    #[test]
    fn pixel_bounds_clamped() {
        let s = TriangleSetup::new(&ccw_tri(), &vp()).unwrap();
        let (x0, y0, x1, y1) = s.pixel_bounds(&vp()).unwrap();
        assert!(x0 >= 24 && x1 <= 76, "{x0}..{x1}");
        assert!(y0 < y1 && y1 <= 76, "{y0}..{y1}");
        // Off-screen triangle.
        let t = [vert(5.0, 5.0, 0.0), vert(6.0, 5.0, 0.0), vert(5.0, 6.0, 0.0)];
        let far = TriangleSetup::new(&t, &vp()).unwrap();
        assert!(far.pixel_bounds(&vp()).is_none());
    }
}
