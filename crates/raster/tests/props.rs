//! Property tests: rasterization invariants.

use gwc_math::Vec4;
use gwc_raster::{clip_near, rasterize, ClipResult, RasterStats, ShadedVertex, TriangleSetup,
                 Viewport};
use proptest::prelude::*;

fn vert(x: f32, y: f32, z: f32) -> ShadedVertex {
    ShadedVertex::at(Vec4::new(x, y, z, 1.0))
}

fn ndc() -> impl Strategy<Value = f32> {
    (-1.2f32..1.2).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tiled traversal visits exactly the pixels the coverage test
    /// accepts — no duplicates, no misses.
    #[test]
    fn traversal_matches_brute_force(
        ax in ndc(), ay in ndc(), bx in ndc(), by in ndc(), cx in ndc(), cy in ndc(),
    ) {
        let vp = Viewport::new(64, 64);
        let tri = [vert(ax, ay, 0.5), vert(bx, by, 0.5), vert(cx, cy, 0.5)];
        let Some(setup) = TriangleSetup::new(&tri, &vp) else { return Ok(()); };
        let mut seen = std::collections::HashSet::new();
        let mut stats = RasterStats::default();
        rasterize(&setup, &vp, &mut stats, &mut |q| {
            for lane in 0..4 {
                if q.coverage[lane] {
                    assert!(seen.insert(q.lane_pos(lane)), "duplicate {:?}", q.lane_pos(lane));
                }
            }
        });
        let mut brute = 0u64;
        for y in 0..64 {
            for x in 0..64 {
                if setup.covers(x, y) {
                    brute += 1;
                    prop_assert!(seen.contains(&(x, y)), "missed pixel ({x},{y})");
                }
            }
        }
        prop_assert_eq!(stats.fragments, brute);
        prop_assert_eq!(seen.len() as u64, brute);
    }

    /// Adjacent triangles sharing an edge cover each interior pixel exactly
    /// once (the fill-convention property).
    #[test]
    fn shared_edges_watertight(
        ax in ndc(), ay in ndc(), bx in ndc(), by in ndc(),
        cx in ndc(), cy in ndc(), dx in ndc(), dy in ndc(),
    ) {
        let vp = Viewport::new(48, 48);
        // Quadrilateral a-b-c-d split along a-c.
        let t0 = [vert(ax, ay, 0.5), vert(bx, by, 0.5), vert(cx, cy, 0.5)];
        let t1 = [vert(ax, ay, 0.5), vert(cx, cy, 0.5), vert(dx, dy, 0.5)];
        let s0 = TriangleSetup::new(&t0, &vp);
        let s1 = TriangleSetup::new(&t1, &vp);
        let (Some(s0), Some(s1)) = (s0, s1) else { return Ok(()); };
        // Only meaningful when the two triangles wind the same way
        // (a convex, non-self-intersecting quad).
        prop_assume!(s0.is_front_facing(gwc_raster::FrontFace::Ccw)
            == s1.is_front_facing(gwc_raster::FrontFace::Ccw));
        for y in 0..48 {
            for x in 0..48 {
                let n = s0.covers(x, y) as u32 + s1.covers(x, y) as u32;
                prop_assert!(n <= 1, "({x},{y}) covered {n} times");
            }
        }
    }

    /// Clipping never outputs a vertex behind the near plane, and the
    /// result count is bounded.
    #[test]
    fn near_clip_output_valid(
        ax in ndc(), ay in ndc(), az in -3.0f32..1.0,
        bx in ndc(), by in ndc(), bz in -3.0f32..1.0,
        cx in ndc(), cy in ndc(), cz in -3.0f32..1.0,
    ) {
        let tri = [vert(ax, ay, az), vert(bx, by, bz), vert(cx, cy, cz)];
        match clip_near(&tri) {
            ClipResult::Rejected | ClipResult::Accepted => {}
            ClipResult::Clipped(ts) => {
                prop_assert!(ts.len() <= 2);
                for t in &ts {
                    for v in t {
                        prop_assert!(v.clip.z + v.clip.w >= -1e-3,
                            "vertex behind near plane: {:?}", v.clip);
                    }
                }
            }
        }
    }

    /// A triangle with a vertex strictly inside the clip volume is never
    /// trivially rejected, however far out its other two vertices lie.
    #[test]
    fn clip_never_rejects_contained_vertex(
        ax in -0.9f32..0.9, ay in -0.9f32..0.9, az in -0.9f32..0.9,
        bx in -5.0f32..5.0, by in -5.0f32..5.0, bz in -5.0f32..5.0,
        cx in -5.0f32..5.0, cy in -5.0f32..5.0, cz in -5.0f32..5.0,
    ) {
        let tri = [vert(ax, ay, az), vert(bx, by, bz), vert(cx, cy, cz)];
        prop_assert!(clip_near(&tri) != ClipResult::Rejected);
    }

    /// Interpolated depth at covered pixels stays within the vertex depth
    /// range (after the depth-range mapping).
    #[test]
    fn depth_within_vertex_range(
        ax in ndc(), ay in ndc(), bx in ndc(), by in ndc(), cx in ndc(), cy in ndc(),
        az in -1.0f32..1.0, bz in -1.0f32..1.0, cz in -1.0f32..1.0,
    ) {
        let vp = Viewport::new(32, 32);
        let tri = [vert(ax, ay, az), vert(bx, by, bz), vert(cx, cy, cz)];
        let Some(setup) = TriangleSetup::new(&tri, &vp) else { return Ok(()); };
        let zs = [(az + 1.0) * 0.5, (bz + 1.0) * 0.5, (cz + 1.0) * 0.5];
        let lo = zs.iter().cloned().fold(f32::INFINITY, f32::min) - 0.05;
        let hi = zs.iter().cloned().fold(f32::NEG_INFINITY, f32::max) + 0.05;
        for y in 0..32 {
            for x in 0..32 {
                if setup.covers(x, y) {
                    let d = setup.depth_at(x, y);
                    prop_assert!(d >= lo && d <= hi, "depth {d} outside [{lo},{hi}]");
                }
            }
        }
    }
}
