//! Axis-aligned bounding boxes.

use crate::Vec3;

/// An axis-aligned bounding box, stored as min/max corners.
///
/// An *empty* box (the [`Default`] / [`Aabb::EMPTY`] value) has
/// `min > max` in every axis and absorbs nothing when intersected,
/// everything when unioned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::EMPTY
    }
}

impl Aabb {
    /// The empty box: unioning it with any point yields that point's box.
    pub const EMPTY: Aabb = Aabb {
        min: Vec3 { x: f32::INFINITY, y: f32::INFINITY, z: f32::INFINITY },
        max: Vec3 { x: f32::NEG_INFINITY, y: f32::NEG_INFINITY, z: f32::NEG_INFINITY },
    };

    /// Creates a box from corners. The corners are sorted per-axis, so the
    /// arguments need not be ordered.
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb { min: a.min(b), max: a.max(b) }
    }

    /// Builds the bounding box of an iterator of points.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in points {
            b.expand(p);
        }
        b
    }

    /// Returns `true` for the empty box.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Grows the box to contain `p`.
    #[inline]
    pub fn expand(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Union of two boxes.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Center point.
    ///
    /// Meaningless for an empty box (returns NaN components).
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extent (`max - min`).
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Whether the point lies inside or on the boundary.
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The eight corner points (undefined content for empty boxes).
    pub fn corners(&self) -> [Vec3; 8] {
        let (mn, mx) = (self.min, self.max);
        [
            Vec3::new(mn.x, mn.y, mn.z),
            Vec3::new(mx.x, mn.y, mn.z),
            Vec3::new(mn.x, mx.y, mn.z),
            Vec3::new(mx.x, mx.y, mn.z),
            Vec3::new(mn.x, mn.y, mx.z),
            Vec3::new(mx.x, mn.y, mx.z),
            Vec3::new(mn.x, mx.y, mx.z),
            Vec3::new(mx.x, mx.y, mx.z),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_absorbs_points() {
        let mut b = Aabb::EMPTY;
        assert!(b.is_empty());
        b.expand(Vec3::new(1.0, 2.0, 3.0));
        assert!(!b.is_empty());
        assert_eq!(b.min, b.max);
    }

    #[test]
    fn new_sorts_corners() {
        let b = Aabb::new(Vec3::new(1.0, -1.0, 5.0), Vec3::new(-1.0, 1.0, 0.0));
        assert_eq!(b.min, Vec3::new(-1.0, -1.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 5.0));
    }

    #[test]
    fn contains_boundary() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::ONE));
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(!b.contains(Vec3::new(1.1, 0.5, 0.5)));
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [
            Vec3::new(1.0, 5.0, -3.0),
            Vec3::new(-2.0, 0.0, 4.0),
            Vec3::new(0.0, 1.0, 0.0),
        ];
        let b = Aabb::from_points(pts);
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Vec3::new(-2.0, 0.0, -3.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 4.0));
    }

    #[test]
    fn union_covers_both() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&b);
        assert!(u.contains(Vec3::ZERO));
        assert!(u.contains(Vec3::splat(3.0)));
    }

    #[test]
    fn corners_are_contained() {
        let b = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(4.0, 2.0, 6.0));
        for c in b.corners() {
            assert!(b.contains(c));
        }
    }
}
