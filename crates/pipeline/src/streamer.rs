//! A payload-carrying post-transform vertex cache, compiled for tests
//! only: the naive reference that the tag-only FIFO of `geometry::plan`
//! is diffed against.

use gwc_raster::ShadedVertex;

/// The post-transform vertex cache.
///
/// Section III.B of the paper explains why games use triangle lists: the
/// post-transform cache re-uses already-shaded vertices whenever two
/// references to the same index are close in time, making an indexed list
/// behave like a strip (the theoretical 66% hit rate for adjacent
/// triangles, Figure 5).
///
/// Modelled as a FIFO of `entries` slots tagged by vertex index, matching
/// the FIFO replacement of real post-T caches.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexCache {
    entries: Vec<(u32, ShadedVertex)>,
    capacity: usize,
    next_evict: usize,
    hits: u64,
    lookups: u64,
}

impl VertexCache {
    /// Creates a cache with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "vertex cache needs at least one entry");
        VertexCache { entries: Vec::with_capacity(capacity), capacity, next_evict: 0, hits: 0, lookups: 0 }
    }

    /// Looks up a vertex by index; returns the cached shaded vertex on hit.
    pub fn lookup(&mut self, index: u32) -> Option<ShadedVertex> {
        self.lookups += 1;
        let hit = self.entries.iter().find(|(i, _)| *i == index).map(|(_, v)| *v);
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Inserts a freshly shaded vertex (FIFO replacement).
    pub fn insert(&mut self, index: u32, vertex: ShadedVertex) {
        if self.entries.len() < self.capacity {
            self.entries.push((index, vertex));
        } else {
            self.entries[self.next_evict] = (index, vertex);
            self.next_evict = (self.next_evict + 1) % self.capacity;
        }
    }

    /// Invalidates all entries.
    pub fn invalidate(&mut self) {
        self.entries.clear();
        self.next_evict = 0;
    }

    /// Lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_math::Vec4;

    fn v(i: u32) -> ShadedVertex {
        ShadedVertex::at(Vec4::new(i as f32, 0.0, 0.0, 1.0))
    }

    #[test]
    fn hit_after_insert() {
        let mut c = VertexCache::new(4);
        assert!(c.lookup(7).is_none());
        c.insert(7, v(7));
        let got = c.lookup(7).expect("hit");
        assert_eq!(got.clip.x, 7.0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.lookups(), 2);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut c = VertexCache::new(2);
        c.insert(0, v(0));
        c.insert(1, v(1));
        c.insert(2, v(2)); // evicts 0 (FIFO)
        assert!(c.lookup(0).is_none());
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(2).is_some());
        c.insert(3, v(3)); // evicts 1
        assert!(c.lookup(1).is_none());
        assert!(c.lookup(2).is_some());
    }

    #[test]
    fn strip_ordered_list_hits_two_thirds() {
        // A triangle list emitting strip-order triangles: (0,1,2), (1,2,3)…
        // With a 16-entry cache, 2 of every 3 indices hit.
        let mut c = VertexCache::new(16);
        let mut shaded = 0u64;
        for t in 0..1000u32 {
            for i in [t, t + 1, t + 2] {
                if c.lookup(i).is_none() {
                    c.insert(i, v(i));
                    shaded += 1;
                }
            }
        }
        let hit_rate = c.hit_rate();
        assert!((hit_rate - 2.0 / 3.0).abs() < 0.01, "hit rate = {hit_rate}");
        assert!(shaded < 1010);
    }

    #[test]
    fn random_indices_mostly_miss() {
        let mut c = VertexCache::new(16);
        let mut x = 12345u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (x >> 33) as u32 % 100_000;
            if c.lookup(idx).is_none() {
                c.insert(idx, v(idx));
            }
        }
        assert!(c.hit_rate() < 0.05, "hit rate = {}", c.hit_rate());
    }

    #[test]
    fn invalidate_clears() {
        let mut c = VertexCache::new(4);
        c.insert(1, v(1));
        c.invalidate();
        assert!(c.lookup(1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        VertexCache::new(0);
    }
}
