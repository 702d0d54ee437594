//! Per-chunk geometry counter shards.
//!
//! The parallel geometry front-end splits a draw's vertex shading and
//! triangle setup into fixed-size chunks and counts work per chunk. The
//! shards are reduced in fixed chunk order, so the only algebra the
//! pipeline needs from them is an exact, associative, commutative merge
//! with [`GeomShard::default`] as the identity — the same contract
//! [`crate::BandwidthCounter`] honors for memory traffic. Everything is
//! an integral count; no chunk size or thread count can perturb a sum.

/// Applies a macro to every counter field of [`GeomShard`].
///
/// Single authoritative field list: merge, totals and tests all expand
/// from it, so adding a counter cannot silently miss the merge law.
#[macro_export]
macro_rules! with_geom_fields {
    ($m:ident) => {
        $m!(
            indices,
            vcache_hits,
            fetched_vertices,
            shaded_vertices,
            vs_instructions,
            vertex_bytes,
            assembled,
            clipped,
            culled,
            setup
        );
    };
}

macro_rules! define_shard {
    ($($field:ident),+ $(,)?) => {
        /// Exact geometry-stage counters for one chunk of a draw call.
        ///
        /// `indices`/`vcache_hits` come from the serial post-transform
        /// cache walk, `fetched_*`/`shaded_*`/`vs_instructions`/
        /// `vertex_bytes` from the chunked vertex-shade phase, and
        /// `assembled`/`clipped`/`culled`/`setup` from the chunked
        /// clip/cull/triangle-setup phase.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct GeomShard {
            $(
                #[allow(missing_docs)]
                pub $field: u64,
            )+
        }

        impl GeomShard {
            /// Adds another shard's counts into this one. Associative and
            /// commutative with `GeomShard::default()` as identity, so a
            /// fixed-order chunk reduction is bit-identical to a serial
            /// accumulation regardless of how work was chunked.
            pub fn merge(&mut self, other: &GeomShard) {
                $(self.$field += other.$field;)+
            }

            /// Sum of every counter — a cheap "did any work happen" probe.
            pub fn total(&self) -> u64 {
                0 $(+ self.$field)+
            }
        }
    };
}

with_geom_fields!(define_shard);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> GeomShard {
        let mut s = GeomShard::default();
        let mut x = seed;
        macro_rules! fill {
            ($($field:ident),+ $(,)?) => {
                $(
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    s.$field = x >> 33;
                )+
            };
        }
        with_geom_fields!(fill);
        let _ = x;
        s
    }

    #[test]
    fn identity_and_associativity() {
        let (a, b, c) = (sample(1), sample(2), sample(3));

        let mut id = GeomShard::default();
        id.merge(&a);
        assert_eq!(id, a);

        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn chunk_order_is_irrelevant() {
        let shards: Vec<GeomShard> = (0..7).map(sample).collect();
        let mut fwd = GeomShard::default();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = GeomShard::default();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, rev);
        assert!(fwd.total() > 0);
    }
}
