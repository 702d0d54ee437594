//! Property tests for the memory subsystem.

use gwc_mem::compress::{classify_color_block, classify_z_block, BlockState};
use gwc_mem::{AccessKind, Cache, CacheConfig, CacheStats, LineState, MemClient, MemoryController};
use proptest::prelude::*;

/// A deliberately naive LRU cache: a `Vec` of lines, a linear tag scan per
/// access, and as victim the first way with the smallest stamp (invalid
/// ways count as 0). [`Cache`] must agree with it access for access.
struct NaiveCache {
    config: CacheConfig,
    lines: Vec<LineState>,
    clock: u64,
    stats: CacheStats,
}

impl NaiveCache {
    fn new(config: CacheConfig) -> Self {
        NaiveCache {
            config,
            lines: vec![LineState::default(); config.ways * config.sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Returns the hit flag and the evicted dirty line's byte address.
    fn access(&mut self, addr: u64, kind: AccessKind) -> (bool, Option<u64>) {
        let (ways, sets) = (self.config.ways, self.config.sets as u64);
        self.clock += 1;
        self.stats.accesses += 1;
        let line_addr = addr / self.config.line_size;
        let set = (line_addr % sets) as usize;
        let tag = line_addr / sets;
        let lines = &mut self.lines[set * ways..(set + 1) * ways];
        for line in lines.iter_mut() {
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                line.dirty |= kind == AccessKind::Write;
                self.stats.hits += 1;
                return (true, None);
            }
        }
        let age = |l: &LineState| if l.valid { l.stamp } else { 0 };
        let mut victim = 0;
        for way in 1..ways {
            if age(&lines[way]) < age(&lines[victim]) {
                victim = way;
            }
        }
        let old = lines[victim];
        let mut evicted = None;
        if old.valid && old.dirty {
            self.stats.writebacks += 1;
            evicted = Some((old.tag * sets + set as u64) * self.config.line_size);
        }
        lines[victim] =
            LineState { tag, valid: true, dirty: kind == AccessKind::Write, stamp: self.clock };
        self.stats.fills += 1;
        (false, evicted)
    }

    fn flush_collect(&mut self) -> Vec<u64> {
        let (ways, sets) = (self.config.ways, self.config.sets as u64);
        let mut dirty = Vec::new();
        for (i, line) in self.lines.iter_mut().enumerate() {
            if line.valid && line.dirty {
                self.stats.writebacks += 1;
                dirty.push((line.tag * sets + (i / ways) as u64) * self.config.line_size);
            }
            *line = LineState::default();
        }
        dirty
    }

    fn invalidate(&mut self) {
        self.lines.fill(LineState::default());
    }
}

proptest! {
    /// A cache never reports more hits than accesses, and fills equal misses.
    #[test]
    fn cache_invariants(addrs in prop::collection::vec(0u64..1_000_000, 1..500),
                        ways in 1usize..8, sets in 1usize..8) {
        let mut c = Cache::new(CacheConfig { ways, sets, line_size: 64 });
        for (i, &a) in addrs.iter().enumerate() {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            c.access(a, kind);
        }
        let s = *c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.hits <= s.accesses);
        prop_assert_eq!(s.fills, s.misses());
        prop_assert!(s.writebacks <= s.fills);
    }

    /// `Cache` agrees with the naive LRU model on every access (hit flag and
    /// evicted dirty line) and in its final statistics and snapshot, across
    /// set counts that are and are not powers of two, with flushes,
    /// invalidations and a snapshot → restore in the middle.
    #[test]
    fn cache_matches_naive_lru(
        ways in 1usize..65,
        sets in 1usize..18,
        line_shift in 4u32..9,
        ops in prop::collection::vec((0u32..100, any::<u64>()), 1..600),
    ) {
        let config = CacheConfig { ways, sets, line_size: 1 << line_shift };
        let mut cache = Cache::new(config);
        let mut model = NaiveCache::new(config);
        // Most addresses fall in twice the capacity, so sets fill, hit and
        // evict; one in eight spans the whole address space.
        let span = 2 * config.capacity();
        for (i, &(op, raw)) in ops.iter().enumerate() {
            if i == ops.len() / 2 {
                let (lines, clock, stats) = cache.snapshot();
                let restored = Cache::restore(config, &lines, clock, stats).unwrap();
                prop_assert!(restored == cache, "restore differs from the original");
                cache = restored;
            }
            let addr = if raw % 8 == 0 { raw } else { raw % span };
            match op {
                0..=89 => {
                    let kind = if op < 45 { AccessKind::Read } else { AccessKind::Write };
                    let got = cache.access_detailed(addr, kind);
                    let (hit, evicted) = model.access(addr, kind);
                    prop_assert_eq!(got.hit, hit, "access {} ({:?} {:#x})", i, kind, addr);
                    prop_assert_eq!(got.evicted_dirty_line, evicted, "access {}", i);
                }
                90..=94 => prop_assert_eq!(cache.flush_collect(), model.flush_collect()),
                _ => {
                    cache.invalidate();
                    model.invalidate();
                }
            }
        }
        prop_assert_eq!(*cache.stats(), model.stats);
        prop_assert_eq!(cache.snapshot(), (model.lines.clone(), model.clock, model.stats));
    }

    /// Repeating the same address after a warm-up access always hits.
    #[test]
    fn cache_temporal_locality(addr in 0u64..1_000_000, reps in 1usize..50) {
        let mut c = Cache::new(CacheConfig::TEXTURE_L1);
        c.access(addr, AccessKind::Read);
        for _ in 0..reps {
            prop_assert!(c.access(addr, AccessKind::Read));
        }
    }

    /// A bigger cache (more ways) never has a lower hit count on the same
    /// trace when sets and line size are fixed (LRU inclusion property).
    #[test]
    fn lru_inclusion(addrs in prop::collection::vec(0u64..4096, 1..300)) {
        let mut small = Cache::new(CacheConfig { ways: 2, sets: 1, line_size: 64 });
        let mut big = Cache::new(CacheConfig { ways: 8, sets: 1, line_size: 64 });
        for &a in &addrs {
            small.access(a, AccessKind::Read);
            big.access(a, AccessKind::Read);
        }
        prop_assert!(big.stats().hits >= small.stats().hits);
    }

    /// Planar depth blocks always compress.
    #[test]
    fn planar_z_always_compresses(z0 in 0.2f32..0.8, dzdx in -0.001f32..0.001, dzdy in -0.001f32..0.001) {
        // Gradients are small enough that no value leaves [0, 1], so the
        // block is exactly planar.
        let block: Vec<f32> = (0..64).map(|i| {
            let (x, y) = (i % 8, i / 8);
            z0 + dzdx * x as f32 + dzdy * y as f32
        }).collect();
        let s = classify_z_block(&block);
        prop_assert!(s != BlockState::Uncompressed, "planar block classified raw");
    }

    /// Color blocks: uniform iff compressed.
    #[test]
    fn color_block_uniform_iff_compressed(colors in prop::collection::vec(any::<u32>(), 64)) {
        let uniform = colors.iter().all(|&c| c == colors[0]);
        let s = classify_color_block(&colors);
        prop_assert_eq!(s == BlockState::Compressed25, uniform);
    }

    /// Controller: total equals sum of parts; shares sum to 1 when nonzero.
    #[test]
    fn controller_conservation(ops in prop::collection::vec((0usize..6, 0u64..10_000, any::<bool>()), 1..200)) {
        let mut mc = MemoryController::new();
        let mut expect_read = 0u64;
        let mut expect_write = 0u64;
        for (ci, bytes, is_read) in ops {
            let client = MemClient::ALL[ci];
            if is_read {
                mc.read(client, bytes);
                expect_read += bytes;
            } else {
                mc.write(client, bytes);
                expect_write += bytes;
            }
        }
        let f = mc.end_frame();
        prop_assert_eq!(f.total_read(), expect_read);
        prop_assert_eq!(f.total_written(), expect_write);
        if f.total() > 0 {
            let sum: f64 = MemClient::ALL.iter().map(|&c| f.share(c)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
