//! Set-associative write-back cache model.

/// Whether an access reads or writes the cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read access: a miss fetches the line from memory.
    Read,
    /// Write access: write-allocate; a miss fetches the line, the line
    /// becomes dirty and is written back on eviction.
    Write,
}

/// Geometry of a [`Cache`].
///
/// Table XIV of the paper describes the ATTILA caches in `ways × line-size`
/// or `ways × sets × line-size` form; both are expressible here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of ways per set.
    pub ways: usize,
    /// Number of sets (1 = fully associative over `ways` lines).
    pub sets: usize,
    /// Line size in bytes (must be a power of two).
    pub line_size: u64,
}

impl CacheConfig {
    /// The Z & stencil cache of Table XIV: 16 KB, 64 ways × 256 B.
    pub const Z_STENCIL: CacheConfig = CacheConfig { ways: 64, sets: 1, line_size: 256 };
    /// The texture L0 cache of Table XIV: 4 KB, 64 ways × 64 B.
    pub const TEXTURE_L0: CacheConfig = CacheConfig { ways: 64, sets: 1, line_size: 64 };
    /// The texture L1 cache of Table XIV: 16 KB, 16 ways × 16 sets × 64 B.
    pub const TEXTURE_L1: CacheConfig = CacheConfig { ways: 16, sets: 16, line_size: 64 };
    /// The color cache of Table XIV: 16 KB, 64 ways × 256 B.
    pub const COLOR: CacheConfig = CacheConfig { ways: 64, sets: 1, line_size: 256 };

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.ways as u64 * self.sets as u64 * self.line_size
    }
}

/// Hit/miss/writeback counts accumulated by a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Lines fetched from memory (read misses + write-allocate misses).
    pub fills: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0.0` when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Adds another cache's counts into this one (associative and
    /// commutative; used to aggregate per-stripe cache instances).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.fills += other.fills;
        self.writebacks += other.writebacks;
    }
}

/// The result of [`Cache::access_detailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Byte address of the dirty line evicted by this access, if any.
    pub evicted_dirty_line: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp (larger = more recent).
    stamp: u64,
}

/// Externally-visible state of one cache line (checkpoint support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineState {
    /// The line's tag (meaningless when not valid).
    pub tag: u64,
    /// Whether the line holds data.
    pub valid: bool,
    /// Whether the line must be written back on eviction.
    pub dirty: bool,
    /// LRU timestamp (larger = more recent).
    pub stamp: u64,
}

const EMPTY_LINE: Line = Line { tag: 0, valid: false, dirty: false, stamp: 0 };

/// A set-associative, write-allocate, write-back cache with LRU replacement.
///
/// The cache models tags only — data payloads live elsewhere in the
/// simulator. Each access classifies as hit or miss, misses count a line
/// fill, and dirty evictions count a writeback; the pipeline turns fills
/// and writebacks into memory-controller traffic.
///
/// ```
/// use gwc_mem::{AccessKind, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::Z_STENCIL);
/// assert!(!c.access(0x1000, AccessKind::Read)); // cold miss
/// assert!(c.access(0x1010, AccessKind::Read));  // same 256-byte line
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
    /// Per-set tag → way index, so highly-associative caches (the 64-way
    /// framebuffer caches see hundreds of millions of accesses per run)
    /// resolve hits in O(1) instead of scanning every way.
    index: Vec<std::collections::HashMap<u64, usize>>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or any dimension is 0.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(config.ways > 0 && config.sets > 0, "cache must have ways and sets");
        Cache {
            config,
            lines: vec![EMPTY_LINE; config.ways * config.sets],
            clock: 0,
            stats: CacheStats::default(),
            index: vec![std::collections::HashMap::new(); config.sets],
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. at a frame boundary) without flushing lines.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses the line containing `addr`. Returns `true` on hit.
    ///
    /// On a miss the line is filled (counted in [`CacheStats::fills`]) and
    /// the evicted line, if dirty, is counted in [`CacheStats::writebacks`].
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.access_detailed(addr, kind).hit
    }

    /// Like [`Cache::access`], but also reports the byte address of the
    /// dirty line evicted by a miss (when any), so the caller can account
    /// for the writeback's actual (possibly compressed) size.
    pub fn access_detailed(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let line_addr = addr / self.config.line_size;
        let set = (line_addr % self.config.sets as u64) as usize;
        let tag = line_addr / self.config.sets as u64;
        let base = set * self.config.ways;

        if let Some(&way) = self.index[set].get(&tag) {
            let line = &mut self.lines[base + way];
            debug_assert!(line.valid && line.tag == tag);
            line.stamp = self.clock;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome { hit: true, evicted_dirty_line: None };
        }

        // Miss: evict LRU.
        let set_lines = &mut self.lines[base..base + self.config.ways];
        let (victim_way, victim) = set_lines
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.stamp } else { 0 })
            .expect("ways > 0");
        let mut evicted = None;
        if victim.valid {
            self.index[set].remove(&victim.tag);
            if victim.dirty {
                self.stats.writebacks += 1;
                let line_addr = (victim.tag * self.config.sets as u64 + set as u64)
                    * self.config.line_size;
                evicted = Some(line_addr);
            }
        }
        *victim = Line { tag, valid: true, dirty: kind == AccessKind::Write, stamp: self.clock };
        self.index[set].insert(tag, victim_way);
        self.stats.fills += 1;
        AccessOutcome { hit: false, evicted_dirty_line: evicted }
    }

    /// Flushes all dirty lines (counting writebacks) and invalidates the
    /// cache. Called at frame boundaries for the color/Z caches.
    pub fn flush(&mut self) {
        let _ = self.flush_collect();
    }

    /// Flushes like [`Cache::flush`] and returns the byte addresses of the
    /// dirty lines written back, so the caller can size each writeback.
    pub fn flush_collect(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        let sets = self.config.sets as u64;
        let line_size = self.config.line_size;
        for (i, line) in self.lines.iter_mut().enumerate() {
            if line.valid && line.dirty {
                self.stats.writebacks += 1;
                let set = (i / self.config.ways) as u64;
                dirty.push((line.tag * sets + set) * line_size);
            }
            *line = EMPTY_LINE;
        }
        for map in &mut self.index {
            map.clear();
        }
        dirty
    }

    /// Invalidates all lines *without* writing back (used after a fast
    /// clear, which rewrites the surface wholesale).
    pub fn invalidate(&mut self) {
        for line in &mut self.lines {
            *line = EMPTY_LINE;
        }
        for map in &mut self.index {
            map.clear();
        }
    }

    /// The complete architectural state — every line, the LRU clock, and
    /// the statistics — for checkpointing.
    pub fn snapshot(&self) -> (Vec<LineState>, u64, CacheStats) {
        let lines = self
            .lines
            .iter()
            .map(|l| LineState { tag: l.tag, valid: l.valid, dirty: l.dirty, stamp: l.stamp })
            .collect();
        (lines, self.clock, self.stats)
    }

    /// Rebuilds a cache from a [`Cache::snapshot`]; the restored cache
    /// behaves identically to the original from this point on.
    ///
    /// # Panics
    ///
    /// Panics if `lines` does not match the geometry (`ways * sets`).
    pub fn restore(config: CacheConfig, lines: &[LineState], clock: u64, stats: CacheStats) -> Self {
        assert_eq!(lines.len(), config.ways * config.sets, "line count mismatch");
        let mut c = Cache::new(config);
        c.clock = clock;
        c.stats = stats;
        for (i, l) in lines.iter().enumerate() {
            c.lines[i] = Line { tag: l.tag, valid: l.valid, dirty: l.dirty, stamp: l.stamp };
            if l.valid {
                let set = i / config.ways;
                let way = i % config.ways;
                c.index[set].insert(l.tag, way);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_paper_configs() {
        assert_eq!(CacheConfig::Z_STENCIL.capacity(), 16 * 1024);
        assert_eq!(CacheConfig::TEXTURE_L0.capacity(), 4 * 1024);
        assert_eq!(CacheConfig::TEXTURE_L1.capacity(), 16 * 1024);
        assert_eq!(CacheConfig::COLOR.capacity(), 16 * 1024);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig { ways: 2, sets: 2, line_size: 64 });
        assert!(!c.access(0, AccessKind::Read));
        assert!(c.access(63, AccessKind::Read));
        assert!(!c.access(64, AccessKind::Read)); // next line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().fills, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Fully associative, 2 lines.
        let mut c = Cache::new(CacheConfig { ways: 2, sets: 1, line_size: 64 });
        c.access(0, AccessKind::Read); // A
        c.access(64, AccessKind::Read); // B
        c.access(0, AccessKind::Read); // touch A
        c.access(128, AccessKind::Read); // C evicts B
        assert!(c.access(0, AccessKind::Read), "A should still be resident");
        assert!(!c.access(64, AccessKind::Read), "B should have been evicted");
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = Cache::new(CacheConfig { ways: 1, sets: 1, line_size: 64 });
        c.access(0, AccessKind::Write);
        assert_eq!(c.stats().writebacks, 0);
        c.access(64, AccessKind::Read); // evicts dirty line
        assert_eq!(c.stats().writebacks, 1);
        c.access(128, AccessKind::Read); // evicts clean line
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_writes_back_dirty_lines() {
        let mut c = Cache::new(CacheConfig { ways: 4, sets: 1, line_size: 64 });
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Write);
        c.access(128, AccessKind::Read);
        c.flush();
        assert_eq!(c.stats().writebacks, 2);
        // Everything is cold again.
        assert!(!c.access(0, AccessKind::Read));
    }

    #[test]
    fn invalidate_discards_dirty_data() {
        let mut c = Cache::new(CacheConfig { ways: 4, sets: 1, line_size: 64 });
        c.access(0, AccessKind::Write);
        c.invalidate();
        assert_eq!(c.stats().writebacks, 0);
        assert!(!c.access(0, AccessKind::Read));
    }

    #[test]
    fn set_mapping_separates_conflicts() {
        // 2 sets: line addresses alternate sets, so four distinct lines in
        // a 1-way cache only conflict within their own set.
        let mut c = Cache::new(CacheConfig { ways: 1, sets: 2, line_size: 64 });
        c.access(0, AccessKind::Read); // set 0
        c.access(64, AccessKind::Read); // set 1
        assert!(c.access(0, AccessKind::Read));
        assert!(c.access(64, AccessKind::Read));
        c.access(128, AccessKind::Read); // set 0, evicts line 0
        assert!(!c.access(0, AccessKind::Read));
        assert!(c.access(64, AccessKind::Read), "set 1 undisturbed");
    }

    #[test]
    fn hit_rate_reporting() {
        let mut c = Cache::new(CacheConfig { ways: 4, sets: 1, line_size: 64 });
        for _ in 0..9 {
            c.access(0, AccessKind::Read);
        }
        assert!((c.stats().hit_rate() - 8.0 / 9.0).abs() < 1e-12);
        assert_eq!(c.stats().misses(), 1);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn detailed_access_reports_evicted_address() {
        let mut c = Cache::new(CacheConfig { ways: 1, sets: 2, line_size: 64 });
        c.access(128, AccessKind::Write); // set 0 (line addr 2)
        let out = c.access_detailed(256, AccessKind::Read); // set 0 (line addr 4)
        assert!(!out.hit);
        assert_eq!(out.evicted_dirty_line, Some(128));
        // Clean eviction reports nothing.
        let out = c.access_detailed(384, AccessKind::Read); // set 0 again
        assert_eq!(out.evicted_dirty_line, None);
    }

    #[test]
    fn flush_collect_returns_dirty_addresses() {
        let mut c = Cache::new(CacheConfig { ways: 4, sets: 2, line_size: 64 });
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Read);
        c.access(192, AccessKind::Write);
        let mut dirty = c.flush_collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 192]);
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn sequential_scan_hit_rate_matches_line_size() {
        // Streaming 4-byte reads over a big range: hit rate = 1 - 4/line.
        let mut c = Cache::new(CacheConfig { ways: 16, sets: 16, line_size: 64 });
        let n = 64 * 1024u64;
        for i in 0..n {
            c.access(i * 4, AccessKind::Read);
        }
        let expected = 1.0 - 4.0 / 64.0;
        assert!((c.stats().hit_rate() - expected).abs() < 0.01);
    }
}
