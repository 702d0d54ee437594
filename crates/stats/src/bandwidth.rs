//! Byte-count → bandwidth conversions.
//!
//! The paper reports index and memory traffic as `MB/s` or `GB/s` at an
//! assumed frame rate (`BW @ 100fps` in Tables III and XV). These helpers
//! centralize those conversions and their display formatting.

/// Bytes in a megabyte (the paper uses decimal-ish MB for bandwidth; we use
/// binary MiB consistently, which only shifts absolute numbers by ~5%).
pub const MB: f64 = 1024.0 * 1024.0;

/// Bytes in a gigabyte.
pub const GB: f64 = 1024.0 * MB;

/// Converts bytes-per-frame into bytes-per-second at `fps`.
///
/// ```
/// let bps = gwc_stats::bandwidth::bytes_per_second(1_000_000.0, 100.0);
/// assert_eq!(bps, 100_000_000.0);
/// ```
pub fn bytes_per_second(bytes_per_frame: f64, fps: f64) -> f64 {
    bytes_per_frame * fps
}

/// Converts bytes-per-frame into MB/s at `fps` (Table III's `BW @ 100fps`).
pub fn mb_per_second(bytes_per_frame: f64, fps: f64) -> f64 {
    bytes_per_second(bytes_per_frame, fps) / MB
}

/// Converts bytes-per-frame into GB/s at `fps` (Table XV's `BW @ 100fps`).
pub fn gb_per_second(bytes_per_frame: f64, fps: f64) -> f64 {
    bytes_per_second(bytes_per_frame, fps) / GB
}

/// Formats a byte count with an adaptive unit (`B`, `KB`, `MB`, `GB`).
///
/// ```
/// assert_eq!(gwc_stats::bandwidth::format_bytes(2.5 * 1024.0 * 1024.0), "2.50 MB");
/// ```
pub fn format_bytes(bytes: f64) -> String {
    let abs = bytes.abs();
    if abs >= GB {
        format!("{:.2} GB", bytes / GB)
    } else if abs >= MB {
        format!("{:.2} MB", bytes / MB)
    } else if abs >= 1024.0 {
        format!("{:.2} KB", bytes / 1024.0)
    } else {
        format!("{bytes:.0} B")
    }
}

/// Formats a bytes-per-second rate with an adaptive unit.
pub fn format_rate(bytes_per_sec: f64) -> String {
    format!("{}/s", format_bytes(bytes_per_sec))
}

/// Theoretical bus bandwidth table of the paper's Table VI.
///
/// Returns `(name, width_bits, clock_mhz_effective, bytes_per_second)`.
/// PCI Express entries account for the 10-bits-per-byte 8b/10b encoding the
/// paper footnotes.
pub fn system_bus_table() -> Vec<(&'static str, u32, f64, f64)> {
    let agp = |mult: f64| 32.0 / 8.0 * 66.0e6 * mult;
    let pcie = |lanes: f64| 2.5e9 * lanes / 10.0;
    vec![
        ("AGP 4X", 32, 66.0 * 4.0, agp(4.0)),
        ("AGP 8X", 32, 66.0 * 8.0, agp(8.0)),
        ("PCI Express x4", 1, 2500.0, pcie(4.0)),
        ("PCI Express x8", 1, 2500.0, pcie(8.0)),
        ("PCI Express x16", 1, 2500.0, pcie(16.0)),
    ]
}

/// An exact, mergeable byte-traffic accumulator.
///
/// Counts are integral so that sharded accumulation is bit-identical to
/// single-stream accumulation under any merge order — the invariant the
/// parallel fragment pipeline's per-worker shards rely on. Conversion to
/// floating-point rates happens only at presentation time.
///
/// ```
/// use gwc_stats::BandwidthCounter;
///
/// let mut a = BandwidthCounter::new();
/// a.record(256);
/// let mut b = BandwidthCounter::new();
/// b.record(64);
/// a.merge(&b);
/// assert_eq!(a.bytes(), 320);
/// assert_eq!(a.transactions(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandwidthCounter {
    bytes: u64,
    transactions: u64,
}

impl BandwidthCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        BandwidthCounter::default()
    }

    /// Records one transaction of `bytes` bytes. Zero-byte transactions are
    /// ignored (they move no data and occupy no bus slot).
    pub fn record(&mut self, bytes: u64) {
        if bytes > 0 {
            self.bytes += bytes;
            self.transactions += 1;
        }
    }

    /// Adds another counter's traffic into this one (associative and
    /// commutative).
    pub fn merge(&mut self, other: &BandwidthCounter) {
        self.bytes += other.bytes;
        self.transactions += other.transactions;
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of non-empty transactions recorded.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Mean transaction size in bytes; `0.0` when empty.
    pub fn mean_transaction_bytes(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.bytes as f64 / self.transactions as f64
        }
    }

    /// Traffic as MB/s treating the accumulated bytes as one frame at `fps`.
    pub fn mb_per_second(&self, fps: f64) -> f64 {
        mb_per_second(self.bytes as f64, fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_per_second_at_100fps() {
        // 1 MiB per frame at 100 fps = 100 MiB/s.
        assert!((mb_per_second(MB, 100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn format_units() {
        assert_eq!(format_bytes(512.0), "512 B");
        assert_eq!(format_bytes(2048.0), "2.00 KB");
        assert_eq!(format_bytes(3.0 * GB), "3.00 GB");
        assert_eq!(format_rate(MB), "1.00 MB/s");
    }

    #[test]
    fn counter_merge_is_exact() {
        let mut shard_a = BandwidthCounter::new();
        let mut shard_b = BandwidthCounter::new();
        let mut serial = BandwidthCounter::new();
        for (i, bytes) in [256u64, 64, 0, 192, 256, 0, 64].iter().enumerate() {
            if i % 2 == 0 { shard_a.record(*bytes) } else { shard_b.record(*bytes) }
            serial.record(*bytes);
        }
        shard_a.merge(&shard_b);
        assert_eq!(shard_a, serial);
        assert_eq!(serial.transactions(), 5);
        assert!((serial.mean_transaction_bytes() - 832.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn bus_table_matches_paper() {
        let t = system_bus_table();
        let by_name = |n: &str| t.iter().find(|e| e.0 == n).unwrap().3;
        // AGP 4X ≈ 1.056 GB/s (decimal).
        assert!((by_name("AGP 4X") - 1.056e9).abs() < 1e6);
        assert!((by_name("AGP 8X") - 2.112e9).abs() < 1e6);
        // PCIe x16 = 4 GB/s after 8b/10b.
        assert!((by_name("PCI Express x16") - 4.0e9).abs() < 1e6);
    }
}
