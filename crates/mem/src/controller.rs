//! Per-client memory traffic accounting.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The GPU units that generate memory traffic, matching the stages of the
/// paper's Table XVI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemClient {
    /// Command processor: command fetch and system→GPU transfers.
    CommandProcessor,
    /// Vertex load: index and vertex attribute fetch.
    Vertex,
    /// Z & stencil test stage.
    ZStencil,
    /// Texture sampling.
    Texture,
    /// Color / blend stage.
    Color,
    /// Display scan-out.
    Dac,
}

impl MemClient {
    /// All clients, in Table XVI column order.
    pub const ALL: [MemClient; 6] = [
        MemClient::Vertex,
        MemClient::ZStencil,
        MemClient::Texture,
        MemClient::Color,
        MemClient::Dac,
        MemClient::CommandProcessor,
    ];

    /// Short display name (Table XVI column header).
    pub fn name(self) -> &'static str {
        match self {
            MemClient::CommandProcessor => "CP",
            MemClient::Vertex => "Vertex",
            MemClient::ZStencil => "Z&Stencil",
            MemClient::Texture => "Texture",
            MemClient::Color => "Color",
            MemClient::Dac => "DAC",
        }
    }

    fn index(self) -> usize {
        match self {
            MemClient::Vertex => 0,
            MemClient::ZStencil => 1,
            MemClient::Texture => 2,
            MemClient::Color => 3,
            MemClient::Dac => 4,
            MemClient::CommandProcessor => 5,
        }
    }
}

/// Read/write byte counts for one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientTraffic {
    /// Bytes read from GPU memory.
    pub read: u64,
    /// Bytes written to GPU memory.
    pub written: u64,
}

impl ClientTraffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.read + self.written
    }
}

/// One frame's traffic, broken down by client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameTraffic {
    clients: [ClientTraffic; 6],
}

impl FrameTraffic {
    /// Rebuilds a frame from per-client counts in [`MemClient::ALL`] order
    /// (checkpoint restore).
    pub fn from_parts(clients: [ClientTraffic; 6]) -> Self {
        let mut f = FrameTraffic::default();
        for (c, t) in MemClient::ALL.into_iter().zip(clients) {
            f.clients[c.index()] = t;
        }
        f
    }

    /// Per-client counts in [`MemClient::ALL`] order — the inverse of
    /// [`FrameTraffic::from_parts`], used by checkpointing and telemetry.
    pub fn parts(&self) -> [ClientTraffic; 6] {
        let mut out = [ClientTraffic::default(); 6];
        for (slot, c) in out.iter_mut().zip(MemClient::ALL) {
            *slot = self.clients[c.index()];
        }
        out
    }

    /// Traffic of one client.
    pub fn client(&self, c: MemClient) -> ClientTraffic {
        self.clients[c.index()]
    }

    /// Total bytes read this frame.
    pub fn total_read(&self) -> u64 {
        self.clients.iter().map(|c| c.read).sum()
    }

    /// Total bytes written this frame.
    pub fn total_written(&self) -> u64 {
        self.clients.iter().map(|c| c.written).sum()
    }

    /// Total bytes moved this frame.
    pub fn total(&self) -> u64 {
        self.total_read() + self.total_written()
    }

    /// Fraction of this frame's traffic attributable to `c`
    /// (`0.0` for an idle frame).
    pub fn share(&self, c: MemClient) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.client(c).total() as f64 / total as f64
        }
    }

    /// Merges another frame's traffic into this one (used to accumulate a
    /// whole-run total).
    pub fn merge(&mut self, other: &FrameTraffic) {
        for (a, b) in self.clients.iter_mut().zip(other.clients.iter()) {
            a.read += b.read;
            a.written += b.written;
        }
    }
}

/// The memory controller: the single point every pipeline stage reports its
/// memory transactions to.
///
/// Transactions are recorded in bytes; the controller tracks the current
/// frame and keeps a history of completed frames. The `repro` harness turns
/// the history into Tables XV and XVI.
///
/// ```
/// use gwc_mem::{MemClient, MemoryController};
///
/// let mut mc = MemoryController::new();
/// mc.read(MemClient::Texture, 64);
/// mc.write(MemClient::Color, 256);
/// let frame = mc.end_frame();
/// assert_eq!(frame.total_read(), 64);
/// assert_eq!(frame.total_written(), 256);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryController {
    current: FrameTraffic,
    frames: Vec<FrameTraffic>,
    injector: Option<ReadFaultInjector>,
}

/// Deterministic read-corruption model for soak testing: every `read`
/// transaction flips a seeded coin; a hit marks the data returned to the
/// client as corrupted. The pipeline polls [`MemoryController::take_injected_faults`]
/// after each command and classifies hits as memory faults.
#[derive(Debug, Clone, PartialEq)]
struct ReadFaultInjector {
    rng: StdRng,
    rate_ppm: u32,
    pending: u64,
    pending_client: Option<MemClient>,
    total: u64,
}

impl MemoryController {
    /// Creates an idle controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms deterministic read corruption: each read transaction is
    /// independently corrupted with probability `rate_ppm` per million.
    /// A `rate_ppm` of 0 disarms the injector.
    pub fn enable_fault_injection(&mut self, seed: u64, rate_ppm: u32) {
        self.injector = (rate_ppm > 0).then_some(ReadFaultInjector {
            rng: StdRng::seed_from_u64(seed),
            rate_ppm,
            pending: 0,
            pending_client: None,
            total: 0,
        });
    }

    /// Corrupted reads observed since the last poll, as
    /// `(client name, count)`; clears the pending record.
    pub fn take_injected_faults(&mut self) -> Option<(&'static str, u64)> {
        let inj = self.injector.as_mut()?;
        if inj.pending == 0 {
            return None;
        }
        let count = std::mem::take(&mut inj.pending);
        let client = inj.pending_client.take().map_or("unknown", MemClient::name);
        Some((client, count))
    }

    /// Corrupted reads injected over the controller's lifetime.
    pub fn injected_faults_total(&self) -> u64 {
        self.injector.as_ref().map_or(0, |i| i.total)
    }

    /// Records a read of `bytes` by `client`.
    pub fn read(&mut self, client: MemClient, bytes: u64) {
        self.current.clients[client.index()].read += bytes;
        if bytes > 0 {
            if let Some(inj) = self.injector.as_mut() {
                if inj.rng.next_u64() % 1_000_000 < inj.rate_ppm as u64 {
                    inj.pending += 1;
                    inj.total += 1;
                    inj.pending_client.get_or_insert(client);
                }
            }
        }
    }

    /// Records a write of `bytes` by `client`.
    pub fn write(&mut self, client: MemClient, bytes: u64) {
        self.current.clients[client.index()].written += bytes;
    }

    /// Traffic recorded so far in the current frame.
    pub fn current_frame(&self) -> &FrameTraffic {
        &self.current
    }

    /// Takes the in-flight frame's traffic, leaving the current frame empty.
    ///
    /// Used by the parallel fragment pipeline to drain each stripe
    /// controller's per-draw traffic into the master controller.
    pub fn take_current(&mut self) -> FrameTraffic {
        std::mem::take(&mut self.current)
    }

    /// Adds pre-accounted traffic into the current frame.
    ///
    /// Unlike [`MemoryController::read`], this never consults the fault
    /// injector: the transactions were already coin-flipped by the stripe
    /// controller that first recorded them.
    pub fn absorb(&mut self, traffic: &FrameTraffic) {
        self.current.merge(traffic);
    }

    /// Closes the current frame, appends it to the history and returns it.
    pub fn end_frame(&mut self) -> FrameTraffic {
        let f = std::mem::take(&mut self.current);
        self.frames.push(f);
        f
    }

    /// Completed frames.
    pub fn frames(&self) -> &[FrameTraffic] {
        &self.frames
    }

    /// Rebuilds a controller from its completed-frame history (checkpoint
    /// restore at a frame boundary: the in-flight frame is empty and the
    /// injector, if any, is re-armed by the caller).
    pub fn restore(frames: Vec<FrameTraffic>) -> Self {
        MemoryController { current: FrameTraffic::default(), frames, injector: None }
    }

    /// Sum of all completed frames.
    pub fn total(&self) -> FrameTraffic {
        let mut t = FrameTraffic::default();
        for f in &self.frames {
            t.merge(f);
        }
        t
    }

    /// Mean bytes per completed frame (`0.0` when no frames ended).
    pub fn mean_bytes_per_frame(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.total().total() as f64 / self.frames.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_client_accounting() {
        let mut mc = MemoryController::new();
        mc.read(MemClient::Texture, 100);
        mc.read(MemClient::Texture, 50);
        mc.write(MemClient::ZStencil, 25);
        let f = mc.end_frame();
        assert_eq!(f.client(MemClient::Texture).read, 150);
        assert_eq!(f.client(MemClient::ZStencil).written, 25);
        assert_eq!(f.client(MemClient::Color).total(), 0);
        assert_eq!(f.total(), 175);
    }

    #[test]
    fn share_sums_to_one() {
        let mut mc = MemoryController::new();
        for c in MemClient::ALL {
            mc.read(c, 10);
            mc.write(c, 5);
        }
        let f = mc.end_frame();
        let total: f64 = MemClient::ALL.iter().map(|&c| f.share(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_frame_share_is_zero() {
        let f = FrameTraffic::default();
        assert_eq!(f.share(MemClient::Dac), 0.0);
    }

    #[test]
    fn frame_boundaries_reset_current() {
        let mut mc = MemoryController::new();
        mc.read(MemClient::Vertex, 10);
        mc.end_frame();
        assert_eq!(mc.current_frame().total(), 0);
        mc.read(MemClient::Vertex, 20);
        let f2 = mc.end_frame();
        assert_eq!(f2.total_read(), 20);
        assert_eq!(mc.frames().len(), 2);
    }

    #[test]
    fn take_current_and_absorb_roundtrip() {
        let mut stripe = MemoryController::new();
        stripe.read(MemClient::ZStencil, 256);
        stripe.write(MemClient::Color, 64);
        let drained = stripe.take_current();
        assert_eq!(stripe.current_frame().total(), 0, "drain empties the stripe frame");

        let mut master = MemoryController::new();
        master.read(MemClient::Texture, 64);
        master.absorb(&drained);
        assert_eq!(master.current_frame().client(MemClient::ZStencil).read, 256);
        assert_eq!(master.current_frame().client(MemClient::Color).written, 64);
        assert_eq!(master.current_frame().total(), 384);
    }

    #[test]
    fn absorb_bypasses_fault_injector() {
        let mut master = MemoryController::new();
        // Rate of 100% per transaction: every direct read would fault.
        master.enable_fault_injection(1, 1_000_000);
        let mut stripe = MemoryController::new();
        for _ in 0..100 {
            stripe.read(MemClient::ZStencil, 256);
        }
        master.absorb(&stripe.take_current());
        assert_eq!(master.injected_faults_total(), 0, "absorbed traffic is not re-flipped");
        master.read(MemClient::ZStencil, 256);
        assert_eq!(master.injected_faults_total(), 1);
    }

    #[test]
    fn totals_and_means() {
        let mut mc = MemoryController::new();
        mc.read(MemClient::Color, 100);
        mc.end_frame();
        mc.write(MemClient::Color, 300);
        mc.end_frame();
        assert_eq!(mc.total().total(), 400);
        assert_eq!(mc.mean_bytes_per_frame(), 200.0);
    }

    #[test]
    fn client_names_are_table_headers() {
        assert_eq!(MemClient::ZStencil.name(), "Z&Stencil");
        assert_eq!(MemClient::CommandProcessor.name(), "CP");
        // ALL is in Table XVI order: Vertex first, CP last.
        assert_eq!(MemClient::ALL[0], MemClient::Vertex);
        assert_eq!(MemClient::ALL[5], MemClient::CommandProcessor);
    }
}
