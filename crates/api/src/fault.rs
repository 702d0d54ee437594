//! Seeded fault injection for robustness testing.
//!
//! The soak harness (see `tests/soak.rs` at the workspace root) replays
//! every game profile through the simulator while this module corrupts the
//! command stream — both at the *byte* level (encoded traces, exercising
//! the codec's decode-bomb and truncation guards) and at the *structural*
//! level (decoded commands with scrambled ids, out-of-range counts, or
//! non-finite data, exercising the pipeline's typed error propagation).
//!
//! All randomness comes from a caller-provided seed via the workspace's
//! `StdRng`, so a failing corruption pattern reproduces from the seed
//! alone.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::command::{Command, StateCommand};

/// A deterministic source of corruption for encoded blobs and decoded
/// command streams.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector from a seed. Equal seeds produce equal fault
    /// patterns.
    pub fn new(seed: u64) -> Self {
        FaultInjector { rng: StdRng::seed_from_u64(seed) }
    }

    /// A coin that lands heads `rate_ppm` times per million flips.
    fn coin(&mut self, rate_ppm: u32) -> bool {
        self.rng.next_u64() % 1_000_000 < rate_ppm as u64
    }

    /// Flips one random bit per corrupted byte of `bytes`, corrupting each
    /// byte independently with probability `rate_ppm` / 1e6. Returns the
    /// number of bytes corrupted.
    pub fn corrupt_bytes(&mut self, bytes: &mut [u8], rate_ppm: u32) -> usize {
        let mut corrupted = 0;
        for b in bytes.iter_mut() {
            if self.coin(rate_ppm) {
                *b ^= 1 << (self.rng.next_u64() % 8);
                corrupted += 1;
            }
        }
        corrupted
    }

    /// Truncates `bytes` at a random offset (possibly to empty). Returns
    /// the new length.
    pub fn truncate(&mut self, bytes: &mut Vec<u8>) -> usize {
        if !bytes.is_empty() {
            let cut = (self.rng.next_u64() % bytes.len() as u64) as usize;
            bytes.truncate(cut);
        }
        bytes.len()
    }

    /// Drops whole records from a decoded command stream: each command is
    /// independently removed with probability `rate_ppm` / 1e6. `EndFrame`
    /// markers are never dropped, so the frame structure survives. Returns
    /// the number of commands removed.
    pub fn drop_commands(&mut self, commands: &mut Vec<Command>, rate_ppm: u32) -> usize {
        let before = commands.len();
        commands.retain(|c| matches!(c, Command::EndFrame) || !self.coin(rate_ppm));
        before - commands.len()
    }

    /// Structurally corrupts a decoded command stream in place: each
    /// command is independently hit with probability `rate_ppm` / 1e6 and
    /// mutated into a *well-formed but wrong* command — scrambled resource
    /// ids, inflated index ranges, out-of-range constant bases, non-finite
    /// vertex data. `EndFrame` markers are never touched, so the frame
    /// structure of the trace survives and a `SkipBatch` replay must still
    /// complete every frame. Returns the number of commands corrupted.
    pub fn corrupt_commands(&mut self, commands: &mut [Command], rate_ppm: u32) -> usize {
        let mut corrupted = 0;
        for c in commands.iter_mut() {
            if matches!(c, Command::EndFrame) || !self.coin(rate_ppm) {
                continue;
            }
            if self.corrupt_one(c) {
                corrupted += 1;
            }
        }
        corrupted
    }

    /// Mutates one command; returns `false` when the command has no
    /// interesting corruption (left intact).
    fn corrupt_one(&mut self, c: &mut Command) -> bool {
        match c {
            Command::Draw { vertex_buffer, index_buffer, first, count, .. } => {
                match self.rng.next_u64() % 4 {
                    0 => *vertex_buffer = 0xDEAD_0000 | (self.rng.next_u64() as u32 & 0xFFFF),
                    1 => *index_buffer = 0xDEAD_0000 | (self.rng.next_u64() as u32 & 0xFFFF),
                    2 => *count = count.saturating_mul(1000).max(1_000_000),
                    _ => *first = u32::MAX - (self.rng.next_u64() as u32 & 0xFF),
                }
                true
            }
            Command::State(StateCommand::BindTexture { texture, .. }) => {
                *texture = 0xDEAD_0000 | (self.rng.next_u64() as u32 & 0xFFFF);
                true
            }
            Command::State(StateCommand::BindPrograms { vertex, fragment }) => {
                if self.rng.next_u64() & 1 == 0 {
                    *vertex = 0xDEAD_0000 | (self.rng.next_u64() as u32 & 0xFFFF);
                } else {
                    *fragment = 0xDEAD_0000 | (self.rng.next_u64() as u32 & 0xFFFF);
                }
                true
            }
            Command::State(StateCommand::VertexConstants { base, .. })
            | Command::State(StateCommand::FragmentConstants { base, .. }) => {
                *base = 255;
                true
            }
            Command::CreateVertexBuffer { data, .. } => {
                if data.is_empty() {
                    return false;
                }
                let i = (self.rng.next_u64() % data.len() as u64) as usize;
                data[i].x = f32::NAN;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Indices, VertexLayout};
    use gwc_raster::PrimitiveType;

    fn draw() -> Command {
        Command::Draw {
            vertex_buffer: 1,
            index_buffer: 2,
            primitive: PrimitiveType::TriangleList,
            first: 0,
            count: 3,
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let mut blob_a = vec![0u8; 4096];
        let mut blob_b = vec![0u8; 4096];
        let na = FaultInjector::new(42).corrupt_bytes(&mut blob_a, 10_000);
        let nb = FaultInjector::new(42).corrupt_bytes(&mut blob_b, 10_000);
        assert_eq!(na, nb);
        assert_eq!(blob_a, blob_b);
        assert!(na > 0, "1% of 4096 bytes should hit");
    }

    #[test]
    fn different_seeds_differ() {
        let mut blob_a = vec![0u8; 4096];
        let mut blob_b = vec![0u8; 4096];
        FaultInjector::new(1).corrupt_bytes(&mut blob_a, 50_000);
        FaultInjector::new(2).corrupt_bytes(&mut blob_b, 50_000);
        assert_ne!(blob_a, blob_b);
    }

    #[test]
    fn zero_rate_is_a_no_op() {
        let mut blob = vec![7u8; 1024];
        assert_eq!(FaultInjector::new(9).corrupt_bytes(&mut blob, 0), 0);
        assert!(blob.iter().all(|&b| b == 7));
    }

    #[test]
    fn end_frame_is_never_corrupted() {
        let mut commands = vec![Command::EndFrame; 100];
        let n = FaultInjector::new(3).corrupt_commands(&mut commands, 1_000_000);
        assert_eq!(n, 0);
        assert!(commands.iter().all(|c| matches!(c, Command::EndFrame)));
    }

    #[test]
    fn full_rate_corrupts_every_draw() {
        let mut commands = vec![draw(); 50];
        let n = FaultInjector::new(7).corrupt_commands(&mut commands, 1_000_000);
        assert_eq!(n, 50);
        let originals = vec![draw(); 50];
        assert!(commands.iter().zip(&originals).all(|(a, b)| a != b));
    }

    #[test]
    fn corruption_is_structure_preserving() {
        let mut commands = vec![
            Command::CreateVertexBuffer {
                id: 1,
                layout: VertexLayout { attributes: 1, stride_bytes: 16 },
                data: vec![gwc_math::Vec4::new(1.0, 1.0, 1.0, 1.0); 8],
            },
            Command::CreateIndexBuffer { id: 2, indices: Indices::U16(vec![0, 1, 2]) },
            draw(),
            Command::EndFrame,
        ];
        FaultInjector::new(11).corrupt_commands(&mut commands, 1_000_000);
        // Frame structure intact: same count, EndFrame still last.
        assert_eq!(commands.len(), 4);
        assert!(matches!(commands[3], Command::EndFrame));
    }

    #[test]
    fn drop_preserves_frame_markers() {
        let mut commands = vec![draw(), Command::EndFrame, draw(), Command::EndFrame];
        let n = FaultInjector::new(13).drop_commands(&mut commands, 1_000_000);
        assert_eq!(n, 2, "all draws dropped at full rate");
        assert!(commands.iter().all(|c| matches!(c, Command::EndFrame)));
        assert_eq!(commands.len(), 2, "every EndFrame survives");
    }

    #[test]
    fn truncate_shrinks() {
        let mut blob = vec![1u8; 100];
        let n = FaultInjector::new(5).truncate(&mut blob);
        assert!(n < 100);
        assert_eq!(blob.len(), n);
    }
}
