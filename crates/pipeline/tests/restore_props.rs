//! Crash-consistency property tests for GWCK checkpoint restore.
//!
//! `repro replay --resume` feeds whatever bytes it finds on disk into
//! [`Gpu::restore_checkpoint`]; a torn write, a truncated copy, or
//! bit-rot must come back as a typed [`CheckpointError`] — never a
//! panic, never a silently wrong GPU. These properties mutate a genuine
//! checkpoint every way a failing disk does (the same shapes
//! `gwc-failpoints` injects at the `gwck.write` site) and assert the
//! decoder's total-function contract.

use gwc_api::{ClearMask, Command, CommandSink};
use gwc_math::Vec4;
use gwc_pipeline::{Gpu, GpuConfig};
use proptest::prelude::*;

const W: u32 = 48;
const H: u32 = 36;

/// A real checkpoint from a GPU that has done a frame of work, so every
/// section is present and non-trivial.
fn reference_blob() -> Vec<u8> {
    let mut gpu = Gpu::new(GpuConfig::r520(W, H));
    gpu.consume(&Command::Clear {
        mask: ClearMask::ALL,
        color: Vec4::new(0.2, 0.4, 0.6, 1.0),
        depth: 1.0,
        stencil: 0,
    });
    gpu.consume(&Command::EndFrame);
    gpu.save_checkpoint()
}

fn restore(bytes: &[u8]) -> Result<Gpu, gwc_pipeline::CheckpointError> {
    Gpu::restore_checkpoint(GpuConfig::r520(W, H), bytes)
}

proptest! {
    /// Truncation at any offset — the shape a short or torn write
    /// leaves — yields a typed error, never a panic. (The full blob is
    /// the one length that must restore.)
    #[test]
    fn any_truncation_fails_typed(cut in 0usize..4096) {
        let blob = reference_blob();
        prop_assume!(cut < blob.len());
        let err = restore(&blob[..cut]);
        prop_assert!(err.is_err(), "a {cut}-byte prefix of {} restored", blob.len());
    }

    /// A single flipped bit anywhere in the blob is caught — by magic,
    /// version, framing, CRC, or the section decoders — or, if it
    /// restores at all, restores to a checkpoint-identical GPU (a flip
    /// in padding the format never reads is acceptable; silent state
    /// corruption is not).
    #[test]
    fn single_bit_flips_never_corrupt_silently(pos in 0usize..4096, bit in 0u8..8) {
        let blob = reference_blob();
        prop_assume!(pos < blob.len());
        let mut bent = blob.clone();
        bent[pos] ^= 1 << bit;
        if let Ok(gpu) = restore(&bent) {
            prop_assert_eq!(
                gpu.save_checkpoint(),
                blob,
                "bit {bit} of byte {pos} changed the blob yet restored to different state"
            );
        }
    }

    /// Arbitrary byte soup — including the empty file a crashed
    /// `File::create` leaves — is rejected typed, never a panic.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = restore(&bytes);
    }

    /// Random splices of checkpoint fragments: valid framing bytes in
    /// the wrong order, duplicated sections, swapped tails. The decoder
    /// must classify every one.
    #[test]
    fn spliced_checkpoints_never_panic(at in 0usize..4096, skip in 1usize..256) {
        let blob = reference_blob();
        prop_assume!(at < blob.len());
        let mut spliced = blob[..at].to_vec();
        spliced.extend_from_slice(&blob[at.saturating_add(skip).min(blob.len())..]);
        prop_assume!(spliced.len() != blob.len());
        let err = restore(&spliced);
        prop_assert!(err.is_err(), "a spliced checkpoint (cut {at}, skip {skip}) restored");
    }
}

#[test]
fn the_unmutated_blob_restores_bit_identically() {
    let blob = reference_blob();
    let gpu = restore(&blob).expect("the genuine checkpoint restores");
    assert_eq!(gpu.save_checkpoint(), blob, "restore must round-trip");
}

/// Rebuilds `blob` with `edit` applied to the payload of section `tag`
/// and that section's CRC recomputed, as a writer that framed bad state
/// would have produced it.
fn reframe(blob: &[u8], tag: [u8; 4], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = blob[..6].to_vec();
    let mut edit = Some(edit);
    let mut pos = 6;
    while pos < blob.len() {
        let len = u64::from_le_bytes(blob[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let mut payload = blob[pos + 16..pos + 16 + len].to_vec();
        if blob[pos..pos + 4] == tag {
            (edit.take().expect("section appears once"))(&mut payload);
        }
        out.extend_from_slice(&blob[pos..pos + 4]);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&gwc_telemetry::export::crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        pos += 16 + len;
    }
    assert!(edit.is_none(), "section {tag:?} not found");
    out
}

/// A well-framed checkpoint whose first Z-cache set holds one tag in two
/// valid ways is refused as corrupt: the cache's tag index can map a tag
/// to only one way, so such a cache would report a resident line as a
/// miss after the other copy is evicted.
#[test]
fn a_cache_tag_held_twice_is_rejected() {
    let blob = reference_blob();
    // FRAM: color, depth and stencil planes, HZ max-z and dirty flags, the
    // HZ counters, two compression directories and the stripe count; then
    // stripe 0's Z cache: its line count and `(tag u64, flags u8, stamp
    // u64)` per line.
    let (px, blocks) = ((W * H) as usize, (W.div_ceil(8) * H.div_ceil(8)) as usize);
    let first_line = 4 * px + 4 * px + px + 4 * blocks + blocks + 16 + 2 * blocks + 4 + 4;
    let with_tags = |a: u64, b: u64| {
        reframe(&blob, *b"FRAM", |fram| {
            for (way, (tag, flags)) in [(a, 0b11u8), (b, 0b01)].into_iter().enumerate() {
                let at = first_line + 17 * way;
                fram[at..at + 8].copy_from_slice(&tag.to_le_bytes());
                fram[at + 8] = flags;
                fram[at + 9..at + 17].copy_from_slice(&(way as u64 + 1).to_le_bytes());
            }
        })
    };
    assert!(restore(&with_tags(5, 7)).is_ok(), "two distinct tags restore");
    match restore(&with_tags(5, 5)) {
        Err(gwc_pipeline::CheckpointError::Corrupt(what)) => assert!(what.contains("tag"), "{what}"),
        Err(other) => panic!("expected a corrupt-checkpoint error, got {other}"),
        Ok(_) => panic!("a cache set holding one tag twice restored"),
    }
}
