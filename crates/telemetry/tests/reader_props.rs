//! Total-function property tests for the GWTB reader.
//!
//! `repro analyze` feeds whatever bytes it finds under a data dir into
//! [`gwc_telemetry::reader::read_trace`]; a torn write, a truncated
//! copy, or bit-rot must come back as a typed
//! [`ReadError`](gwc_telemetry::reader::ReadError) — never a panic,
//! never a silently wrong trace. These properties mutate a genuine
//! writer-emitted container every way a failing disk does and assert the
//! same total-function contract the GWCK restore proptests pin down.

use gwc_telemetry::reader::read_trace;
use gwc_telemetry::{Collector, FrameSample, Level, SpanEvent, Stage, TraceMeta};
use proptest::prelude::*;

/// A collector that has recorded every kind of data: frames,
/// command-processor, geometry, and stripe spans, plus per-client
/// bandwidth — so every container section is non-trivial.
fn reference_collector() -> Collector {
    let meta = TraceMeta {
        game: "Doom3/trdemo2".into(),
        width: 64,
        height: 48,
        stripe_rows: 16,
        stripes: 3,
        clients: vec!["cp".into(), "tex".into(), "color".into()],
        span_capacity: 32,
    };
    let mut c = Collector::new(Level::Spans, meta);
    for frame in 0..2u64 {
        let base = frame * 100;
        c.record_geometry(base + 1, base + 9, 16, 12);
        c.record_draw(base + 1, base + 40, 12);
        c.record_clear(base + 41);
        if let Some(mut rings) = c.take_stripe_rings() {
            rings[0].push(SpanEvent { stage: Stage::Raster, start: base + 13, dur: 27, arg0: 9, arg1: 4 });
            rings[1].push(SpanEvent { stage: Stage::Shade, start: base + 13, dur: 20, arg0: 100, arg1: 6 });
            rings[2].push(SpanEvent { stage: Stage::Blend, start: base + 13, dur: 5, arg0: 2, arg1: 0 });
            c.restore_stripe_rings(rings);
        }
        c.end_frame(
            base + 50,
            FrameSample {
                frame,
                indices: 36,
                vcache_hits: 20,
                triangles: 12,
                frags_raster: 27,
                frags_shaded: 20,
                z_accesses: 30 * (frame + 1),
                z_hits: 21 * (frame + 1),
                bw_read: vec![100, 50, 25],
                bw_written: vec![30, 0, 12],
                ..FrameSample::default()
            },
        );
    }
    c
}

/// The writer's GWTB bytes for [`reference_collector`].
fn reference_blob() -> Vec<u8> {
    reference_collector().trace().to_binary()
}

proptest! {
    /// Truncation at any offset — the shape a short or torn write
    /// leaves — yields a typed error, never a panic. (The full blob is
    /// the one length that must read.)
    #[test]
    fn any_truncation_fails_typed(cut in 0usize..8192) {
        let blob = reference_blob();
        prop_assume!(cut < blob.len());
        let err = read_trace(&blob[..cut]);
        prop_assert!(err.is_err(), "a {cut}-byte prefix of {} read back", blob.len());
    }

    /// A single flipped bit anywhere in the container is caught — by
    /// magic, CRC trailer, or the structural decoders — or, if it reads
    /// at all, decodes to the collector's own trace (silent trace
    /// corruption is never acceptable).
    #[test]
    fn single_bit_flips_never_corrupt_silently(pos in 0usize..8192, bit in 0u8..8) {
        let blob = reference_blob();
        prop_assume!(pos < blob.len());
        let mut bent = blob.clone();
        bent[pos] ^= 1 << bit;
        if let Ok(trace) = read_trace(&bent) {
            prop_assert_eq!(
                trace,
                reference_collector().trace(),
                "bit {} of byte {} changed the blob yet read to a different trace", bit, pos
            );
        }
    }

    /// Arbitrary byte soup — including the empty file a crashed
    /// `File::create` leaves — is rejected typed, never a panic.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_trace(&bytes);
    }

    /// Random splices of trace fragments: valid framing bytes in the
    /// wrong order, duplicated sections, swapped tails. The reader must
    /// classify every one.
    #[test]
    fn spliced_traces_never_panic(at in 0usize..8192, skip in 1usize..256) {
        let blob = reference_blob();
        prop_assume!(at < blob.len());
        let mut spliced = blob[..at].to_vec();
        spliced.extend_from_slice(&blob[at.saturating_add(skip).min(blob.len())..]);
        prop_assume!(spliced.len() != blob.len());
        let err = read_trace(&spliced);
        prop_assert!(err.is_err(), "a spliced trace (cut {at}, skip {skip}) read back");
    }
}

#[test]
fn the_unmutated_blob_round_trips_bit_identically() {
    let blob = reference_blob();
    let trace = read_trace(&blob).expect("the genuine trace reads");
    assert_eq!(trace, reference_collector().trace(), "the reader inverts the writer");
    assert_eq!(trace.to_binary(), blob, "read → re-encode must round-trip");
    assert_eq!(trace.frames.len(), 2);
    assert_eq!(trace.spans(), 14, "2 × (frame + draw + clear + geometry + 3 stripe spans)");
    // Cache counters come back as the per-frame deltas the collector
    // stored, not the cumulative values it was fed.
    assert_eq!(trace.frames[1].z_accesses, 30);
}
