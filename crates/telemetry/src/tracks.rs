//! The canonical track table: one place that names every trace track and
//! assigns its Chrome `trace_event` tid.
//!
//! The collector's snapshot ([`crate::Collector::trace`]), the Chrome
//! exporter ([`crate::export::chrome_json`]) and the GWTB reader
//! ([`crate::reader`]) all label tracks through this module, so the
//! names a dashboard shows and the names Perfetto shows can never drift
//! apart. The layout is fixed: one process, with the frame track on tid 0,
//! the command processor on tid 1, the geometry front end on tid 2, then
//! one track per stripe × pipeline stage, and finally the per-frame
//! counter track after all stripe tracks.

use crate::{Stage, STRIPE_STAGES};

/// The single trace process id.
pub const PID: u32 = 1;
/// Track id of the frame track.
pub const TID_FRAMES: u32 = 0;
/// Track id of the command-processor track.
pub const TID_CP: u32 = 1;
/// Track id of the geometry front-end track.
pub const TID_GEOM: u32 = 2;
/// First stripe track id; stripe tracks follow at
/// `TID_STRIPE_BASE + stripe * STRIPE_STAGES.len() + stage_slot`.
pub const TID_STRIPE_BASE: u32 = 3;

/// Process name shown for the whole trace.
pub const PROCESS_NAME: &str = "gwc-sim";
/// Frame track name.
pub const FRAMES_TRACK: &str = "frames";
/// Command-processor track name.
pub const CP_TRACK: &str = "command-processor";
/// Geometry front-end track name.
pub const GEOM_TRACK: &str = "geometry";
/// Per-frame counter track name.
pub const COUNTERS_TRACK: &str = "frame-counters";

/// Track id of stage slot `slot` within stripe `stripe`.
pub fn stripe_tid(stripe: u32, slot: usize) -> u32 {
    TID_STRIPE_BASE + stripe * STRIPE_STAGES.len() as u32 + slot as u32
}

/// Track id of the counter track for a run with `stripes` stripes.
pub fn counters_tid(stripes: u32) -> u32 {
    TID_STRIPE_BASE + stripes * STRIPE_STAGES.len() as u32
}

/// Display name of the per-stripe track for `stage` in `stripe`
/// (e.g. `stripe2/Shade`).
pub fn stripe_track_name(stripe: u32, stage: Stage) -> String {
    format!("stripe{stripe}/{}", stage.name())
}

/// Display name of a stripe's whole GWTB span ring (e.g. `stripe2`). The
/// binary container stores one ring per stripe — the Chrome exporter
/// fans each ring out into its per-stage tracks via
/// [`stripe_track_name`].
pub fn stripe_ring_name(stripe: usize) -> String {
    format!("stripe{stripe}")
}

/// Display name of GWTB ring `index`. The container's fixed ring order
/// is frame, command processor, geometry, then one ring per stripe.
pub fn ring_name(index: usize) -> String {
    match index {
        0 => FRAMES_TRACK.to_owned(),
        1 => CP_TRACK.to_owned(),
        2 => GEOM_TRACK.to_owned(),
        n => stripe_ring_name(n - 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_tids_are_dense_and_counters_follow() {
        assert_eq!(stripe_tid(0, 0), TID_STRIPE_BASE);
        assert_eq!(stripe_tid(1, 0), TID_STRIPE_BASE + STRIPE_STAGES.len() as u32);
        assert_eq!(stripe_tid(1, 2), TID_STRIPE_BASE + STRIPE_STAGES.len() as u32 + 2);
        assert_eq!(counters_tid(4), stripe_tid(4, 0));
    }

    #[test]
    fn ring_names_follow_container_order() {
        assert_eq!(ring_name(0), "frames");
        assert_eq!(ring_name(1), "command-processor");
        assert_eq!(ring_name(2), "geometry");
        assert_eq!(ring_name(3), "stripe0");
        assert_eq!(ring_name(7), "stripe4");
        assert_eq!(stripe_track_name(2, Stage::Shade), "stripe2/Shade");
    }
}
