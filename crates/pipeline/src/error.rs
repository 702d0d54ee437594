//! Typed simulator faults and the replay degradation policy.
//!
//! A replayed trace is untrusted input: records can be corrupted on disk,
//! truncated in flight, or reference resources that were never created.
//! Every input-dependent failure in the pipeline is classified as a
//! [`SimError`] so a multi-thousand-frame characterization run can report
//! *what* went wrong — and, under a lenient [`FaultPolicy`], keep going
//! the way a real driver drops a bad batch instead of hanging the GPU.

use std::fmt;

/// Broad classification of a [`SimError`], used for per-kind fault
/// counters (see [`crate::SimStats::fault_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A command referenced a resource id that was never created.
    UnboundResource,
    /// An index or coordinate fell outside its buffer.
    IndexOutOfRange,
    /// Vertex shading produced a non-finite clip position.
    NonFiniteVertex,
    /// A shader program or its constant state was invalid.
    ShaderFault,
    /// A resource allocation would exceed the configured VRAM budget.
    AllocationOverflow,
    /// The memory controller reported corrupted read data.
    MemoryFault,
    /// Durable storage failed while persisting a result (artifact,
    /// manifest, checkpoint): EIO, ENOSPC, short or torn write. Never
    /// raised by the simulation itself — the harness and daemon classify
    /// persistence failures here so degrade decisions ride the same
    /// taxonomy as simulation faults.
    Storage,
}

impl FaultKind {
    /// All kinds, in counter order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::UnboundResource,
        FaultKind::IndexOutOfRange,
        FaultKind::NonFiniteVertex,
        FaultKind::ShaderFault,
        FaultKind::AllocationOverflow,
        FaultKind::MemoryFault,
        FaultKind::Storage,
    ];

    /// Position of this kind in [`FaultKind::ALL`] (counter slot).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::UnboundResource => "unbound-resource",
            FaultKind::IndexOutOfRange => "index-out-of-range",
            FaultKind::NonFiniteVertex => "non-finite-vertex",
            FaultKind::ShaderFault => "shader-fault",
            FaultKind::AllocationOverflow => "allocation-overflow",
            FaultKind::MemoryFault => "memory-fault",
            FaultKind::Storage => "storage",
        }
    }
}

/// A classified, input-dependent simulator fault.
///
/// Internal invariant violations still panic; `SimError` covers exactly
/// the failures a corrupt or hostile command stream can provoke.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A command referenced a resource that does not exist.
    UnboundResource {
        /// Resource namespace ("vertex-buffer", "index-buffer", "texture",
        /// "program").
        kind: &'static str,
        /// The missing id.
        id: u32,
    },
    /// An index fell outside the addressed buffer.
    IndexOutOfRange {
        /// What was being indexed ("index", "vertex", "index-range").
        what: &'static str,
        /// The out-of-range value.
        index: u64,
        /// The exclusive bound it violated.
        limit: u64,
    },
    /// Vertex shading produced a non-finite clip-space position.
    NonFiniteVertex {
        /// The vertex buffer the vertex came from.
        buffer: u32,
        /// The vertex index within the buffer.
        index: u32,
    },
    /// A shader program or its constant state was invalid for the draw.
    ShaderFault {
        /// The offending program id.
        program: u32,
        /// Human-readable cause.
        reason: &'static str,
    },
    /// A resource allocation would exceed the 512 MiB VRAM budget.
    AllocationOverflow {
        /// Bytes the command asked for.
        requested: u64,
        /// Bytes already allocated.
        allocated: u64,
        /// The configured budget.
        limit: u64,
    },
    /// The memory controller reported corrupted data on a read.
    MemoryFault {
        /// Memory client that observed the corruption.
        client: &'static str,
        /// Number of corrupted reads observed while executing the command.
        count: u64,
    },
    /// Durable storage failed while persisting a result. The degrade
    /// policy: the write-ahead journal fail-stops on this, everything
    /// else (artifacts, reports) demotes the one affected result and
    /// carries on.
    Storage {
        /// What was being persisted ("artifact", "manifest", "checkpoint").
        what: &'static str,
        /// The underlying I/O error, as text (I/O errors don't clone).
        detail: String,
    },
}

impl SimError {
    /// The fault's classification bucket.
    pub fn kind(&self) -> FaultKind {
        match self {
            SimError::UnboundResource { .. } => FaultKind::UnboundResource,
            SimError::IndexOutOfRange { .. } => FaultKind::IndexOutOfRange,
            SimError::NonFiniteVertex { .. } => FaultKind::NonFiniteVertex,
            SimError::ShaderFault { .. } => FaultKind::ShaderFault,
            SimError::AllocationOverflow { .. } => FaultKind::AllocationOverflow,
            SimError::MemoryFault { .. } => FaultKind::MemoryFault,
            SimError::Storage { .. } => FaultKind::Storage,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnboundResource { kind, id } => {
                write!(f, "unbound {kind} {id}")
            }
            SimError::IndexOutOfRange { what, index, limit } => {
                write!(f, "{what} {index} out of range (limit {limit})")
            }
            SimError::NonFiniteVertex { buffer, index } => {
                write!(f, "non-finite clip position for vertex {index} of buffer {buffer}")
            }
            SimError::ShaderFault { program, reason } => {
                write!(f, "shader fault in program {program}: {reason}")
            }
            SimError::AllocationOverflow { requested, allocated, limit } => {
                write!(
                    f,
                    "allocation of {requested} B overflows VRAM budget ({allocated} of {limit} B used)"
                )
            }
            SimError::MemoryFault { client, count } => {
                write!(f, "{count} corrupted read(s) on memory client {client}")
            }
            SimError::Storage { what, detail } => {
                write!(f, "storage fault persisting {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How the GPU reacts when a command faults.
///
/// Mirrors real driver behaviour: a strict debug build surfaces the first
/// fault; a production driver drops the bad batch (or the whole frame)
/// and keeps the display alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Surface the first fault to the caller ([`crate::Gpu::try_consume`]
    /// returns `Err`); the faulty command is dropped.
    #[default]
    Strict,
    /// Drop the faulty command (one draw batch at most) and continue;
    /// counts into [`crate::FrameSimStats::dropped_batches`].
    SkipBatch,
    /// Drop the rest of the current frame (commands are ignored until the
    /// next `EndFrame`); counts into
    /// [`crate::FrameSimStats::dropped_frames`].
    SkipFrame,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let e = SimError::UnboundResource { kind: "texture", id: 3 };
        assert_eq!(e.kind(), FaultKind::UnboundResource);
        assert_eq!(e.kind().name(), "unbound-resource");
        let e = SimError::IndexOutOfRange { what: "index", index: 9, limit: 4 };
        assert_eq!(e.kind(), FaultKind::IndexOutOfRange);
        let e = SimError::Storage { what: "artifact", detail: "No space left".into() };
        assert_eq!(e.kind(), FaultKind::Storage);
        assert!(e.to_string().contains("artifact") && e.to_string().contains("No space"));
        assert_eq!(FaultKind::ALL.len(), 7);
        for (i, k) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "counter slots must match ALL order");
        }
    }

    #[test]
    fn display_is_informative() {
        let e = SimError::AllocationOverflow { requested: 100, allocated: 50, limit: 120 };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("120"));
        let e = SimError::NonFiniteVertex { buffer: 2, index: 7 };
        assert!(e.to_string().contains("vertex 7"));
    }

    #[test]
    fn default_policy_is_strict() {
        assert_eq!(FaultPolicy::default(), FaultPolicy::Strict);
    }
}
