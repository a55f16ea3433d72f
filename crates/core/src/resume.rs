//! Checkpoint/resume support types for the driver.
//!
//! [`crate::Pagani::integrate_resumable`] runs the normal breadth-first loop
//! while capturing [`Snapshot`]s of the region tree — periodically every K
//! generations and at every exit point where the tree is still a valid
//! starting state (cancellation, memory exhaustion, iteration exhaustion,
//! convergence).  [`crate::Pagani::resume_from`] re-enters the loop from such
//! a snapshot; because snapshots are bit-exact and the loop is deterministic,
//! the continuation is bit-identical to the uninterrupted run past the
//! checkpoint.

use std::fmt;

use pagani_persist::Snapshot;

use crate::driver::PaganiOutput;

/// Output of a resumable run: the normal result plus the snapshots captured
/// along the way.
#[derive(Debug, Clone)]
pub struct ResumableOutput {
    /// Estimate, error estimate, termination status, counters and trace —
    /// identical to what the non-resumable entry points return.
    pub output: PaganiOutput,
    /// Periodic checkpoints, one per K generations (empty when periodic
    /// checkpointing was not requested).
    pub checkpoints: Vec<Snapshot>,
    /// State at the end of the run, when the region tree was still resumable
    /// there: present after cancellation, memory exhaustion, iteration
    /// exhaustion and convergence (a converged tree warm-starts a
    /// tighter-tolerance request).  `None` only when the run died before any
    /// region tree existed.
    pub final_snapshot: Option<Snapshot>,
}

/// Why [`crate::Pagani::resume_from`] refused a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The snapshot's dimensionality does not match the integrand's.
    DimensionMismatch {
        /// The integrand's dimensionality.
        expected: usize,
        /// The snapshot's dimensionality.
        found: usize,
    },
    /// The snapshot holds no regions to resume from.
    EmptySnapshot,
    /// The snapshot is internally inconsistent (mismatched geometry buffers,
    /// a parent list that does not pair with the region count, a region that
    /// is degenerate or outside the root, ...).
    Corrupt(&'static str),
    /// The snapshot's region tree does not fit in this device's memory.
    OutOfMemory,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot dimension {found} does not match integrand dimension {expected}"
                )
            }
            ResumeError::EmptySnapshot => write!(f, "snapshot holds no regions"),
            ResumeError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            ResumeError::OutOfMemory => {
                write!(f, "snapshot region tree does not fit in device memory")
            }
        }
    }
}

impl std::error::Error for ResumeError {}
