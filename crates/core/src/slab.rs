//! The slab path shared by the two fan-out services.
//!
//! A job whose estimated footprint exceeds a lane's device memory cannot
//! converge on that lane.  [`crate::MultiDeviceService`] and
//! [`crate::DistributedService`] therefore cut such a job into
//! [`MultiDevicePagani::partition`] slabs — the §4.4 static partition,
//! applied per job — dispatch one child job per slab, and fold the children
//! back **in slab order** with the same fold as
//! [`MultiDevicePagani::integrate_region`], so the parent's result is a pure
//! function of the slab results.  The services differ only in how a child
//! reaches a lane, which they pass in as a dispatch closure.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use pagani_quadrature::Tolerances;

use crate::batch::BatchJob;
use crate::cost::{estimated_job_footprint_bytes, job_tolerances, slab_weights, CostModel};
use crate::driver::PaganiOutput;
use crate::multi_device::{combine_results, MultiDevicePagani};
use crate::service::{panic_message, JobHandle, JobOutcome, JobState};
use crate::trace::ExecutionTrace;

/// How many slabs `job` must be cut into so each fits in `budget` bytes of
/// device memory — the smallest lane's capacity, since a child may land on
/// any lane.  `None` when the job fits whole (the overwhelmingly common
/// case), when there is no lane to budget for, or when the job carries a
/// per-job method override (baseline methods have no slab-composition
/// story).
pub(crate) fn slab_parts(
    job: &BatchJob,
    tolerances: Tolerances,
    budget: Option<u64>,
) -> Option<usize> {
    if job.method().is_some() {
        return None;
    }
    let budget = budget? as f64;
    let footprint = estimated_job_footprint_bytes(job, tolerances);
    if footprint <= budget {
        return None;
    }
    Some(((footprint / budget).ceil() as usize).clamp(2, 64))
}

/// Split `job` into `parts` slab children and hand back the parent's handle.
///
/// Each child inherits the parent's priority and deadline and goes out
/// through `dispatch` together with its [`slab_weights`] share of the
/// parent's weight under `model`, so the shares charged to the lanes sum to
/// exactly the whole job's weight.  A combiner thread waits on the children
/// in slab order and publishes [`combine_slab_outputs`]; a child's panic
/// becomes the parent's.  Cancelling the parent cancels every child.
pub(crate) fn submit_slabbed(
    job: BatchJob,
    parts: usize,
    model: &CostModel,
    default_tolerances: Tolerances,
    mut dispatch: impl FnMut(BatchJob, f64) -> JobHandle,
) -> JobHandle {
    let slabs = MultiDevicePagani::partition(job.region(), parts);
    let weights = slab_weights(model.weigh_job(&job, default_tolerances), &slabs);
    let children: Vec<JobHandle> = slabs
        .into_iter()
        .zip(weights)
        .map(|(slab, weight)| dispatch(job.clone().over(slab), weight))
        .collect();
    let tolerances = job_tolerances(&job, default_tolerances);
    let parent = Arc::new(JobState::new());
    let state = Arc::clone(&parent);
    let waited = children.clone();
    std::thread::Builder::new()
        .name("pagani-slab-combiner".into())
        .spawn(move || {
            let mut outputs = Vec::with_capacity(waited.len());
            for child in &waited {
                match std::panic::catch_unwind(AssertUnwindSafe(|| child.wait())) {
                    Ok(output) => outputs.push(output),
                    Err(payload) => {
                        state.complete(JobOutcome::Panicked(panic_message(payload.as_ref())));
                        return;
                    }
                }
            }
            state.complete(JobOutcome::Finished(combine_slab_outputs(
                &outputs, tolerances,
            )));
        })
        .expect("spawning the slab-combiner thread");
    JobHandle::detached(
        parent,
        Some(Arc::new(move || {
            for child in &children {
                child.cancel();
            }
        })),
    )
}

/// Recombine slab-child outputs into the parent's output: the
/// [`combine_results`] fold in slab order, wall time the slowest child's
/// (children run concurrently; the combiner reads no clock of its own, so
/// results stay a pure function of the slab outputs).  The parent's trace is
/// empty — per-slab traces describe per-device runs and do not compose.
fn combine_slab_outputs(outputs: &[PaganiOutput], tolerances: Tolerances) -> PaganiOutput {
    let wall_time = outputs
        .iter()
        .map(|o| o.result.wall_time)
        .max()
        .unwrap_or_default();
    PaganiOutput {
        result: combine_results(outputs.iter().map(|o| &o.result), tolerances, wall_time),
        trace: ExecutionTrace::default(),
    }
}
