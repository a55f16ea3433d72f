//! Multi-device execution (§4.4, the paper's future-work extension) and the
//! multi-device scheduling service.
//!
//! The single-device PAGANI is ultimately limited by device memory.  The paper
//! proposes extending the memory pool by partitioning the integration space across
//! several GPUs, each running PAGANI independently on its slab, with redistribution
//! kept to the start of the run (per-iteration redistribution over MPI is dismissed as
//! infeasible).  [`MultiDevicePagani`] implements exactly that static scheme: the root
//! region is cut into one slab per device along its longest axes, every device
//! integrates its slab to the full tolerance concurrently, and the per-device results
//! are summed.  For single-sign integrands the per-slab relative tolerances compose
//! into the global tolerance by the same argument as Lemma 3.1.
//!
//! Independent-job traffic is the other axis: [`MultiDeviceService`] feeds N
//! devices from **one** submission queue.  Each incoming job is weighed by
//! the pool's shared measured [`CostModel`] (falling back to the static
//! [`estimated_cost`] while the model is cold) and dispatched to the device
//! with the least estimated outstanding cost
//! ([`DispatchMode::CostBalanced`]), so a skewed job mix cannot pile its
//! heavy jobs onto one device the way round-robin sharding does.  All lanes
//! share one model, so what one device learns about a job family prices that
//! family everywhere.  [`DispatchMode::RoundRobin`] remains available as the
//! deterministic fallback: under it the device a job lands on is a pure
//! function of its submission index, which is the mode the reproducibility
//! tests pin.  Per-job *results* are bit-identical either way whenever the
//! devices are configured identically — every job runs against an isolated
//! full-capacity memory view, so only wall-clock (and, for heterogeneous
//! pools, memory-pressure behaviour) depends on placement.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pagani_quadrature::{Integrand, IntegrationResult, Region, Termination, Tolerances};

use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::config::PaganiConfig;
pub use crate::cost::{estimated_cost, estimated_job_cost};
use crate::cost::{least_loaded, CostModel, Ledger};
use crate::driver::{Pagani, PaganiOutput};
use crate::integrator::ensure_matching_dims;
use crate::service::{IntegrationService, JobHandle, QueueFull, Rejected, ServiceMetrics};
use crate::slab::{slab_parts, submit_slabbed};
use pagani_device::Device;
use pagani_persist::ResultCache;

/// How a multi-device dispatcher assigns jobs to devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Weigh each job with [`estimated_cost`] and send it to the device with
    /// the least estimated outstanding cost (ties break to the lowest device
    /// index).  Balances skewed job mixes; placement depends on completion
    /// timing, so which device serves a job is not reproducible run-to-run.
    #[default]
    CostBalanced,
    /// Job `i` goes to device `i mod n` — placement is a pure function of the
    /// submission index, reproducible run-to-run.  The deterministic fallback
    /// the pinning tests rely on.
    RoundRobin,
}

/// Plan a device assignment for a fixed batch of job costs.
///
/// `CostBalanced` runs greedy list scheduling: each job (in order) goes to
/// the device with the least total assigned cost so far, ties to the lowest
/// index.  `RoundRobin` assigns job `i` to device `i mod lanes`.  Both are
/// pure functions of their inputs, so batch dispatch is deterministic — the
/// timing-dependence of streaming dispatch comes only from completions, which
/// a fixed batch plan ignores.
///
/// # Panics
/// Panics if `lanes` is zero.
#[must_use]
pub fn plan_dispatch(costs: &[f64], lanes: usize, mode: DispatchMode) -> Vec<usize> {
    assert!(lanes > 0, "at least one dispatch lane is required");
    match mode {
        DispatchMode::RoundRobin => (0..costs.len()).map(|i| i % lanes).collect(),
        DispatchMode::CostBalanced => {
            let mut assigned = vec![0.0f64; lanes];
            costs
                .iter()
                .map(|&cost| {
                    let lane = least_loaded(0..lanes, |i| assigned[i]).expect("lanes is non-zero");
                    assigned[lane] += cost;
                    lane
                })
                .collect()
        }
    }
}

/// One device's lane in a [`MultiDeviceService`]: its service and the
/// estimated cost of jobs dispatched to it that have not completed yet.
#[derive(Debug)]
struct Lane {
    service: IntegrationService,
    outstanding: Arc<Ledger>,
}

impl Lane {
    /// Whether the lane's queue is below its bound (always, when unbounded)
    /// — a best-effort snapshot that can race a concurrent submitter.
    fn has_space(&self) -> bool {
        let bound = self.service.policy().queue_bound;
        bound.is_none_or(|bound| self.service.queued_jobs() < bound)
    }
}

/// One submission queue feeding N devices.
///
/// Mirrors [`IntegrationService`] at the device-pool level: `submit` weighs
/// the job with [`estimated_job_cost`] and dispatches it to a device
/// according to the [`DispatchMode`]; every per-device lane is a full
/// [`IntegrationService`], so per-job method overrides, priorities, deadlines
/// and cancellation all work unchanged.  [`MultiDeviceService::integrate_batch`]
/// plans a whole batch deterministically through [`plan_dispatch`].
///
/// ```
/// use pagani_core::{BatchJob, PaganiConfig, ServiceBuilder};
/// use pagani_device::Device;
/// use pagani_quadrature::{FnIntegrand, Tolerances};
///
/// let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-5)))
///     .devices([Device::test_small(), Device::test_small()])
///     .build_multi();
/// let jobs = [
///     BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1])),
///     BatchJob::new(FnIntegrand::new(3, |x: &[f64]| x[0] * x[1] * x[2])),
/// ];
/// let outputs = service.integrate_batch(&jobs);
/// assert!(outputs.iter().all(|o| o.result.converged()));
/// service.shutdown();
/// ```
#[derive(Debug)]
pub struct MultiDeviceService {
    lanes: Vec<Lane>,
    mode: DispatchMode,
    round_robin_next: AtomicUsize,
    default_tolerances: Tolerances,
}

impl MultiDeviceService {
    /// The one construction path, fed by [`ServiceBuilder::build_multi`]:
    /// one lane per device, each built from a copy of `builder` so every
    /// lane shares the policy, the cache and one cost model.
    pub(crate) fn from_builder(mut builder: ServiceBuilder) -> Self {
        assert!(
            !builder.devices.is_empty(),
            "at least one device is required"
        );
        // One measured cost model shared by every lane: a wall time observed
        // on any device prices that job family on all of them.
        builder
            .model
            .get_or_insert_with(|| Arc::new(CostModel::new()));
        let lanes = std::mem::take(&mut builder.devices)
            .into_iter()
            .map(|device| Lane {
                service: builder.clone().device(device).build(),
                outstanding: Arc::default(),
            })
            .collect();
        Self {
            lanes,
            mode: builder.dispatch,
            round_robin_next: AtomicUsize::new(0),
            default_tolerances: builder.config.tolerances,
        }
    }

    /// Number of devices in the pool.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.lanes.len()
    }

    /// The dispatch mode in force.
    #[must_use]
    pub fn mode(&self) -> DispatchMode {
        self.mode
    }

    /// Estimated outstanding cost per device — dispatched minus completed —
    /// in device order.  Introspection for tests and load dashboards.
    #[must_use]
    pub fn outstanding_costs(&self) -> Vec<f64> {
        self.lanes
            .iter()
            .map(|lane| lane.outstanding.total())
            .collect()
    }

    /// A per-lane [`ServiceMetrics`] snapshot, in device order.  One entry
    /// per device; sum counters across entries for pool-level totals.
    #[must_use]
    pub fn metrics(&self) -> Vec<ServiceMetrics> {
        self.lanes
            .iter()
            .map(|lane| lane.service.metrics())
            .collect()
    }

    /// The measured [`CostModel`] shared by every lane.  Seed it with
    /// [`CostModel::record`] for deterministic admission in tests, or inspect
    /// it to watch the pool's learning converge.
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        self.lanes[0].service.cost_model()
    }

    /// The pool-wide [`ResultCache`], when the builder carried one
    /// ([`ServiceBuilder::cache`]) — shared by every lane, so any device's
    /// work serves the whole pool.
    #[must_use]
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.lanes[0].service.result_cache()
    }

    /// Pick the lane the next submission goes to; advances the round-robin
    /// rotation when that mode is in force.
    fn select_lane(&self) -> usize {
        match self.mode {
            DispatchMode::RoundRobin => {
                self.round_robin_next.fetch_add(1, AtomicOrdering::Relaxed) % self.lanes.len()
            }
            DispatchMode::CostBalanced => {
                let costs = self.outstanding_costs();
                let load = |i: usize| costs[i];
                let lanes = 0..self.lanes.len();
                least_loaded(lanes.clone().filter(|&i| self.lanes[i].has_space()), load)
                    .or_else(|| least_loaded(lanes, load))
                    .expect("the lane list is never empty")
            }
        }
    }

    /// Dispatch `job` to a device and return its handle.
    ///
    /// `CostBalanced` picks the device with the least estimated outstanding
    /// cost at this instant; under a bounded per-lane [`crate::ServicePolicy`],
    /// lanes whose queue is at its bound are skipped (best-effort — the
    /// occupancy snapshot can race a concurrent submitter) so a full cheap
    /// lane cannot block the call while another lane has room; only when
    /// *every* lane is full does the call block waiting for space on the
    /// least-loaded one.  `RoundRobin` rotates unconditionally — placement
    /// stays a pure function of the submission index, so a full lane blocks
    /// rather than breaking determinism.  The job's weight under the shared
    /// [`CostModel`] is charged to the chosen lane and retired when the job
    /// completes.
    ///
    /// **Oversized jobs slab-split.**  A job whose
    /// [`crate::estimated_job_footprint_bytes`] exceeds the smallest lane's memory
    /// capacity cannot converge on any single device; instead of letting it
    /// exhaust memory, the service cuts its region into
    /// [`MultiDevicePagani::partition`] slabs (one child job per slab, each
    /// inheriting the parent's priority and deadline), dispatches the
    /// children through the ordinary cost-balanced lanes with
    /// [`crate::slab_weights`] charges, and recombines them **bit-deterministically**:
    /// children are summed in fixed slab order with exactly the
    /// [`MultiDevicePagani::integrate_region`] fold, so the parent handle's
    /// result is a pure function of the slab results.  Cancelling the parent
    /// handle cancels every child.
    #[must_use]
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        if let Some(parts) = slab_parts(&job, self.default_tolerances, self.slab_budget()) {
            return submit_slabbed(
                job,
                parts,
                self.cost_model(),
                self.default_tolerances,
                |child, weight| self.submit_weighted(self.select_lane(), child, weight),
            );
        }
        let cost = self.cost_model().weigh_job(&job, self.default_tolerances);
        self.submit_weighted(self.select_lane(), job, cost)
    }

    /// [`MultiDeviceService::submit`] with refuse-instead-of-wait semantics:
    /// the chosen lane's [`IntegrationService::try_submit`] admission checks
    /// (queue bound, deadline feasibility) run, and a refusal hands the job
    /// back as [`Rejected`] and leaves the lane's ledger as it was.
    ///
    /// Under `RoundRobin` a rejected submission still consumes its rotation
    /// slot — placement stays a pure function of the submission *attempt*
    /// index, so a retried job probes the next lane instead of hammering the
    /// same full one.
    ///
    /// # Errors
    /// Whatever the chosen lane's [`IntegrationService::try_submit`] returns:
    /// [`Rejected::QueueFull`] at the lane's bound,
    /// [`Rejected::DeadlineInfeasible`] when the shared model predicts the
    /// deadline cannot be met on that lane.
    pub fn try_submit(&self, job: BatchJob) -> Result<JobHandle, Rejected> {
        if slab_parts(&job, self.default_tolerances, self.slab_budget()).is_some() {
            // Slab children bypass per-child admission (they exist precisely
            // because the whole job is infeasible on one device), so refuse
            // up front only on capacity: when every lane's queue is at its
            // bound there is nowhere to put even the first child.  Deadline
            // admission is deliberately optimistic here — the model prices
            // whole jobs, not slabs, and a refusal based on the unsplit
            // footprint would reject exactly the jobs splitting rescues.
            if !self.lanes.iter().any(Lane::has_space) {
                let bounds = self
                    .lanes
                    .iter()
                    .filter_map(|l| l.service.policy().queue_bound);
                let bound = bounds.min().unwrap_or(0);
                return Err(Rejected::QueueFull(Box::new(QueueFull { bound, job })));
            }
            return Ok(self.submit(job));
        }
        let lane = &self.lanes[self.select_lane()];
        let cost = self.cost_model().weigh_job(&job, self.default_tolerances);
        lane.service
            .try_submit_charged(job, Some(lane.outstanding.charge(cost)))
    }

    /// Dispatch `job` to lane `lane_index`, charging `cost` to its ledger
    /// until the job completes: the job's weight under the shared
    /// [`CostModel`], or a slab child's [`crate::slab_weights`] share.
    fn submit_weighted(&self, lane_index: usize, job: BatchJob, cost: f64) -> JobHandle {
        let lane = &self.lanes[lane_index];
        lane.service
            .submit_charged(job, Some(lane.outstanding.charge(cost)))
    }

    /// The memory budget a slab must fit: the smallest lane's capacity,
    /// since a slab child may land on any lane.
    fn slab_budget(&self) -> Option<u64> {
        self.lanes
            .iter()
            .map(|lane| lane.service.device().config().memory_capacity as u64)
            .min()
    }

    /// Run a fixed batch of jobs across the pool, returning outputs in job
    /// order.
    ///
    /// The batch is planned up front with [`plan_dispatch`], so the
    /// job-to-device assignment is a pure function of the job list, the
    /// dispatch mode and the shared [`CostModel`]'s state at planning time —
    /// no completion-timing dependence, unlike streaming
    /// [`MultiDeviceService::submit`] whose cost-balanced placement races
    /// completions.  (On a fresh service the model is cold and the plan
    /// reduces to the static [`estimated_cost`] weights — the fully
    /// reproducible case the pinning tests use.)
    #[must_use]
    pub fn integrate_batch(&self, jobs: &[BatchJob]) -> Vec<PaganiOutput> {
        let costs: Vec<f64> = jobs
            .iter()
            .map(|job| self.cost_model().weigh_job(job, self.default_tolerances))
            .collect();
        let plan = plan_dispatch(&costs, self.lanes.len(), self.mode);
        let handles: Vec<JobHandle> = jobs
            .iter()
            .zip(plan.into_iter().zip(costs))
            .map(|(job, (lane, cost))| self.submit_weighted(lane, job.clone(), cost))
            .collect();
        handles.iter().map(JobHandle::wait).collect()
    }

    /// Graceful shutdown: every lane drains its submitted jobs and joins its
    /// workers.  Handles issued before the call remain valid.
    pub fn shutdown(self) {
        for lane in self.lanes {
            lane.service.shutdown();
        }
    }
}

/// PAGANI running over a static partition of the domain across several devices.
#[derive(Debug, Clone)]
pub struct MultiDevicePagani {
    devices: Vec<Device>,
    config: PaganiConfig,
}

/// Result of a multi-device run: the combined result plus each device's output.
#[derive(Debug, Clone)]
pub struct MultiDeviceOutput {
    /// Combined estimate across all slabs.
    pub result: IntegrationResult,
    /// Per-device outputs, in slab order.
    pub per_device: Vec<PaganiOutput>,
}

impl MultiDevicePagani {
    /// Create a multi-device integrator over `devices`.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    #[must_use]
    pub fn new(devices: Vec<Device>, config: PaganiConfig) -> Self {
        assert!(!devices.is_empty(), "at least one device is required");
        Self { devices, config }
    }

    /// Cut `root` into one slab per device by repeatedly halving the widest axis.
    #[must_use]
    pub fn partition(root: &Region, parts: usize) -> Vec<Region> {
        let mut slabs = vec![root.clone()];
        while slabs.len() < parts {
            // Split the slab with the largest volume along its widest axis.
            let (idx, _) = slabs
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.volume()
                        .partial_cmp(&b.volume())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("slab list is never empty");
            let slab = slabs.swap_remove(idx);
            let widest = (0..slab.dim())
                .max_by(|&a, &b| {
                    slab.extent(a)
                        .partial_cmp(&slab.extent(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("regions have at least one axis");
            let (lo, hi) = slab.split(widest);
            slabs.push(lo);
            slabs.push(hi);
        }
        slabs
    }

    /// Integrate `f` over its default bounds.
    pub fn integrate<F: Integrand + Sync + ?Sized>(&self, f: &F) -> MultiDeviceOutput {
        let (lo, hi) = f.default_bounds();
        self.integrate_region(f, &Region::new(lo, hi))
    }

    /// Integrate `f` over an explicit region, one slab per device, concurrently.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ.
    pub fn integrate_region<F: Integrand + Sync + ?Sized>(
        &self,
        f: &F,
        region: &Region,
    ) -> MultiDeviceOutput {
        ensure_matching_dims(f, region);
        let start = Instant::now();
        let slabs = Self::partition(region, self.devices.len());

        let per_device: Vec<PaganiOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .devices
                .iter()
                .zip(&slabs)
                .map(|(device, slab)| {
                    let pagani = Pagani::new(device.clone(), self.config.clone());
                    scope.spawn(move || pagani.integrate_region(f, slab))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("device worker panicked"))
                .collect()
        });

        MultiDeviceOutput {
            result: combine_results(
                per_device.iter().map(|o| &o.result),
                self.config.tolerances,
                start.elapsed(),
            ),
            per_device,
        }
    }
}

/// The slab-composition fold shared by [`MultiDevicePagani::integrate_region`]
/// and the services' slab path (`slab.rs`): sum estimates, errors and counters
/// over the slab results **in slab order** (the fold order is part of the
/// bit-determinism contract — f64 addition does not commute in the last ulp).
///
/// The combined run converged if every slab did, or if the summed errors
/// happen to satisfy the tolerance anyway.
pub(crate) fn combine_results<'a>(
    results: impl Iterator<Item = &'a IntegrationResult>,
    tolerances: Tolerances,
    wall_time: Duration,
) -> IntegrationResult {
    let mut estimate = 0.0;
    let mut error = 0.0;
    let mut function_evaluations = 0;
    let mut regions_generated = 0;
    let mut iterations = 0;
    let mut active_final = 0;
    let mut worst_termination = Termination::Converged;
    for result in results {
        estimate += result.estimate;
        error += result.error_estimate;
        function_evaluations += result.function_evaluations;
        regions_generated += result.regions_generated;
        iterations = iterations.max(result.iterations);
        active_final += result.active_regions_final;
        if !result.converged() {
            worst_termination = result.termination;
        }
    }
    let termination = if worst_termination == Termination::Converged
        || tolerances.satisfied_by(estimate, error)
    {
        Termination::Converged
    } else {
        worst_termination
    };
    IntegrationResult {
        estimate,
        error_estimate: error,
        termination,
        iterations,
        function_evaluations,
        regions_generated,
        active_regions_final: active_final,
        wall_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::{Device, DeviceConfig};
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::Tolerances;
    use proptest::prelude::*;

    fn devices(n: usize) -> Vec<Device> {
        (0..n)
            .map(|_| Device::new(DeviceConfig::test_small().with_memory_capacity(16 << 20)))
            .collect()
    }

    #[test]
    fn partition_covers_the_domain() {
        let root = Region::unit_cube(3);
        for parts in [1, 2, 3, 4, 7] {
            let slabs = MultiDevicePagani::partition(&root, parts);
            assert_eq!(slabs.len(), parts.max(1));
            let total: f64 = slabs.iter().map(Region::volume).sum();
            assert!((total - 1.0).abs() < 1e-12, "parts = {parts}");
        }
    }

    #[test]
    fn partition_splits_the_widest_axis_first() {
        let root = Region::new(vec![0.0, 0.0], vec![4.0, 1.0]);
        let slabs = MultiDevicePagani::partition(&root, 2);
        // The 4-unit-wide axis 0 must have been cut, not axis 1.
        assert!(slabs.iter().all(|s| (s.extent(0) - 2.0).abs() < 1e-12));
        assert!(slabs.iter().all(|s| (s.extent(1) - 1.0).abs() < 1e-12));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `partition` is a disjoint exact cover that cuts the widest axis
        /// first, and `slab_weights` conserves the whole-job cost exactly.
        #[test]
        fn prop_partition_is_a_disjoint_exact_cover_with_conserved_weights(
            extents in proptest::collection::vec(0.5f64..4.0, 1..5),
            parts in 1usize..=12,
            cost_units in 1u64..1_000_000u64,
        ) {
            let dim = extents.len();
            let root = Region::new(vec![0.0; dim], extents.clone());
            let slabs = MultiDevicePagani::partition(&root, parts);
            prop_assert_eq!(slabs.len(), parts.max(1));

            // Exact cover, half one: volumes sum back to the root volume.
            let total: f64 = slabs.iter().map(Region::volume).sum();
            prop_assert!((total - root.volume()).abs() <= 1e-12 * root.volume());

            // Exact cover, half two + pairwise disjointness: every slab lies
            // inside the root, and each slab's centre is contained in
            // exactly one slab (itself) under the half-open convention.
            let contains = |s: &Region, p: &[f64]| {
                (0..dim).all(|a| s.lo()[a] <= p[a] && p[a] < s.hi()[a])
            };
            for slab in &slabs {
                for a in 0..dim {
                    prop_assert!(slab.lo()[a] >= root.lo()[a] && slab.hi()[a] <= root.hi()[a]);
                }
                let centre: Vec<f64> = (0..dim)
                    .map(|a| 0.5 * (slab.lo()[a] + slab.hi()[a]))
                    .collect();
                let owners = slabs.iter().filter(|s| contains(s, &centre)).count();
                prop_assert!(owners == 1, "slab centres must have a unique owner");
            }

            // Widest-axis-first: any actual split must have cut the root's
            // strictly widest axis, so no slab keeps its full extent.
            if parts >= 2 {
                let widest = (0..dim)
                    .max_by(|&a, &b| {
                        root.extent(a)
                            .partial_cmp(&root.extent(b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("root has at least one axis");
                let strictly_widest = (0..dim)
                    .all(|a| a == widest || root.extent(a) < root.extent(widest) - 1e-9);
                if strictly_widest {
                    for slab in &slabs {
                        prop_assert!(
                            slab.extent(widest) < root.extent(widest) - 1e-12,
                            "the widest axis was never split"
                        );
                    }
                }
            }

            // Cost apportionment: integer weights, none negative, and their
            // sum is *bit-exactly* the whole-job cost.
            let total_cost = cost_units as f64;
            let weights = crate::cost::slab_weights(total_cost, &slabs);
            prop_assert_eq!(weights.len(), slabs.len());
            for &w in &weights {
                prop_assert!(w >= 0.0 && w.fract() == 0.0);
            }
            let sum: f64 = weights.iter().sum();
            prop_assert_eq!(sum.to_bits(), total_cost.to_bits());
        }
    }

    #[test]
    fn two_devices_match_the_single_device_answer() {
        let integrand = PaperIntegrand::f4(3);
        let config = PaganiConfig::test_small(Tolerances::rel(1e-5));
        let single = Pagani::new(devices(1).pop().unwrap(), config.clone()).integrate(&integrand);
        let multi = MultiDevicePagani::new(devices(2), config).integrate(&integrand);
        assert!(single.result.converged());
        assert!(multi.result.converged());
        let reference = integrand.reference_value();
        assert!(multi.result.true_relative_error(reference) < 1e-5);
        assert!(
            (multi.result.estimate - single.result.estimate).abs()
                <= single.result.error_estimate + multi.result.error_estimate
        );
        assert_eq!(multi.per_device.len(), 2);
    }

    #[test]
    fn four_devices_extend_the_usable_memory() {
        // Each tiny device alone cannot hold the region list needed at this precision;
        // four of them together can, because every slab is a quarter of the domain.
        let integrand = PaperIntegrand::f4(4);
        let tol = Tolerances::rel(1e-4);
        let tiny = || Device::new(DeviceConfig::test_small().with_memory_capacity(3 << 20));
        let single = Pagani::new(tiny(), PaganiConfig::test_small(tol)).integrate(&integrand);
        let multi = MultiDevicePagani::new(
            (0..4).map(|_| tiny()).collect(),
            PaganiConfig::test_small(tol),
        )
        .integrate(&integrand);
        // The multi-device run must never do worse than the single device.
        if single.result.converged() {
            assert!(multi.result.converged());
        }
        assert!(multi.result.estimate.is_finite());
        assert!(
            multi
                .result
                .true_relative_error(integrand.reference_value())
                <= single
                    .result
                    .true_relative_error(integrand.reference_value())
                    .max(1e-4)
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_pool_is_rejected() {
        let _ = MultiDevicePagani::new(Vec::new(), PaganiConfig::default());
    }

    #[test]
    fn estimated_cost_is_monotone_in_dim_and_digits() {
        // More dimensions cost more at a fixed tolerance…
        for dim in 2..8 {
            assert!(
                estimated_cost(dim + 1, Tolerances::rel(1e-4))
                    > estimated_cost(dim, Tolerances::rel(1e-4)),
                "dim {dim}"
            );
        }
        // …and tighter tolerances cost more at a fixed dimension.
        assert!(
            estimated_cost(4, Tolerances::rel(1e-6)) > estimated_cost(4, Tolerances::rel(1e-3))
        );
        assert!(estimated_cost(4, Tolerances::rel(1e-3)).is_finite());
        // The extremes stay finite (MC accepts any dimension): an infinite
        // charge would retire as `inf - inf = NaN` and poison least-loaded
        // dispatch forever, so the model must saturate instead.
        for dim in [30, 147, 1000, usize::MAX >> 32] {
            let cost = estimated_cost(dim, Tolerances::rel(1e-12));
            assert!(cost.is_finite(), "dim {dim} produced {cost}");
            assert!(cost - cost == 0.0, "dim {dim}: charge/retire must cancel");
        }
        // Mixed-magnitude charge/retire cycles cancel exactly: costs are
        // integer-valued and range-bounded, so the outstanding-cost ledger
        // cannot drift negative through f64 absorption (the failure mode
        // where `huge + tiny == huge` but the later `-= tiny` still lands).
        let huge = estimated_cost(1000, Tolerances::rel(1e-12));
        let tiny = estimated_cost(2, Tolerances::rel(1e-1));
        let mut ledger = 0.0f64;
        ledger += huge;
        ledger += tiny;
        ledger -= huge;
        ledger -= tiny;
        assert_eq!(ledger, 0.0, "ledger drifted: {ledger}");
    }

    #[test]
    fn job_cost_uses_the_method_override_tolerances() {
        let loose = BatchJob::new(PaperIntegrand::f4(4));
        let job_default = estimated_job_cost(&loose, Tolerances::rel(1e-3));
        let job_tight_default = estimated_job_cost(&loose, Tolerances::rel(1e-8));
        assert!(job_tight_default > job_default);
    }

    #[test]
    fn round_robin_plan_is_a_pure_function_of_the_index() {
        let costs = vec![1.0; 7];
        assert_eq!(
            plan_dispatch(&costs, 3, DispatchMode::RoundRobin),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }

    #[test]
    fn cost_balanced_plan_beats_round_robin_makespan_on_a_skewed_batch() {
        // The adversarial mix for round-robin with 2 devices: heavy jobs on
        // even indices, trivial jobs on odd ones — round-robin piles every
        // heavy job onto device 0.
        let heavy = estimated_cost(5, Tolerances::rel(1e-4));
        let light = estimated_cost(2, Tolerances::rel(1e-3));
        let costs: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { heavy } else { light })
            .collect();
        let makespan = |plan: &[usize]| -> f64 {
            let mut per_lane = [0.0f64; 2];
            for (&lane, &cost) in plan.iter().zip(&costs) {
                per_lane[lane] += cost;
            }
            per_lane.iter().fold(0.0f64, |a, &b| a.max(b))
        };
        let rr = makespan(&plan_dispatch(&costs, 2, DispatchMode::RoundRobin));
        let balanced = makespan(&plan_dispatch(&costs, 2, DispatchMode::CostBalanced));
        assert!(
            balanced < 0.6 * rr,
            "cost-balanced makespan {balanced} must clearly beat round-robin {rr}"
        );
        // Sanity: both plans place every job.
        assert_eq!(
            plan_dispatch(&costs, 2, DispatchMode::CostBalanced).len(),
            16
        );
    }

    #[test]
    fn multi_device_service_batch_is_bit_identical_across_dispatch_modes() {
        let f4 = std::sync::Arc::new(PaperIntegrand::f4(3));
        let f3 = std::sync::Arc::new(PaperIntegrand::f3(4));
        let jobs: Vec<BatchJob> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    BatchJob::shared(f4.clone())
                } else {
                    BatchJob::shared(f3.clone())
                }
            })
            .collect();
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let mut per_mode = Vec::new();
        for mode in [DispatchMode::CostBalanced, DispatchMode::RoundRobin] {
            let service = ServiceBuilder::new(config.clone())
                .devices(devices(2))
                .dispatch(mode)
                .build_multi();
            assert_eq!(service.mode(), mode);
            let bits: Vec<u64> = service
                .integrate_batch(&jobs)
                .iter()
                .map(|o| o.result.estimate.to_bits())
                .collect();
            // All dispatched cost is retired once every handle has completed.
            assert!(service.outstanding_costs().iter().all(|&c| c.abs() < 1e-9));
            service.shutdown();
            per_mode.push(bits);
        }
        assert_eq!(
            per_mode[0], per_mode[1],
            "placement must never change a job's result on identical devices"
        );
    }

    #[test]
    fn streaming_submit_balances_outstanding_cost() {
        // Two lanes, four identical heavy submissions with nothing completing
        // in between (jobs are real, but dispatch happens immediately):
        // cost-balanced streaming must alternate lanes rather than pile up.
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let service = ServiceBuilder::new(config)
            .devices(devices(2))
            .build_multi();
        let handles: Vec<_> = (0..4)
            .map(|_| service.submit(BatchJob::new(PaperIntegrand::f4(3))))
            .collect();
        for handle in &handles {
            assert!(handle.wait().result.converged());
        }
        service.shutdown();
    }

    #[test]
    fn a_try_submit_refused_by_a_full_lane_leaves_its_ledger_exact() {
        use pagani_quadrature::FnIntegrand;
        use std::sync::atomic::{AtomicBool, Ordering};
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (s, r) = (Arc::clone(&started), Arc::clone(&release));
        let blocker = BatchJob::new(FnIntegrand::new(2, move |_: &[f64]| {
            s.store(true, Ordering::Release);
            while !r.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            1.0
        }));
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let service = ServiceBuilder::new(config.clone())
            .devices(devices(1))
            .workers(1)
            .queue_bound(1)
            .build_multi();
        // The cold model weighs with the static formula until a job ends.
        let weigh = |job: &BatchJob| service.cost_model().weigh_job(job, config.tolerances);
        let queued_job = BatchJob::new(PaperIntegrand::f4(3));
        let expected = weigh(&blocker) + weigh(&queued_job);
        // The blocker occupies the worker, the next job the one queue slot.
        let running = service.submit(blocker);
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let queued = service.submit(queued_job);
        let refused = service
            .try_submit(BatchJob::new(PaperIntegrand::f3(3)))
            .expect_err("the lane's queue is at its bound");
        let held = service.outstanding_costs();
        // Release before asserting, so a failure cannot strand the worker.
        release.store(true, Ordering::Release);
        assert!(matches!(refused, Rejected::QueueFull(_)), "{refused:?}");
        assert_eq!(held, vec![expected]);
        assert!(running.wait().result.converged());
        assert!(queued.wait().result.converged());
        assert_eq!(service.outstanding_costs(), vec![0.0]);
        service.shutdown();
    }

    #[test]
    fn batch_shards_across_devices_and_matches_single_device_results() {
        let f4 = std::sync::Arc::new(PaperIntegrand::f4(3));
        let f3 = std::sync::Arc::new(PaperIntegrand::f3(3));
        let jobs = [
            BatchJob::shared(f4.clone()),
            BatchJob::shared(f3.clone()),
            BatchJob::shared(f4.clone()),
            BatchJob::shared(f3.clone()),
            BatchJob::shared(f4.clone()),
        ];
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let multi = ServiceBuilder::new(config.clone())
            .devices(devices(2))
            .build_multi();
        let outputs = multi.integrate_batch(&jobs);
        multi.shutdown();
        assert_eq!(outputs.len(), jobs.len());
        // Every output matches the same job run alone on an equivalent device.
        let lone_f4 = Pagani::new(devices(1).pop().unwrap(), config.clone()).integrate(f4.as_ref());
        let lone_f3 = Pagani::new(devices(1).pop().unwrap(), config).integrate(f3.as_ref());
        for (i, output) in outputs.iter().enumerate() {
            let reference = if i % 2 == 0 { &lone_f4 } else { &lone_f3 };
            assert_eq!(
                output.result.estimate.to_bits(),
                reference.result.estimate.to_bits(),
                "job {i} diverged from its single-device run"
            );
        }
    }

    #[test]
    fn empty_multi_device_batch_is_empty() {
        let multi = ServiceBuilder::new(PaganiConfig::default())
            .devices(devices(2))
            .build_multi();
        assert!(multi.integrate_batch(&[]).is_empty());
        multi.shutdown();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// §4.4 composition: on single-sign Genz integrands, integrating each
        /// slab to the full relative tolerance composes into the global
        /// tolerance (the Lemma 3.1 argument applied across devices) — for
        /// any device count and any integrand dimension.
        #[test]
        fn prop_slab_results_compose_to_the_global_tolerance(
            device_count in 1usize..5,
            dim in 2usize..4,
            family in 0usize..2,
        ) {
            let f = if family == 0 {
                PaperIntegrand::f4(dim)
            } else {
                PaperIntegrand::f3(dim)
            };
            let tol = 1e-3;
            let multi = MultiDevicePagani::new(
                devices(device_count),
                PaganiConfig::test_small(Tolerances::rel(tol)),
            )
            .integrate(&f);
            prop_assert!(multi.result.converged(), "{:?}", multi.result.termination);
            prop_assert_eq!(multi.per_device.len(), device_count);
            // The combined estimate is exactly the slab sum (same fold order).
            let slab_sum: f64 = multi.per_device.iter().map(|o| o.result.estimate).sum();
            prop_assert_eq!(slab_sum.to_bits(), multi.result.estimate.to_bits());
            // Every slab satisfied its own tolerance, and the composition
            // holds against the analytic reference.
            let true_err = multi.result.true_relative_error(f.reference_value());
            prop_assert!(true_err < tol, "true rel err {} vs {}", true_err, tol);
        }
    }
}
