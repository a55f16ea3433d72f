//! The PAGANI driver: Algorithm 2 of the paper.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pagani_device::{scan, Device, DeviceError};
use pagani_persist::{Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION};
use pagani_quadrature::two_level::refine_generation;
use pagani_quadrature::{GenzMalik, Integrand, IntegrationResult, Region, Termination};

use crate::arena::ScratchArena;
use crate::classify::{active_count, rel_err_classify_into};
use crate::config::{HeuristicFiltering, PaganiConfig};
use crate::evaluate::evaluate_all_in;
use crate::integrator::{check_cancelled, ensure_matching_dims};
use crate::region_list::RegionList;
use crate::resume::{ResumableOutput, ResumeError};
use crate::threshold::{threshold_classify, ThresholdPolicy};
use crate::trace::{ExecutionTrace, IterationRecord, ThresholdSearchRecord, ThresholdTrigger};

/// A cooperative cancellation flag shared between a running integration and
/// its canceller.
///
/// The driver polls the token at every iteration boundary; once cancelled, the
/// run stops within one breadth-first iteration and reports
/// [`Termination::Cancelled`] together with the best cumulative estimate seen
/// so far.  Cloning shares the flag.  A token that is never cancelled has no
/// observable effect on a run — results are bit-identical with and without
/// one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation.  Idempotent; takes effect at the next iteration
    /// boundary of any run holding a clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Result of a PAGANI run: the standard integration result plus the execution trace.
#[derive(Debug, Clone)]
pub struct PaganiOutput {
    /// Estimate, error estimate, termination status and counters.
    pub result: IntegrationResult,
    /// Per-iteration statistics and threshold-search probes (empty when
    /// `collect_trace` is disabled).
    pub trace: ExecutionTrace,
}

/// The loop-carried scalars of Algorithm 2: everything a [`Snapshot`]
/// records besides the region tree.  `Copy`, so saving the iteration-entry
/// state every generation costs no float arithmetic and no heap traffic.
#[derive(Clone, Copy)]
struct LoopState {
    /// Finished-region accumulators (v_f, e_f).
    finished_estimate: f64,
    finished_error: f64,
    /// Error frozen specifically by the heuristic threshold classification.
    /// It is capped at half of the allowed total error so that relative-error
    /// filtering (whose commitments are proportional to the frozen integral
    /// mass) always has headroom left and convergence is never ruled out by
    /// the heuristic alone.
    threshold_frozen_error: f64,
    function_evaluations: u64,
    regions_generated: u64,
    previous_cumulative: Option<f64>,
    /// Best cumulative estimates seen so far (active + finished); this is
    /// what a non-converged run reports, matching the paper's "return the
    /// latest integral and error estimate with a flag" behaviour (§3.5.2).
    latest_estimate: f64,
    latest_error: f64,
}

/// Where the driver loop starts: the live generation, the parent integrals
/// aligned with its sibling layout (`None` when it has no parents), the loop
/// state and the first iteration to run.
struct LoopStart {
    list: RegionList,
    parent_integrals: Option<Vec<f64>>,
    state: LoopState,
    iteration: usize,
}

impl LoopStart {
    /// A fresh run from the initial split.
    fn fresh(list: RegionList) -> Self {
        let state = LoopState {
            finished_estimate: 0.0,
            finished_error: 0.0,
            threshold_frozen_error: 0.0,
            function_evaluations: 0,
            regions_generated: list.len() as u64,
            previous_cumulative: None,
            latest_estimate: 0.0,
            latest_error: f64::INFINITY,
        };
        LoopStart {
            list,
            parent_integrals: None,
            state,
            iteration: 0,
        }
    }

    /// A resumed run: `list` holds `snapshot`'s geometry.
    fn resumed(list: RegionList, snapshot: &Snapshot) -> Self {
        let state = LoopState {
            finished_estimate: snapshot.finished_estimate,
            finished_error: snapshot.finished_error,
            threshold_frozen_error: snapshot.threshold_frozen_error,
            function_evaluations: snapshot.function_evaluations,
            regions_generated: snapshot.regions_generated,
            previous_cumulative: snapshot.previous_cumulative,
            latest_estimate: snapshot.latest_estimate,
            latest_error: snapshot.latest_error,
        };
        LoopStart {
            list,
            parent_integrals: snapshot.parent_integrals.clone(),
            state,
            iteration: snapshot.next_iteration,
        }
    }
}

/// What (if anything) to snapshot during a run.  `None` is the plain path:
/// no capture code runs at all, so non-resumable results stay bit-identical
/// to what they were before snapshots existed.
struct SnapshotPlan<'a> {
    /// Capture a checkpoint every this many generations (0 = only capture at
    /// exit points).
    checkpoint_every: usize,
    integrand_id: String,
    region: &'a Region,
}

/// What one snapshot records besides the live list: a periodic checkpoint,
/// or the exit capture a `break` leaves for the one block after the loop.
#[derive(Clone, Copy)]
struct Capture {
    /// The iteration-entry state, or the current one.
    state: LoopState,
    next_iteration: usize,
    converged: bool,
    /// Whether the parent integrals still pair with the live list (not after
    /// a failed split, which leaves the filtered survivors).
    keep_parents: bool,
}

/// The PAGANI integrator.
///
/// A `Pagani` instance owns a handle to the simulated device and a configuration and
/// can integrate any number of integrands; each [`Pagani::integrate`] call is
/// independent, matching the paper's timing methodology of excluding one-time device
/// setup from the measured interval.
#[derive(Debug, Clone)]
pub struct Pagani {
    device: Device,
    config: PaganiConfig,
}

impl Pagani {
    /// Create an integrator on `device` with `config`.
    #[must_use]
    pub fn new(device: Device, config: PaganiConfig) -> Self {
        Self { device, config }
    }

    /// Create an integrator on the paper's V100-like device.
    #[must_use]
    pub fn with_default_device(config: PaganiConfig) -> Self {
        Self::new(Device::v100_like(), config)
    }

    /// The device this integrator runs on.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PaganiConfig {
        &self.config
    }

    /// Integrate `f` over its default bounds (the unit cube for the paper's suite).
    pub fn integrate<F: Integrand + ?Sized>(&self, f: &F) -> PaganiOutput {
        let (lo, hi) = f.default_bounds();
        self.integrate_region(f, &Region::new(lo, hi))
    }

    /// Integrate `f` over an explicit region.
    ///
    /// # Panics
    /// Panics if the region dimension does not match the integrand dimension.
    pub fn integrate_region<F: Integrand + ?Sized>(&self, f: &F, region: &Region) -> PaganiOutput {
        self.integrate_region_in(f, region, &ScratchArena::default())
    }

    /// Integrate `f` over an explicit region, drawing scratch storage from `arena`.
    ///
    /// # Panics
    /// Panics if the region dimension does not match the integrand dimension.
    pub fn integrate_region_in<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        arena: &ScratchArena,
    ) -> PaganiOutput {
        self.integrate_region_with(f, region, arena, &CancelToken::new())
    }

    /// Integrate `f` over an explicit region with scratch storage from `arena`
    /// and cooperative cancellation through `cancel`.
    ///
    /// This is the full-control entry point the [`crate::service`] workers
    /// use.  The token is polled once per breadth-first iteration, so a
    /// cancellation lands within one driver iteration; the run then reports
    /// [`Termination::Cancelled`] with the latest cumulative estimates.  An
    /// uncancelled token leaves results bit-identical to
    /// [`Pagani::integrate_region_in`].
    ///
    /// # Panics
    /// Panics if the region dimension does not match the integrand dimension.
    pub fn integrate_region_with<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        arena: &ScratchArena,
        cancel: &CancelToken,
    ) -> PaganiOutput {
        self.run_fresh(f, region, arena, cancel, None).output
    }

    /// Integrate `f` over an explicit region while capturing resumable
    /// [`Snapshot`]s of the region tree.
    ///
    /// `checkpoint_every > 0` captures a checkpoint every that many
    /// generations (state "about to run generation k"); `0` captures only at
    /// exit points.  Either way the returned
    /// [`final_snapshot`](ResumableOutput::final_snapshot) holds the tree at
    /// the end of the run whenever it is still resumable — after
    /// cancellation, memory or iteration exhaustion, and after convergence
    /// (so a tighter-tolerance request can warm-start from it).
    ///
    /// The result itself is bit-identical to
    /// [`Pagani::integrate_region_with`]: snapshot capture copies state but
    /// performs no float arithmetic.
    ///
    /// # Panics
    /// Panics if the region dimension does not match the integrand dimension.
    pub fn integrate_resumable<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        arena: &ScratchArena,
        cancel: &CancelToken,
        checkpoint_every: usize,
    ) -> ResumableOutput {
        let plan = SnapshotPlan {
            checkpoint_every,
            integrand_id: f.name(),
            region,
        };
        self.run_fresh(f, region, arena, cancel, Some(&plan))
    }

    /// Resume an integration from a [`Snapshot`], continuing exactly where
    /// the captured run stopped.
    ///
    /// The integrand must match the one the snapshot was taken from: the
    /// driver checks dimensionality, structural consistency and that every
    /// region is finite, non-degenerate and inside the root, but the
    /// function body itself is the caller's responsibility (snapshots store
    /// only the integrand's name).  Given the same integrand, configuration
    /// and an equivalently provisioned device, the continuation performs the
    /// same float operations in the same order as the uninterrupted run, so
    /// estimate/error/counters match it to the bit.
    ///
    /// # Errors
    /// Returns [`ResumeError`] when the snapshot does not fit this integrand
    /// or device rather than computing a wrong answer.
    pub fn resume_from<F: Integrand + ?Sized>(
        &self,
        f: &F,
        snapshot: &Snapshot,
        arena: &ScratchArena,
        cancel: &CancelToken,
    ) -> Result<ResumableOutput, ResumeError> {
        let start = Instant::now();
        snapshot.validate_geometry().map_err(|e| match e {
            SnapshotError::Schema(what) => ResumeError::Corrupt(what),
            _ => ResumeError::Corrupt("snapshot failed validation"),
        })?;
        if snapshot.dim != f.dim() {
            return Err(ResumeError::DimensionMismatch {
                expected: f.dim(),
                found: snapshot.dim,
            });
        }
        if snapshot.lefts.is_empty() {
            return Err(ResumeError::EmptySnapshot);
        }
        let region = Region::new(snapshot.region_lo.clone(), snapshot.region_hi.clone());
        let pool = self.device.memory().clone();
        let list = RegionList::from_flat_in(
            snapshot.dim,
            &snapshot.lefts,
            &snapshot.lengths,
            &pool,
            arena,
        )
        .map_err(|_| ResumeError::OutOfMemory)?;
        let plan = SnapshotPlan {
            checkpoint_every: 0,
            integrand_id: f.name(),
            region: &region,
        };
        let from = LoopStart::resumed(list, snapshot);
        Ok(self.run_from(f, arena, cancel, from, Some(&plan), start))
    }

    /// A run from the root `region`, the one fresh-start path behind
    /// [`Pagani::integrate_region_with`] (`plan: None`) and
    /// [`Pagani::integrate_resumable`].  A device too small for even the
    /// coarsest initial split ends the run at once with
    /// [`Termination::MemoryExhausted`].
    fn run_fresh<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        arena: &ScratchArena,
        cancel: &CancelToken,
        plan: Option<&SnapshotPlan<'_>>,
    ) -> ResumableOutput {
        ensure_matching_dims(f, region);
        let start = Instant::now();
        match self.start_list(f.dim(), region, arena) {
            Ok(list) => self.run_from(f, arena, cancel, LoopStart::fresh(list), plan, start),
            Err(_) => ResumableOutput {
                output: exhausted_at_start(start),
                checkpoints: Vec::new(),
                final_snapshot: None,
            },
        }
    }

    /// Initial uniform split (Algorithm 2, lines 2-4), backing off the
    /// per-axis split count under memory pressure.
    fn start_list(
        &self,
        dim: usize,
        region: &Region,
        arena: &ScratchArena,
    ) -> Result<RegionList, DeviceError> {
        let pool = self.device.memory().clone();
        let mut d = self.config.resolve_splits_per_axis(dim);
        loop {
            match RegionList::initial_split_in(region, d, &pool, arena) {
                Ok(list) => return Ok(list),
                Err(DeviceError::OutOfDeviceMemory { .. }) if d > 1 => d -= 1,
                Err(err) => return Err(err),
            }
        }
    }

    /// The breadth-first driver loop (Algorithm 2, lines 5-24), entered at
    /// `from.iteration` with the loop state of `from` — zeroed for a fresh
    /// run, restored from a snapshot for a resumed one.  With `plan: None`
    /// no capture code runs and the float path is exactly the historical
    /// `integrate_region_with` body.
    fn run_from<F: Integrand + ?Sized>(
        &self,
        f: &F,
        arena: &ScratchArena,
        cancel: &CancelToken,
        from: LoopStart,
        plan: Option<&SnapshotPlan<'_>>,
        start: Instant,
    ) -> ResumableOutput {
        let LoopStart {
            mut list,
            mut parent_integrals,
            mut state,
            iteration: first_iteration,
        } = from;
        let dim = list.dim();
        let rule = GenzMalik::new(dim);
        let pool = self.device.memory().clone();
        let tolerances = self.config.tolerances;
        let mut trace = ExecutionTrace::default();
        let mut checkpoints: Vec<Snapshot> = Vec::new();
        let mut iterations_run = first_iteration;
        let mut termination = Termination::MaxIterations;
        // What the `break` that ended the run asks the exit capture to record.
        let mut exit: Option<Capture> = None;

        for iteration in first_iteration..self.config.max_iterations {
            // Loop state as of the top of this iteration: every capture that
            // means "about to run iteration `iteration`" records it, so a
            // resumed run re-enters with untouched state.
            let at_entry = Capture {
                state,
                next_iteration: iteration,
                converged: false,
                keep_parents: true,
            };
            // --- Cooperative cancellation (iteration boundary). -----------------
            if let Some(cancelled) = check_cancelled(cancel) {
                termination = cancelled;
                exit = Some(at_entry);
                break;
            }
            if let Some(plan) = plan {
                if plan.checkpoint_every > 0
                    && iteration > first_iteration
                    && (iteration - first_iteration) % plan.checkpoint_every == 0
                {
                    checkpoints.push(self.capture_snapshot(
                        plan,
                        &list,
                        parent_integrals.as_deref(),
                        at_entry,
                    ));
                }
            }
            iterations_run = iteration + 1;

            // --- Evaluate all regions (line 10). --------------------------------
            let Ok(mut evaluation) = evaluate_all_in(&self.device, &rule, f, &list, arena) else {
                exit = Some(at_entry);
                break;
            };
            state.function_evaluations += evaluation.function_evaluations;

            // --- Two-level error refinement (line 11). --------------------------
            if self.config.two_level_errors {
                if let Some(parents) = &parent_integrals {
                    debug_assert_eq!(parents.len() * 2, evaluation.integrals.len());
                    self.device.timed_section("postprocess.refine_error", || {
                        refine_generation(&evaluation.integrals, &mut evaluation.errors, parents);
                    });
                }
            }
            let (integrals, errors) = (&evaluation.integrals, &evaluation.errors);

            // --- Relative-error classification (line 12). -----------------------
            let mut mask = arena.take_mask(integrals.len());
            self.device.timed_section("postprocess.classify", || {
                rel_err_classify_into(
                    integrals,
                    errors,
                    tolerances,
                    self.config.rel_err_filtering,
                    &mut mask,
                );
            });

            exit = 'generation: {
                // --- Global reductions and termination (lines 13-16). -----------
                let (iter_estimate, iter_error) =
                    self.device.timed_section("postprocess.reduce", || {
                        (
                            self.device.reduce_sum(integrals),
                            self.device.reduce_sum(errors),
                        )
                    });
                let cumulative_estimate = iter_estimate + state.finished_estimate;
                let cumulative_error = iter_error + state.finished_error;
                state.latest_estimate = cumulative_estimate;
                state.latest_error = cumulative_error;
                if tolerances.satisfied_by(cumulative_estimate, cumulative_error) {
                    termination = Termination::Converged;
                    self.push_iteration_record(
                        &mut trace,
                        iteration,
                        list.len(),
                        active_count(&mask),
                        &state,
                        false,
                    );
                    state.finished_estimate = cumulative_estimate;
                    state.finished_error = cumulative_error;
                    // Pre-fold state: resuming re-runs this generation, so a
                    // tighter tolerance can keep refining the same tree.
                    break 'generation Some(Capture {
                        converged: true,
                        ..at_entry
                    });
                }

                // --- Heuristic threshold classification (line 17, §3.5.2). ------
                let active_now = active_count(&mask);
                let estimate_converged = state.previous_cumulative.is_some_and(|prev| {
                    (cumulative_estimate - prev).abs() <= cumulative_estimate.abs() * tolerances.rel
                });
                // Splitting keeps the filtered copy and the doubled generation alive at
                // the same time as the current list, so require room for 3× the active
                // geometry on top of what is already allocated.
                let bytes_needed = RegionList::bytes_for(3 * active_now, dim);
                let memory_pressure = !pool.can_allocate(bytes_needed);
                let trigger = match self.config.heuristic_filtering {
                    HeuristicFiltering::Disabled => None,
                    HeuristicFiltering::MemoryExhaustionOnly => {
                        memory_pressure.then_some(ThresholdTrigger::MemoryPressure)
                    }
                    HeuristicFiltering::Full => {
                        if memory_pressure {
                            Some(ThresholdTrigger::MemoryPressure)
                        } else if estimate_converged {
                            Some(ThresholdTrigger::EstimateConverged)
                        } else {
                            None
                        }
                    }
                };
                let mut threshold_invoked = false;
                if let Some(trigger) = trigger {
                    let allowed_total_error =
                        (cumulative_estimate.abs() * tolerances.rel).max(tolerances.abs);
                    let headroom = allowed_total_error - state.finished_error;
                    let error_budget = match trigger {
                        // Integral already solved: be conservative so that relative-error
                        // filtering keeps enough headroom of its own.
                        ThresholdTrigger::EstimateConverged => {
                            headroom.min(0.5 * allowed_total_error - state.threshold_frozen_error)
                        }
                        // Memory is the binding constraint: spend whatever headroom is
                        // left rather than fail outright.
                        ThresholdTrigger::MemoryPressure => headroom,
                    };
                    let outcome = self.device.timed_section("threshold.search", || {
                        threshold_classify(
                            &mask,
                            errors,
                            error_budget,
                            iter_error,
                            ThresholdPolicy::default(),
                            arena,
                        )
                    });
                    threshold_invoked = true;
                    if self.config.collect_trace {
                        trace.threshold_searches.push(ThresholdSearchRecord {
                            iteration,
                            trigger,
                            probes: outcome.probes.clone(),
                            successful: outcome.successful,
                        });
                    }
                    if outcome.successful {
                        state.threshold_frozen_error += outcome.newly_committed_error;
                        arena.put_mask(std::mem::replace(&mut mask, outcome.mask));
                    }
                }

                // --- Accumulate finished contributions (lines 18-19). -----------
                let (active_estimate, active_error) =
                    self.device.timed_section("postprocess.reduce", || {
                        (
                            self.device.reduce_masked_sum(integrals, &mask),
                            self.device.reduce_masked_sum(errors, &mask),
                        )
                    });
                state.finished_estimate += iter_estimate - active_estimate;
                state.finished_error += iter_error - active_error;
                state.previous_cumulative = Some(cumulative_estimate);

                self.push_iteration_record(
                    &mut trace,
                    iteration,
                    list.len(),
                    active_count(&mask),
                    &state,
                    threshold_invoked,
                );

                // --- Filter out finished regions (line 20). ----------------------
                if active_count(&mask) == 0 {
                    // Everything was classified finished; the cumulative estimates are
                    // final.  (With same-sign estimates this implies convergence by
                    // Lemma 3.1; otherwise report the budget-based status.)
                    termination =
                        if tolerances.satisfied_by(state.finished_estimate, state.finished_error) {
                            Termination::Converged
                        } else {
                            Termination::MaxIterations
                        };
                    // The folded totals are final, but the pre-fold tree is
                    // still the right warm-start state for a tighter run.
                    break 'generation Some(Capture {
                        converged: termination == Termination::Converged,
                        ..at_entry
                    });
                }
                let filter_result = self
                    .device
                    .timed_section("filter.compact", || list.filter_in(&mask, &pool, arena));
                let Ok(filtered) = filter_result else {
                    termination = Termination::MemoryExhausted;
                    break 'generation Some(at_entry);
                };
                let mut active_integrals = arena.take_f64(active_now);
                scan::compact_by_mask_into(integrals, &mask, &mut active_integrals);
                let mut active_axes = arena.take_axes(active_now);
                scan::compact_by_mask_into(&evaluation.split_axes, &mask, &mut active_axes);
                list.retire(arena);

                // --- Update parents and split every active region (lines 21-23). -
                let split_result = self.device.timed_section("filter.split", || {
                    filtered.split_all_in(&active_axes, &pool, arena)
                });
                arena.put_axes(active_axes);
                match split_result {
                    Ok(children) => {
                        state.regions_generated += children.len() as u64;
                        if let Some(old) = parent_integrals.replace(active_integrals) {
                            arena.put_f64(old);
                        }
                        filtered.retire(arena);
                        list = children;
                        None
                    }
                    Err(_) => {
                        // Memory exhausted and no further subdivision possible
                        // (§3.5.2).  The pre-split geometry is gone: persist the
                        // filtered survivors with this iteration's state instead.
                        // No parents: the first resumed generation skips
                        // two-level refinement.
                        termination = Termination::MemoryExhausted;
                        arena.put_f64(active_integrals);
                        list = filtered;
                        Some(Capture {
                            state,
                            next_iteration: iterations_run,
                            converged: false,
                            keep_parents: false,
                        })
                    }
                }
            };

            // --- Shelve this generation's arrays for the next one. ---------------
            evaluation.retire(arena);
            arena.put_mask(mask);
            if exit.is_some() {
                break;
            }
        }
        // The one exit capture.  With no `break`, the iteration budget ran out
        // and the surviving generation is still a valid resume point.
        let final_snapshot = plan.map(|plan| {
            let capture = exit.unwrap_or(Capture {
                state,
                next_iteration: iterations_run,
                converged: false,
                keep_parents: true,
            });
            self.capture_snapshot(plan, &list, parent_integrals.as_deref(), capture)
        });
        // The surviving list and parent array go back to the arena so the next
        // job on this arena starts from recycled storage.
        list.retire(arena);
        if let Some(parents) = parent_integrals {
            arena.put_f64(parents);
        }

        // A converged run already folded everything into the finished accumulators; a
        // non-converged run reports the latest cumulative (active + finished) totals.
        let (estimate, error_estimate) = if termination == Termination::Converged {
            (state.finished_estimate, state.finished_error)
        } else {
            (state.latest_estimate, state.latest_error)
        };
        let result = IntegrationResult {
            estimate,
            error_estimate,
            termination,
            iterations: iterations_run,
            function_evaluations: state.function_evaluations,
            regions_generated: state.regions_generated,
            active_regions_final: trace
                .iterations
                .last()
                .map_or(0, |r| r.active_after_classify),
            wall_time: start.elapsed(),
        };
        ResumableOutput {
            output: PaganiOutput { result, trace },
            checkpoints,
            final_snapshot,
        }
    }

    /// Copy driver state into a [`Snapshot`].  Pure data movement — no float
    /// arithmetic — so capture cannot perturb the result.
    fn capture_snapshot(
        &self,
        plan: &SnapshotPlan<'_>,
        list: &RegionList,
        parent_integrals: Option<&[f64]>,
        capture: Capture,
    ) -> Snapshot {
        let state = capture.state;
        Snapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            integrand_id: plan.integrand_id.clone(),
            region_lo: plan.region.lo().to_vec(),
            region_hi: plan.region.hi().to_vec(),
            rel_tol: self.config.tolerances.rel,
            abs_tol: self.config.tolerances.abs,
            converged: capture.converged,
            dim: list.dim(),
            lefts: list.lefts().to_vec(),
            lengths: list.lengths().to_vec(),
            parent_integrals: parent_integrals
                .filter(|_| capture.keep_parents)
                .map(<[f64]>::to_vec),
            finished_estimate: state.finished_estimate,
            finished_error: state.finished_error,
            threshold_frozen_error: state.threshold_frozen_error,
            function_evaluations: state.function_evaluations,
            regions_generated: state.regions_generated,
            previous_cumulative: state.previous_cumulative,
            next_iteration: capture.next_iteration,
            latest_estimate: state.latest_estimate,
            latest_error: state.latest_error,
        }
    }

    /// Record one iteration; the cumulative totals are the state's latest.
    fn push_iteration_record(
        &self,
        trace: &mut ExecutionTrace,
        iteration: usize,
        regions_processed: usize,
        active_after_classify: usize,
        state: &LoopState,
        threshold_invoked: bool,
    ) {
        if !self.config.collect_trace {
            return;
        }
        trace.iterations.push(IterationRecord {
            iteration,
            regions_processed,
            active_after_classify,
            cumulative_estimate: state.latest_estimate,
            cumulative_error: state.latest_error,
            finished_estimate: state.finished_estimate,
            finished_error: state.finished_error,
            memory_used: self.device.memory().usage().used,
            threshold_invoked,
        });
    }
}

/// The output of a run whose initial split did not fit in device memory.
fn exhausted_at_start(start: Instant) -> PaganiOutput {
    PaganiOutput {
        result: IntegrationResult {
            estimate: 0.0,
            error_estimate: 0.0,
            termination: Termination::MemoryExhausted,
            iterations: 0,
            function_evaluations: 0,
            regions_generated: 0,
            active_regions_final: 0,
            wall_time: start.elapsed(),
        },
        trace: ExecutionTrace::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::{Device, DeviceConfig};
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_integrands::workloads::GaussianLikelihood;
    use pagani_quadrature::{FnIntegrand, Tolerances};

    fn test_pagani(tol: f64) -> Pagani {
        Pagani::new(
            Device::test_small(),
            PaganiConfig::test_small(Tolerances::rel(tol)),
        )
    }

    #[test]
    fn constant_integrand_converges_immediately() {
        let pagani = test_pagani(1e-6);
        let f = FnIntegrand::new(3, |_: &[f64]| 4.0);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!((out.result.estimate - 4.0).abs() < 1e-9);
        assert_eq!(out.result.iterations, 1);
    }

    #[test]
    fn smooth_polynomial_reaches_tight_tolerance() {
        let pagani = test_pagani(1e-8);
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] * x[0] + x[1]);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!(out.result.true_relative_error(1.0 / 3.0 + 0.5) < 1e-8);
    }

    #[test]
    fn gaussian_5d_reaches_three_digits() {
        let f = PaperIntegrand::f4(5);
        let pagani = test_pagani(1e-3);
        let out = pagani.integrate(&f);
        assert!(out.result.converged(), "{:?}", out.result.termination);
        assert!(
            out.result.true_relative_error(f.reference_value()) < 1e-3,
            "true rel err {}",
            out.result.true_relative_error(f.reference_value())
        );
    }

    #[test]
    fn corner_peak_3d_reaches_five_digits() {
        let f = PaperIntegrand::f3(3);
        let pagani = test_pagani(1e-5);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!(out.result.true_relative_error(f.reference_value()) < 1e-5);
    }

    #[test]
    fn oscillatory_requires_disabling_rel_err_filtering() {
        let f = PaperIntegrand::f1(3);
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4)).without_rel_err_filtering();
        let pagani = Pagani::new(Device::test_small(), config);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!(out.result.true_relative_error(f.reference_value()) < 1e-4);
    }

    #[test]
    fn cosmology_likelihood_matches_closed_form() {
        let like = GaussianLikelihood::cosmology_like(3);
        let device = Device::new(DeviceConfig::test_small().with_memory_capacity(32 << 20));
        let pagani = Pagani::new(device, PaganiConfig::test_small(Tolerances::rel(1e-4)));
        let out = pagani.integrate(&like);
        assert!(out.result.converged(), "{:?}", out.result.termination);
        assert!(out.result.true_relative_error(like.reference_value()) < 1e-4);
    }

    #[test]
    fn estimated_error_bounds_true_error_for_suite_members() {
        // §4.2's requirement: the estimated relative error at termination should not
        // understate the true error for the well-behaved suite members.
        for f in [
            PaperIntegrand::f4(3),
            PaperIntegrand::f5(3),
            PaperIntegrand::f3(3),
        ] {
            let pagani = test_pagani(1e-4);
            let out = pagani.integrate(&f);
            assert!(out.result.converged(), "{}", f.label());
            let true_err = out.result.true_relative_error(f.reference_value());
            assert!(
                true_err <= 1e-4,
                "{}: true {} vs requested 1e-4",
                f.label(),
                true_err
            );
        }
    }

    #[test]
    fn trace_records_every_iteration() {
        let pagani = test_pagani(1e-5);
        let f = PaperIntegrand::f4(3);
        let out = pagani.integrate(&f);
        assert_eq!(out.trace.iterations.len(), out.result.iterations);
        assert!(out.trace.total_regions_processed() > 0);
        // Region counts per iteration never exceed the doubled predecessor.
        for pair in out.trace.iterations.windows(2) {
            assert!(pair[1].regions_processed <= 2 * pair[0].regions_processed);
        }
    }

    #[test]
    fn trace_collection_can_be_disabled() {
        let config = PaganiConfig::test_small(Tolerances::rel(1e-3));
        let config = PaganiConfig {
            collect_trace: false,
            ..config
        };
        let pagani = Pagani::new(Device::test_small(), config);
        let out = pagani.integrate(&PaperIntegrand::f4(3));
        assert!(out.trace.iterations.is_empty());
    }

    #[test]
    fn tiny_memory_forces_memory_exhaustion_or_threshold_rescue() {
        // A device with only a few KiB cannot hold many 5-D regions; PAGANI must either
        // rescue itself through threshold filtering or report memory exhaustion, never
        // panic or loop forever.
        let device = Device::new(DeviceConfig::test_small().with_memory_capacity(6 * 1024));
        let config = PaganiConfig::test_small(Tolerances::rel(1e-7));
        let pagani = Pagani::new(device, config);
        let f = PaperIntegrand::f4(5);
        let out = pagani.integrate(&f);
        match out.result.termination {
            Termination::Converged | Termination::MemoryExhausted | Termination::MaxIterations => {}
            other => panic!("unexpected termination {other:?}"),
        }
        assert!(out.result.estimate.is_finite());
    }

    #[test]
    fn heuristic_filtering_reduces_region_count_on_gaussian() {
        // Figure 8/9's mechanism: the heuristic must never hurt — it converges at
        // least as often as plain relative-error filtering and never needs more
        // regions, while retaining full accuracy.
        let f = PaperIntegrand::f4(4);
        let tol = Tolerances::rel(1e-4);
        let make_device = || Device::new(DeviceConfig::test_small().with_memory_capacity(32 << 20));
        let with = Pagani::new(
            make_device(),
            PaganiConfig::test_small(tol).with_heuristic_filtering(HeuristicFiltering::Full),
        )
        .integrate(&f);
        let without = Pagani::new(
            make_device(),
            PaganiConfig::test_small(tol).with_heuristic_filtering(HeuristicFiltering::Disabled),
        )
        .integrate(&f);
        if without.result.converged() {
            assert!(with.result.converged(), "heuristic lost a convergence");
            assert!(
                with.result.regions_generated <= without.result.regions_generated,
                "heuristic should not generate more regions ({} vs {})",
                with.result.regions_generated,
                without.result.regions_generated
            );
        }
        if with.result.converged() {
            assert!(with.result.true_relative_error(f.reference_value()) < 1e-4);
        } else {
            // At minimum the run must terminate cleanly with a finite estimate.
            assert!(with.result.estimate.is_finite());
        }
    }

    #[test]
    fn function_evaluation_counter_matches_rule_cost() {
        let pagani = test_pagani(1e-3);
        let f = PaperIntegrand::f4(3);
        let out = pagani.integrate(&f);
        let rule_points = pagani_quadrature::GenzMalik::new(3).num_points() as u64;
        assert_eq!(
            out.result.function_evaluations,
            out.trace.total_regions_processed() * rule_points
        );
    }

    #[test]
    fn kernel_profile_is_dominated_by_evaluate() {
        let device = Device::test_small();
        let pagani = Pagani::new(
            device.clone(),
            PaganiConfig::test_small(Tolerances::rel(1e-5)),
        );
        let _ = pagani.integrate(&PaperIntegrand::f4(4));
        let evaluate_fraction = device.profile().fraction_for_prefix("evaluate");
        assert!(
            evaluate_fraction > 0.3,
            "evaluate fraction {evaluate_fraction}"
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_iteration() {
        let pagani = test_pagani(1e-6);
        let f = FnIntegrand::new(3, |_: &[f64]| 4.0);
        let token = CancelToken::new();
        token.cancel();
        let out =
            pagani.integrate_region_with(&f, &Region::unit_cube(3), &ScratchArena::new(), &token);
        assert_eq!(out.result.termination, Termination::Cancelled);
        assert_eq!(out.result.iterations, 0);
        assert!(!out.result.converged());
    }

    #[test]
    fn uncancelled_token_is_bit_transparent() {
        let f = PaperIntegrand::f4(3);
        let plain = test_pagani(1e-4).integrate(&f);
        let with_token = test_pagani(1e-4).integrate_region_with(
            &f,
            &Region::unit_cube(3),
            &ScratchArena::new(),
            &CancelToken::new(),
        );
        assert_eq!(
            plain.result.estimate.to_bits(),
            with_token.result.estimate.to_bits()
        );
        assert_eq!(plain.result.iterations, with_token.result.iterations);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn mismatched_region_dimension_panics() {
        let pagani = test_pagani(1e-3);
        let f = FnIntegrand::new(2, |_: &[f64]| 1.0);
        let _ = pagani.integrate_region(&f, &Region::unit_cube(3));
    }
}
