//! The persistence layer end to end: cold run → free exact hit → warm-started
//! tighter-tolerance run.
//!
//! A service built by [`ServiceBuilder`] with a [`ResultCache`] attached
//! (`ServiceBuilder::cache`) persists every converged region tree into that
//! shared cache.  Resubmitting the same
//! request is then served from the cache without touching the device, and a
//! *tighter*-tolerance request for the same integral resumes from the cached
//! snapshot instead of rebuilding the tree from the root — the evaluations
//! banked by the looser run are saved outright.
//!
//! Run with `cargo run --release --example warm_start`.

use std::sync::Arc;

use pagani::prelude::*;

/// The shared workload: a 3-D Gaussian bump.  Cache keys include the
/// integrand's *name*, so give it a stable one.
fn bump() -> Arc<dyn Integrand + Send + Sync> {
    Arc::new(
        FnIntegrand::new(3, |x: &[f64]| {
            (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 25.0).exp()
        })
        .named("warm_start.bump"),
    )
}

/// A config that keeps every region active (no folding), so a converged
/// snapshot carries its whole tree and any tighter tolerance can build on it.
fn config(tolerances: Tolerances) -> PaganiConfig {
    PaganiConfig::test_small(tolerances)
        .without_rel_err_filtering()
        .with_heuristic_filtering(HeuristicFiltering::Disabled)
}

fn report(label: &str, out: &PaganiOutput) {
    println!(
        "{label:<28} est {:.10}  rel.err {:.2e}  evals {:>8}  {:>7.2} ms",
        out.result.estimate,
        out.result.relative_error_estimate(),
        out.result.function_evaluations,
        out.result.wall_time.as_secs_f64() * 1e3,
    );
}

fn main() {
    let device = Device::new(DeviceConfig::test_small().with_worker_threads(4));
    let cache = Arc::new(ResultCache::new(4 << 20));

    // ---- Cold run at a loose tolerance: pays full price, seeds the cache.
    let loose = ServiceBuilder::new(config(Tolerances::rel(1e-4)))
        .device(device.clone())
        .cache(Arc::clone(&cache))
        .build();
    let cold = loose.submit(BatchJob::shared(bump())).wait();
    report("cold @ rel 1e-4", &cold);

    // ---- Same request again: an exact hit, served without a single launch.
    let hit = loose.submit(BatchJob::shared(bump())).wait();
    report("exact hit @ rel 1e-4", &hit);
    let loose_metrics = loose.metrics();
    println!(
        "    cache: {} miss, {} hit, {} evaluations banked\n",
        loose_metrics.cache_misses, loose_metrics.cache_hits, loose_metrics.evals_saved
    );
    loose.shutdown();

    // ---- Tighter tolerance over the SAME cache: warm-starts from the
    //      persisted tree instead of starting from the root region.
    let tight = ServiceBuilder::new(config(Tolerances::rel(1e-6)))
        .device(device.clone())
        .cache(Arc::clone(&cache))
        .build();
    let warm = tight.submit(BatchJob::shared(bump())).wait();
    report("warm start @ rel 1e-6", &warm);
    let tight_metrics = tight.metrics();
    tight.shutdown();

    // What would the tighter run have cost from scratch?
    let reference = Pagani::new(device, config(Tolerances::rel(1e-6)));
    let scratch = reference.integrate(bump().as_ref());
    report("cold reference @ rel 1e-6", &scratch);

    let warm_new_evals = warm.result.function_evaluations - cold.result.function_evaluations;
    println!(
        "\nwarm starts: {}   evaluations saved by resuming: {} of {} ({}% of the tighter run)",
        tight_metrics.warm_starts,
        scratch.result.function_evaluations - warm_new_evals,
        scratch.result.function_evaluations,
        100 * (scratch.result.function_evaluations - warm_new_evals)
            / scratch.result.function_evaluations,
    );
}
