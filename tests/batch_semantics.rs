//! Batch- and service-execution semantics: concurrent execution must be a
//! pure throughput optimisation.  For every tested worker count, the outputs
//! of a batch run — and the completed results of service-submitted jobs — are
//! **bit-identical** to running the same jobs sequentially through the
//! single-shot API on the same device, and identical across worker counts,
//! extending the determinism guarantee of the execution substrate (PR 2) to
//! whole concurrent jobs.

use std::sync::Arc;

use pagani::prelude::*;

/// The value-carrying fields of an output; everything except wall time.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Fingerprint {
    estimate_bits: u64,
    error_bits: u64,
    termination: Termination,
    iterations: usize,
    function_evaluations: u64,
    regions_generated: u64,
    active_regions_final: usize,
    trace_len: usize,
}

fn fingerprint(output: &PaganiOutput) -> Fingerprint {
    Fingerprint {
        estimate_bits: output.result.estimate.to_bits(),
        error_bits: output.result.error_estimate.to_bits(),
        termination: output.result.termination,
        iterations: output.result.iterations,
        function_evaluations: output.result.function_evaluations,
        regions_generated: output.result.regions_generated,
        active_regions_final: output.result.active_regions_final,
        trace_len: output.trace.iterations.len(),
    }
}

mod common;
use common::{device_with_workers, worker_matrix};

/// A mixed single-sign workload: different families, dimensions and scales.
fn workload() -> Vec<Arc<PaperIntegrand>> {
    vec![
        Arc::new(PaperIntegrand::f3(3)),
        Arc::new(PaperIntegrand::f4(4)),
        Arc::new(PaperIntegrand::f5(3)),
        Arc::new(PaperIntegrand::f7(4)),
        Arc::new(PaperIntegrand::f4(3)),
        Arc::new(PaperIntegrand::f3(2)),
    ]
}

fn jobs_for(workload: &[Arc<PaperIntegrand>]) -> Vec<BatchJob> {
    workload
        .iter()
        .map(|f| BatchJob::shared(f.clone() as Arc<dyn Integrand + Send + Sync>))
        .collect()
}

fn config() -> PaganiConfig {
    PaganiConfig::test_small(Tolerances::rel(1e-4))
}

#[test]
fn batch_is_bit_identical_to_sequential_across_worker_counts() {
    let jobs_src = workload();
    let mut per_worker_fingerprints: Vec<Vec<Fingerprint>> = Vec::new();

    for workers in worker_matrix(&[1, 2, 8]) {
        let device = device_with_workers(workers);

        // Sequential reference: one job at a time through the plain API.
        let pagani = Pagani::new(device.clone(), config());
        let sequential: Vec<Fingerprint> = jobs_src
            .iter()
            .map(|f| fingerprint(&pagani.integrate(f.as_ref())))
            .collect();

        // The same jobs as one concurrent batch on the same device.
        let batched = pagani::integrate_batch(&device, &config(), &jobs_for(&jobs_src));
        let batched: Vec<Fingerprint> = batched.iter().map(fingerprint).collect();

        assert_eq!(
            sequential, batched,
            "batch diverged from sequential at worker_threads = {workers}"
        );
        per_worker_fingerprints.push(batched);
    }

    // And the whole batch is identical across worker counts (trivially so
    // when the env var pins a single count).
    for pair in per_worker_fingerprints.windows(2) {
        assert_eq!(pair[0], pair[1], "fingerprints differ across worker counts");
    }
}

#[test]
fn service_handles_are_bit_identical_to_sequential() {
    // The acceptance pin of the async front door: results delivered through
    // `IntegrationService::submit` handles match the sequential single-shot
    // API bit for bit, for every worker count.
    let jobs_src = workload();
    for workers in worker_matrix(&[1, 2, 8]) {
        let device = device_with_workers(workers);
        let pagani = Pagani::new(device.clone(), config());
        let sequential: Vec<Fingerprint> = jobs_src
            .iter()
            .map(|f| fingerprint(&pagani.integrate(f.as_ref())))
            .collect();

        let service = ServiceBuilder::new(config()).device(device).build();
        let handles: Vec<JobHandle> = jobs_for(&jobs_src)
            .into_iter()
            .map(|job| service.submit(job))
            .collect();
        let served: Vec<Fingerprint> = handles
            .iter()
            .map(|handle| fingerprint(&handle.wait()))
            .collect();
        service.shutdown();

        assert_eq!(
            sequential, served,
            "service results diverged from sequential at worker_threads = {workers}"
        );
    }
}

/// Submit every job to `service`, then wait for all of them in job order.
fn submit_and_wait(service: &IntegrationService, jobs: &[BatchJob]) -> Vec<PaganiOutput> {
    let handles: Vec<JobHandle> = jobs.iter().map(|job| service.submit(job.clone())).collect();
    handles.iter().map(JobHandle::wait).collect()
}

#[test]
fn repeated_batches_on_one_runner_are_bit_identical() {
    // Arena recycling across runs must not leak state into results: the
    // second batch on the same service must reproduce the first bit for bit.
    let jobs_src = workload();
    let jobs = jobs_for(&jobs_src);
    let service = ServiceBuilder::new(config())
        .device(device_with_workers(2))
        .build();
    let first: Vec<Fingerprint> = submit_and_wait(&service, &jobs)
        .iter()
        .map(fingerprint)
        .collect();
    let second: Vec<Fingerprint> = submit_and_wait(&service, &jobs)
        .iter()
        .map(fingerprint)
        .collect();
    service.shutdown();
    assert_eq!(first, second);
}

#[test]
fn oversubscribed_concurrency_is_gated_not_oversubscribed() {
    // Concurrency far above the worker count: the FIFO gate admits at most a
    // pool's worth of jobs at once, and results stay bit-identical.
    let jobs_src = workload();
    let jobs = jobs_for(&jobs_src);
    let device = device_with_workers(2);
    assert_eq!(device.submission_gate().capacity(), 2);
    let service = ServiceBuilder::new(config())
        .device(device.clone())
        .workers(16)
        .build();
    let gated = submit_and_wait(&service, &jobs);
    service.shutdown();
    let pagani = Pagani::new(device.clone(), config());
    for (f, out) in jobs_src.iter().zip(&gated) {
        assert_eq!(
            fingerprint(&pagani.integrate(f.as_ref())),
            fingerprint(out),
            "gated oversubscription changed a result"
        );
    }
    assert_eq!(device.submission_gate().in_flight(), 0);
}

#[test]
fn multi_device_batch_matches_single_device_batch() {
    let jobs_src = workload();
    let jobs = jobs_for(&jobs_src);
    let single: Vec<Fingerprint> =
        pagani::integrate_batch(&device_with_workers(2), &config(), &jobs)
            .iter()
            .map(fingerprint)
            .collect();
    let multi = ServiceBuilder::new(config())
        .devices((0..3).map(|_| device_with_workers(2)))
        .build_multi();
    let sharded: Vec<Fingerprint> = multi
        .integrate_batch(&jobs)
        .iter()
        .map(fingerprint)
        .collect();
    multi.shutdown();
    assert_eq!(
        single, sharded,
        "sharding jobs across devices changed results"
    );
}
