//! `remote`: the `serve` generator with no repeats, through
//! `ServiceBuilder::build_distributed` to two in-process `RemoteWorker`s on
//! loopback, each with the same `test_small`-shaped device as a `serve` lane.
//!
//! Closed loop: one client thread per worker, each with one job in flight,
//! so every worker holds one job and latency is timed from submission to the
//! return of the blocking wait.  With no repeats the workers' local caches
//! only ever write checkpoints.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pagani::prelude::*;

use crate::common::{self, KernelBuckets, Outcome as JobOutcome, Record, RunAcc, SegmentE2e};
use crate::gen::{stream_seed, Generator, Integrands, JobSpec};
use crate::hostspeed::HostSpeed;
use crate::report::{self, Metrics};
use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Outcome, SEGMENTS};

const WORKERS: usize = 2;
/// Warm-up jobs kept in flight (four per worker).
const WINDOW: usize = 8;
/// Jobs of each segment whose latency is sampled: the first this many by
/// submission index.  A fixed sample keeps the tail on one rung of the ladder
/// whatever the throughput: p90, 90 samples beyond (p99 over 5 000 samples
/// varied by a third between runs on a 2-core host).
const LATENCY_SAMPLE: usize = 900;
/// Warm-up jobs run through every freshly built stack: enough distinct jobs
/// to fill both workers' cache budgets before the measured phase.
const WARMUP_JOBS: usize = 2000;
/// Stream number of the warm-up jobs (measured segments use 0..SEGMENTS).
const WARMUP_STREAM: u64 = 1 << 20;

pub struct RemoteStack {
    front: DistributedService,
    workers: Vec<RemoteWorker>,
    devices: Vec<Device>,
}

impl RemoteStack {
    fn shutdown(self) {
        self.front.shutdown();
        for w in self.workers {
            w.shutdown();
        }
    }

    fn worker_metrics(&self) -> Vec<ServiceMetrics> {
        self.workers.iter().map(|w| w.service().metrics()).collect()
    }
}

/// Bind the workers, connect the front-end and run the warm-up jobs.
pub fn build(seed: u64, integrands: &Integrands) -> Result<RemoteStack, String> {
    let registry = Arc::new(IntegrandRegistry::with_paper_suite(4));
    let devices: Vec<Device> = (0..WORKERS).map(|_| common::lane_device()).collect();
    let workers = devices
        .iter()
        .map(|d| {
            RemoteWorker::bind(
                "127.0.0.1:0",
                ServiceBuilder::new(common::serve_config())
                    .device(d.clone())
                    .workers(1)
                    .cache(Arc::new(ResultCache::new(common::CACHE_BYTES))),
                Arc::clone(&registry),
            )
            .map_err(|e| format!("binding a loopback worker: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let front = ServiceBuilder::new(common::serve_config())
        .endpoints(workers.iter().map(|w| w.local_addr().to_string()))
        .build_distributed()
        .map_err(|e| format!("connecting the front-end: {e}"))?;
    common::warm_up(
        |job| front.submit(job),
        integrands,
        seed,
        WARMUP_JOBS,
        WINDOW,
    );
    Ok(RemoteStack {
        front,
        workers,
        devices,
    })
}

/// The records of one segment.
pub struct Phase {
    specs: Vec<JobSpec>,
    records: Vec<Record>,
    start: Instant,
    /// Process CPU time of the closed loop, in seconds.
    cpu_s: f64,
    kernels: KernelBuckets,
    front_before: ServiceMetrics,
    front_after: ServiceMetrics,
    before: Vec<ServiceMetrics>,
    after: Vec<ServiceMetrics>,
}

impl Phase {
    fn e2e(&self) -> SegmentE2e {
        let last = self
            .records
            .iter()
            .map(|r| r.completed)
            .max()
            .unwrap_or(self.start);
        SegmentE2e::new(
            vec![self.cpu_s * 1e3 / self.records.len().max(1) as f64],
            self.records.len() as f64 / last.saturating_duration_since(self.start).as_secs_f64(),
            self.records
                .iter()
                .take(LATENCY_SAMPLE)
                .map(|r| ms(r.latency()))
                .collect(),
        )
    }
}

/// One client: a closed loop with one job in flight until `end`.
fn client(
    stack: &RemoteStack,
    gen: &Mutex<Generator>,
    integrands: &Integrands,
    end: Instant,
    tracer: &Tracer,
    id_base: u64,
) -> Vec<Record> {
    let mut mine = Vec::new();
    let mut free_at = Instant::now();
    while Instant::now() < end {
        let (index, job, deadline) = {
            let mut g = gen.lock().expect("no client panics holding the generator");
            let i = g.next_index();
            let spec = &g.emitted()[i];
            (i, integrands.batch_job(spec), spec.deadline.is_some())
        };
        let id = id_base + index as u64;
        let span = tracer.reserve();
        let t0 = Instant::now();
        let handle = tracer.span("submit", id, Some(span), || {
            if deadline {
                stack.front.try_submit(job).ok()
            } else {
                Some(stack.front.submit(job))
            }
        });
        let submitted = Instant::now();
        let outcome = match &handle {
            Some(h) => tracer.span("wait", id, Some(span), || common::wait_outcome(h)),
            None => JobOutcome::Refused,
        };
        let completed = Instant::now();
        tracer.record(span, "job", id, None, t0, completed);
        mine.push(Record {
            index,
            due: t0,
            submit: submitted - t0,
            late: t0.saturating_duration_since(free_at),
            completed,
            outcome,
        });
        free_at = completed;
    }
    mine
}

fn run_phase(
    stack: &RemoteStack,
    gen: Generator,
    integrands: &Integrands,
    seconds: f64,
    tracer: &Tracer,
    id_base: u64,
) -> Phase {
    let front_before = stack.front.metrics();
    let before = stack.worker_metrics();
    let profiles: Vec<_> = stack.devices.iter().map(common::profile_snapshot).collect();
    let gen = Mutex::new(gen);
    let cpu0 = common::cpu_seconds();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| client(stack, &gen, integrands, end, tracer, id_base)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    let cpu_s = common::cpu_seconds() - cpu0;
    records.sort_by_key(|r| r.index);
    let kernels = stack.devices.iter().zip(&profiles).fold(
        KernelBuckets::default(),
        |mut acc, (d, before)| {
            acc.add(&common::profile_diff(before, &common::profile_snapshot(d)));
            acc
        },
    );
    Phase {
        specs: gen
            .into_inner()
            .expect("clients have joined")
            .into_emitted(),
        records,
        start,
        cpu_s,
        kernels,
        front_before,
        front_after: stack.front.metrics(),
        before,
        after: stack.worker_metrics(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `SEGMENTS` segments, each on a freshly built stack (one `setup_s`
/// sample) for `--seconds / SEGMENTS`, checking every answer and folding
/// each segment into the run's totals before dropping its records.
fn measure(
    args: &Args,
    integrands: &Integrands,
    tracer: &Tracer,
    speed: &mut HostSpeed,
) -> Result<RunAcc, String> {
    let mut acc = RunAcc::default();
    speed.sample(3);
    let tol = common::serve_config().tolerances;
    for k in 0..SEGMENTS {
        let stack = acc
            .setups
            .time(|| build(stream_seed(args.seed, WARMUP_STREAM + k as u64), integrands))?;
        speed.sample(3);
        let gen = Generator::new(stream_seed(args.seed, k as u64), 0.0);
        let seconds = args.seconds / SEGMENTS as f64;
        let phase = run_phase(&stack, gen, integrands, seconds, tracer, (k as u64) << 32);
        if k == 0 {
            acc.peak_rss_mib = report::peak_rss_mib()?;
        }
        speed.sample(3);
        if tracer.enabled() {
            let keys: Vec<_> = phase
                .records
                .iter()
                .take(2000)
                .map(|r| phase.specs[r.index].cache_key(tol))
                .collect();
            let caches: Vec<Arc<ResultCache>> = stack
                .workers
                .iter()
                .filter_map(|w| w.service().result_cache().cloned())
                .collect();
            let cache_refs: Vec<&ResultCache> = caches.iter().map(Arc::as_ref).collect();
            acc.lookup_us
                .push(crate::probe::time_lookups(&cache_refs, &keys, tracer));
        }
        stack.shutdown();

        let name = format!("remote segment {k}");
        let direct = common::recompute(&phase.specs, &phase.records, integrands);
        acc.errors.extend(common::check_bit_identity(
            &name,
            &phase.specs,
            &phase.records,
            &direct,
        ));
        let front = common::counter_diffs(
            std::slice::from_ref(&phase.front_before),
            std::slice::from_ref(&phase.front_after),
        );
        if front["remote_requeued"] != 0 {
            acc.errors.push(format!(
                "{name}: jobs were requeued although no worker died"
            ));
        }
        for (name, diff) in front {
            *acc.front.entry(name).or_default() += diff;
        }
        acc.segs.push(phase.e2e());
        acc.absorb(
            &phase.specs,
            &phase.records,
            &phase.records,
            &direct,
            &phase.kernels,
            &phase.before,
            &phase.after,
        );
        speed.sample(3);
    }
    Ok(acc)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = common::nproc();
    println!(
        "# fingerprint: workload=remote seed={} nproc={nproc} profile={} workers={WORKERS} device=test_small worker_threads=1 memory_capacity={} service_workers_per_worker=1 cache_bytes={} clients={WORKERS} in_flight_per_client=1 segments={SEGMENTS}",
        args.seed,
        common::build_profile(),
        DeviceConfig::test_small().memory_capacity,
        common::CACHE_BYTES
    );
    let integrands = Integrands::new();
    let mut speed = HostSpeed::new();
    let acc = measure(args, &integrands, &Tracer::new(false), &mut speed)?;
    let mut m = Metrics::default();
    acc.setups.set(&mut m);
    let tail = common::set_e2e(&mut m, &acc.segs);
    m.set("ok_frac", 1.0 - acc.tally.failed_frac());
    m.set("peak_rss_mb", acc.peak_rss_mib);
    speed.scale(&mut m, &["setup_s", "cpu_ms_per_job"]);
    let t = &acc.tally;
    println!("# mix: {}", acc.mix);
    println!(
        "# remote: {SEGMENTS} segments; closed loop {} jobs; refused {} cancelled {} panicked {} unconverged {} (share {:.5})\n# {tail}",
        t.attempted,
        t.refused,
        t.cancelled,
        t.panicked,
        t.unconverged,
        t.unconverged as f64 / t.attempted.max(1) as f64
    );
    let mut outcome = Outcome {
        e2e: m,
        layer: Metrics::default(),
        attempted: t.attempted,
        failed: t.failed(),
        unconverged: t.unconverged,
        errors: acc.errors,
    };
    if args.trace {
        traced(args, &mut outcome, &integrands)?;
    }
    Ok(outcome)
}

fn traced(args: &Args, outcome: &mut Outcome, integrands: &Integrands) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let mut speed = HostSpeed::new();
    let acc = measure(args, integrands, &tracer, &mut speed)?;
    outcome
        .errors
        .extend(acc.errors.iter().map(|e| format!("traced: {e}")));
    let m = &mut outcome.layer;
    let front = |name: &str| acc.front.get(name).copied().unwrap_or(0);
    crate::set_computed_job_metrics(m, &acc.kernels, &acc.totals);
    m.set("service.submit_us", stats::median(&acc.submit_us));
    m.set("service.queue_wait_ms", common::mean_wait_ms(&acc.last));
    m.set(
        "service.overhead_ms",
        common::median_or_zero(&acc.overhead_ms),
    );
    m.set("service.rejected", front("rejected") as f64);
    m.set(
        "service.deadline_misses",
        (front("deadline_misses") + acc.counter("deadline_misses")) as f64,
    );
    m.set("service.cancelled", acc.tally.cancelled as f64);
    m.set(
        "cost.prediction_error",
        common::mean_prediction_error(&acc.last),
    );
    m.set(
        "lanes.completed_spread",
        common::completed_spread(&acc.per_lane),
    );
    m.set("loadgen.late_ms_max", acc.late_ms);
    let (hits, misses) = (acc.counter("cache_hits"), acc.counter("cache_misses"));
    m.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("cache.lookup_us", stats::median(&acc.lookup_us));
    m.set(
        "cache.checkpoints_written",
        acc.counter("checkpoints_written") as f64,
    );
    m.set("cache.evals_saved", acc.counter("evals_saved") as f64);
    m.set(
        "worker.checkpoints_written",
        acc.counter("checkpoints_written") as f64,
    );
    m.set(
        "remote.transit_ms",
        common::median_or_zero(&acc.overhead_ms),
    );
    m.set("remote.dispatched", front("remote_dispatched") as f64);
    m.set("remote.requeued", front("remote_requeued") as f64);
    m.set("remote.heartbeats", front("remote_heartbeats") as f64);
    m.set("jobs.failed_frac", acc.tally.failed_frac());
    m.set("jobs.unconverged", acc.tally.unconverged as f64);
    crate::set_trace_overhead(m, &outcome.e2e, &acc.segs, &speed);
    crate::set_wire_metrics(
        m,
        &common::time_wire(&acc.wire_jobs, &acc.wire_answers, &tracer)?,
    );
    let probe = crate::probe::run(&tracer)?;
    // No job repeats, so hits are timed on the probe lane.
    probe.fill_hit_latency(m);
    probe.fill_overhead(m);
    crate::set_scaling(m);
    crate::finish_trace(args, &tracer, m)
}
