//! `serve`: a seeded stream of small jobs into `ServiceBuilder::build_multi`.
//!
//! Two lanes, each a `test_small`-shaped device with one worker thread and
//! one service worker, share one `ResultCache` and one cost model.  About 30%
//! of the jobs exactly repeat an earlier job, so cache reads sit beside misses
//! that write checkpoints.  Each segment has two parts:
//!
//! * **open loop** at a fixed rate below capacity — latency is timed from
//!   when each job was *due*, so a stall also charges the jobs queued behind
//!   it, and the generator reports how late it ran;
//! * **saturation** — a window of jobs kept in flight — gives the process
//!   CPU time per completed job, one sample per block of completions.
//!
//! One thread generates the load and observes completions, polling the
//! in-flight handles without sleeping in the open loop and blocking on the
//! oldest in the saturation part (whose completion times are not used for
//! latency).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pagani::prelude::*;

use crate::common::{self, KernelBuckets, Outcome as JobOutcome, Record, RunAcc, SegmentE2e};
use crate::gen::{stream_seed, Generator, Integrands, JobSpec};
use crate::hostspeed::HostSpeed;
use crate::report::{self, Metrics};
use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Outcome, SEGMENTS};

const LANES: usize = 2;
/// Share of jobs that exactly repeat an earlier one.
const REPEAT_SHARE: f64 = 0.3;
/// Offered load of the open-loop part, jobs per second.  Fixed, so a change
/// in capacity shows as a change in latency at the same load.
const OPEN_RATE: f64 = 300.0;
/// Open-loop jobs per segment, whatever `--seconds` is: the latency sample,
/// whose tail is then always p90 with 84 samples beyond.  With 1 260–1 680
/// samples it was p99 with 12–16 beyond, and read from 3.5 to 13 ms between
/// runs on a 2-core host.  The rest of each segment saturates.
const OPEN_JOBS: usize = 840;
/// Jobs kept in flight in the saturation part (four per lane).
const WINDOW: usize = 8;
/// Warm-up jobs run through every freshly built stack: enough distinct jobs
/// to fill the cache's byte budget, so the measured phases see the cache in
/// its steady state (full, evicting) from the first job.
const WARMUP_JOBS: usize = 1200;
/// Stream number of the warm-up jobs (measured segments use 0..SEGMENTS).
const WARMUP_STREAM: u64 = 1 << 20;

pub struct ServeStack {
    service: MultiDeviceService,
    devices: Vec<Device>,
    cache: Arc<ResultCache>,
}

/// Build the two-lane service and run the warm-up jobs through it.
pub fn build(seed: u64, integrands: &Integrands) -> ServeStack {
    let devices: Vec<Device> = (0..LANES).map(|_| common::lane_device()).collect();
    let cache = Arc::new(ResultCache::new(common::CACHE_BYTES));
    let service = ServiceBuilder::new(common::serve_config())
        .devices(devices.iter().cloned())
        .workers(1)
        .cache(Arc::clone(&cache))
        .cost_model(Arc::new(CostModel::new()))
        .build_multi();
    common::warm_up(
        |job| service.submit(job),
        integrands,
        seed,
        WARMUP_JOBS,
        WINDOW,
    );
    ServeStack {
        service,
        devices,
        cache,
    }
}

/// A submitted job not yet observed complete.
struct Pending {
    index: usize,
    due: Instant,
    submit: Duration,
    late: Duration,
    span: u64,
    submitted: Instant,
    handle: Option<JobHandle>,
}

struct Loadgen<'a> {
    stack: &'a ServeStack,
    integrands: &'a Integrands,
    gen: Generator,
    tracer: &'a Tracer,
    id_base: u64,
}

impl Loadgen<'_> {
    fn submit(&mut self, due: Instant) -> Pending {
        let index = self.gen.next_index();
        let spec = &self.gen.emitted()[index];
        let job = self.integrands.batch_job(spec);
        let deadline = spec.deadline.is_some();
        let span = self.tracer.reserve();
        let t0 = Instant::now();
        let service = &self.stack.service;
        let handle = self
            .tracer
            .span("submit", self.id_base + index as u64, Some(span), || {
                if deadline {
                    service.try_submit(job).ok()
                } else {
                    Some(service.submit(job))
                }
            });
        let submitted = Instant::now();
        Pending {
            index,
            due,
            submit: submitted - t0,
            late: t0.saturating_duration_since(due),
            span,
            submitted,
            handle,
        }
    }

    /// Wait for `p` (immediate when it is already finished) and stamp its
    /// completion: `at`, or the moment the wait returned.
    fn complete(&self, p: Pending, at: Option<Instant>) -> Record {
        let outcome = match &p.handle {
            Some(h) => common::wait_outcome(h),
            None => JobOutcome::Refused,
        };
        let completed = at.unwrap_or_else(Instant::now);
        let id = self.id_base + p.index as u64;
        self.tracer.record(
            self.tracer.reserve(),
            "wait",
            id,
            Some(p.span),
            p.submitted,
            completed,
        );
        self.tracer
            .record(p.span, "job", id, None, p.due, completed);
        Record {
            index: p.index,
            due: p.due,
            submit: p.submit,
            late: p.late,
            completed,
            outcome,
        }
    }
}

/// The records of one segment.
pub struct Phase {
    specs: Vec<JobSpec>,
    open: Vec<Record>,
    sat: Vec<Record>,
    sat_start: Instant,
    /// Process CPU time per job of each block of [`common::BLOCK_JOBS`]
    /// saturation completions, in ms.
    sat_cpu_ms: Vec<f64>,
    /// Peak resident memory when the open loop ended, in MiB.
    open_rss_mib: f64,
    kernels: KernelBuckets,
    before: Vec<ServiceMetrics>,
    after: Vec<ServiceMetrics>,
}

impl Phase {
    fn records(&self) -> Vec<Record> {
        self.open.iter().chain(&self.sat).cloned().collect()
    }

    fn e2e(&self) -> SegmentE2e {
        let last = self
            .sat
            .iter()
            .map(|r| r.completed)
            .max()
            .unwrap_or(self.sat_start);
        SegmentE2e::new(
            self.sat_cpu_ms.clone(),
            self.sat.len() as f64 / last.saturating_duration_since(self.sat_start).as_secs_f64(),
            self.open.iter().map(|r| ms(r.latency())).collect(),
        )
    }
}

fn run_phase(
    stack: &ServeStack,
    gen: Generator,
    integrands: &Integrands,
    seconds: f64,
    tracer: &Tracer,
    id_base: u64,
    speed: &mut HostSpeed,
) -> Phase {
    let before = stack.service.metrics();
    let profiles: Vec<_> = stack.devices.iter().map(common::profile_snapshot).collect();
    let mut lg = Loadgen {
        stack,
        integrands,
        gen,
        tracer,
        id_base,
    };

    // Open loop: job i is due at t0 + i / OPEN_RATE.
    let n_open = OPEN_JOBS;
    let period = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let mut open = Vec::with_capacity(n_open);
    let mut inflight: Vec<Pending> = Vec::new();
    let t0 = Instant::now();
    let mut next = 0;
    while next < n_open || !inflight.is_empty() {
        let now = Instant::now();
        while next < n_open {
            let due = t0 + period * next as u32;
            if due > now {
                break;
            }
            let p = lg.submit(due);
            if p.handle.is_some() {
                inflight.push(p);
            } else {
                open.push(lg.complete(p, None));
            }
            next += 1;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < inflight.len() {
            if inflight[i]
                .handle
                .as_ref()
                .is_some_and(JobHandle::is_finished)
            {
                open.push(lg.complete(inflight.swap_remove(i), Some(now)));
            } else {
                i += 1;
            }
        }
        // While jobs are in flight, poll again at once, yielding the core to
        // any runnable lane thread: a completion is seen when it happens.
        // With sleeps of 150–350 µs between polls the median read 40%
        // higher, and spread by a third over five runs of the same code on a
        // shared host.  With nothing in flight, sleep until the next job is
        // due.
        if inflight.is_empty() {
            let due = t0 + period * next as u32;
            if let Some(nap) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(nap);
            }
        } else {
            std::thread::yield_now();
        }
    }

    let open_rss_mib = report::peak_rss_mib().unwrap_or(f64::NAN);
    speed.sample(3);

    // Saturation: keep WINDOW jobs in flight; a job is due when its slot frees.
    let sat_start = Instant::now();
    let saturate = (seconds - OPEN_JOBS as f64 / OPEN_RATE).max(0.3 * seconds);
    let end = sat_start + Duration::from_secs_f64(saturate);
    let mut sat = Vec::new();
    let mut sat_cpu_ms = Vec::new();
    let mut window: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let mut free_at = sat_start;
    let mut block_cpu = common::cpu_seconds();
    loop {
        while window.len() < WINDOW && Instant::now() < end {
            let p = lg.submit(free_at);
            if p.handle.is_some() {
                window.push_back(p);
            } else {
                sat.push(lg.complete(p, None));
            }
        }
        let Some(oldest) = window.pop_front() else {
            break;
        };
        let record = lg.complete(oldest, None);
        free_at = record.completed;
        sat.push(record);
        if sat.len() % common::BLOCK_JOBS == 0 {
            let cpu = common::cpu_seconds();
            sat_cpu_ms.push((cpu - block_cpu) * 1e3 / common::BLOCK_JOBS as f64);
            block_cpu = cpu;
        }
    }
    // A saturation part too short for one block is one sample of its own.
    if sat_cpu_ms.is_empty() && !sat.is_empty() {
        sat_cpu_ms.push((common::cpu_seconds() - block_cpu) * 1e3 / sat.len() as f64);
    }
    let kernels = stack.devices.iter().zip(&profiles).fold(
        KernelBuckets::default(),
        |mut acc, (d, before)| {
            acc.add(&common::profile_diff(before, &common::profile_snapshot(d)));
            acc
        },
    );
    Phase {
        specs: lg.gen.into_emitted(),
        open,
        sat,
        sat_start,
        sat_cpu_ms,
        open_rss_mib,
        kernels,
        before,
        after: stack.service.metrics(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `SEGMENTS` segments, each on a freshly built stack (one `setup_s`
/// sample) for `--seconds / SEGMENTS`, checking every answer and folding
/// each segment into the run's totals before dropping its records.
/// The host-speed kernel is timed three times at the start and in every gap
/// between a segment's phases, so its median spans the run as the
/// measurements do.
fn measure(args: &Args, integrands: &Integrands, tracer: &Tracer, speed: &mut HostSpeed) -> RunAcc {
    let mut acc = RunAcc::default();
    speed.sample(3);
    let tol = common::serve_config().tolerances;
    for k in 0..SEGMENTS {
        let stack = acc
            .setups
            .time(|| build(stream_seed(args.seed, WARMUP_STREAM + k as u64), integrands));
        speed.sample(3);
        let gen = Generator::new(stream_seed(args.seed, k as u64), REPEAT_SHARE);
        let seconds = args.seconds / SEGMENTS as f64;
        let phase = run_phase(
            &stack,
            gen,
            integrands,
            seconds,
            tracer,
            (k as u64) << 32,
            speed,
        );
        if k == 0 {
            acc.peak_rss_mib = phase.open_rss_mib;
        }
        speed.sample(3);
        let records = phase.records();
        if tracer.enabled() {
            let mut keys: Vec<_> = records
                .iter()
                .take(2000)
                .map(|r| phase.specs[r.index].cache_key(tol))
                .collect();
            keys.dedup();
            acc.lookup_us.push(crate::probe::time_lookups(
                &[stack.cache.as_ref()],
                &keys,
                tracer,
            ));
        }
        stack.service.shutdown();

        let name = format!("serve segment {k}");
        let direct = common::recompute(&phase.specs, &records, integrands);
        acc.errors.extend(common::check_bit_identity(
            &name,
            &phase.specs,
            &records,
            &direct,
        ));
        let hits = records.iter().filter(|r| r.is_hit()).count() as u64;
        let counted = common::counter_diffs(&phase.before, &phase.after)["cache_hits"];
        if hits != counted {
            acc.errors.push(format!(
                "{name}: {hits} results came back with zero wall time but the lanes counted {counted} cache hits"
            ));
        }
        acc.segs.push(phase.e2e());
        acc.absorb(
            &phase.specs,
            &records,
            &phase.open,
            &direct,
            &phase.kernels,
            &phase.before,
            &phase.after,
        );
        speed.sample(3);
    }
    acc
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = common::nproc();
    println!(
        "# fingerprint: workload=serve seed={} nproc={nproc} profile={} lanes={LANES} device=test_small worker_threads=1 memory_capacity={} service_workers_per_lane=1 cache_bytes={} open_rate={OPEN_RATE}/s open_jobs={OPEN_JOBS} window={WINDOW} segments={SEGMENTS}",
        args.seed,
        common::build_profile(),
        DeviceConfig::test_small().memory_capacity,
        common::CACHE_BYTES
    );
    let integrands = Integrands::new();
    let mut speed = HostSpeed::new();
    let acc = measure(args, &integrands, &Tracer::new(false), &mut speed);
    let mut m = Metrics::default();
    acc.setups.set(&mut m);
    let tail = common::set_e2e(&mut m, &acc.segs);
    m.set("ok_frac", 1.0 - acc.tally.failed_frac());
    m.set("peak_rss_mb", acc.peak_rss_mib);
    speed.scale(&mut m, &["setup_s", "cpu_ms_per_job"]);
    let t = &acc.tally;
    println!("# mix: {}", acc.mix);
    println!(
        "# serve: {SEGMENTS} segments; {} jobs; refused {} cancelled {} panicked {} unconverged {} (share {:.5})\n# {tail}",
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
    let acc = measure(args, integrands, &tracer, &mut speed);
    outcome
        .errors
        .extend(acc.errors.iter().map(|e| format!("traced: {e}")));
    let m = &mut outcome.layer;
    crate::set_computed_job_metrics(m, &acc.kernels, &acc.totals);
    m.set("service.submit_us", stats::median(&acc.submit_us));
    m.set("service.queue_wait_ms", common::mean_wait_ms(&acc.last));
    m.set(
        "service.overhead_ms",
        common::median_or_zero(&acc.overhead_ms),
    );
    m.set("service.rejected", acc.counter("rejected") as f64);
    m.set(
        "service.deadline_misses",
        acc.counter("deadline_misses") as f64,
    );
    m.set("service.cancelled", acc.counter("cancelled") as f64);
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
    m.set("jobs.failed_frac", acc.tally.failed_frac());
    m.set("jobs.unconverged", acc.tally.unconverged as f64);
    crate::set_trace_overhead(m, &outcome.e2e, &acc.segs, &speed);
    crate::set_wire_metrics(
        m,
        &common::time_wire(&acc.wire_jobs, &acc.wire_answers, &tracer)?,
    );
    let probe = crate::probe::run(&tracer)?;
    if acc.hit_ms.is_empty() {
        probe.fill_hit_latency(m);
    } else {
        m.set("cache.hit_latency_ms", stats::median(&acc.hit_ms));
    }
    probe.fill_remote(m);
    probe.fill_overhead(m);
    crate::set_scaling(m);
    crate::finish_trace(args, &tracer, m)
}
