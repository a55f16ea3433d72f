//! Pieces shared by the workloads: the serving configuration, per-job
//! records, failure accounting, direct re-computation for the bit-identity
//! check, kernel-profile buckets and the wire codec timing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pagani::device::KernelTiming;
use pagani::prelude::*;
use pagani::Message;

use crate::gen::{Integrands, JobSpec};
use crate::stats;

/// Relative tolerance of every `serve` and `remote` job.
pub const SERVE_REL_TOL: f64 = 1e-3;
/// Byte budget of every result cache the benchmark builds: the `serve`
/// lanes' shared cache and each remote worker's local cache.  About 780
/// checkpoints of the generated jobs fit, more than the 256 distinct jobs
/// repeats are drawn from, so most repeats hit.
pub const CACHE_BYTES: usize = 8 << 20;
/// Completions per block when `cpu_ms_per_job` is taken over blocks of jobs.
pub const BLOCK_JOBS: usize = 500;

/// The job configuration of every `serve` and `remote` lane.
pub fn serve_config() -> PaganiConfig {
    PaganiConfig::test_small(Tolerances::rel(SERVE_REL_TOL))
}

/// A `test_small`-shaped device with one worker thread: one lane of `serve`,
/// one remote worker's device.
pub fn lane_device() -> Device {
    Device::new(DeviceConfig::test_small().with_worker_threads(1))
}

/// Host fingerprint printed with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The scalar outcome of one job — everything the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub estimate_bits: u64,
    pub error_bits: u64,
    pub termination: Termination,
    pub iterations: usize,
    pub evals: u64,
    pub regions_generated: u64,
}

impl Answer {
    pub fn of(result: &IntegrationResult) -> Self {
        Self {
            estimate_bits: result.estimate.to_bits(),
            error_bits: result.error_estimate.to_bits(),
            termination: result.termination,
            iterations: result.iterations,
            evals: result.function_evaluations,
            regions_generated: result.regions_generated,
        }
    }
}

/// How a submitted job ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Refused by `try_submit`.
    Refused,
    /// The job's handle re-raised a panic.
    Panicked,
    /// The job completed with this answer and this service-reported wall time.
    Done { answer: Answer, wall: Duration },
}

/// One job of a measured phase.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into the generator's stream.
    pub index: usize,
    /// When the job was due: scheduled time (open loop) or when the client
    /// was free to send it (closed loop).
    pub due: Instant,
    /// Duration of the `submit`/`try_submit` call.
    pub submit: Duration,
    /// How late the generator sent it relative to `due`.
    pub late: Duration,
    /// When the benchmark observed completion.
    pub completed: Instant,
    pub outcome: Outcome,
}

impl Record {
    /// Latency from due to observed completion.
    pub fn latency(&self) -> Duration {
        self.completed.saturating_duration_since(self.due)
    }

    /// A converged answer served from the cache (its wall time is zero).
    pub fn is_hit(&self) -> bool {
        matches!(self.outcome, Outcome::Done { answer, wall } if wall.is_zero() && answer.termination == Termination::Converged)
    }

    pub fn answer(&self) -> Option<Answer> {
        match self.outcome {
            Outcome::Done { answer, .. } => Some(answer),
            _ => None,
        }
    }
}

/// Wait on a handle, turning a re-raised job panic into an outcome.
pub fn wait_outcome(handle: &JobHandle) -> Outcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.wait())) {
        Ok(out) => Outcome::Done {
            answer: Answer::of(&out.result),
            wall: out.result.wall_time,
        },
        Err(_) => Outcome::Panicked,
    }
}

/// Run `jobs` warm-up jobs from the stream seeded `seed`, keeping `window`
/// in flight, so warm-up queue waits look like the saturated workload's
/// rather than one long submit-everything backlog.
pub fn warm_up(
    submit: impl Fn(BatchJob) -> JobHandle,
    integrands: &Integrands,
    seed: u64,
    jobs: usize,
    window: usize,
) {
    let mut gen = crate::gen::Generator::new(seed, 0.0);
    let mut inflight = std::collections::VecDeque::with_capacity(window);
    for _ in 0..jobs {
        if inflight.len() == window {
            let oldest: JobHandle = inflight.pop_front().expect("window is full");
            std::hint::black_box(wait_outcome(&oldest));
        }
        let i = gen.next_index();
        inflight.push_back(submit(integrands.batch_job(&gen.emitted()[i])));
    }
    for h in inflight {
        std::hint::black_box(wait_outcome(&h));
    }
}

/// Failure accounting over a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
    pub cancelled: u64,
    pub panicked: u64,
    pub unconverged: u64,
}

impl Tally {
    pub fn of(records: &[Record]) -> Self {
        let mut t = Tally {
            attempted: records.len() as u64,
            ..Tally::default()
        };
        for r in records {
            match r.outcome {
                Outcome::Refused => t.refused += 1,
                Outcome::Panicked => t.panicked += 1,
                Outcome::Done { answer, .. } => match answer.termination {
                    Termination::Converged => {}
                    Termination::Cancelled => t.cancelled += 1,
                    _ => t.unconverged += 1,
                },
            }
        }
        t
    }

    /// Operations that produced no answer: refused, cancelled (deadline
    /// misses included) or panicked.  An unconverged result is an answer,
    /// honestly labelled, and is checked like any other.
    pub fn failed(&self) -> u64 {
        self.refused + self.cancelled + self.panicked
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.cancelled += other.cancelled;
        self.panicked += other.panicked;
        self.unconverged += other.unconverged;
    }

    /// (refused + cancelled + panicked + not converged) ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        (self.failed() + self.unconverged) as f64 / self.attempted.max(1) as f64
    }
}

/// The direct re-computation of one job: its answer plus what only a local
/// trace shows.
#[derive(Debug, Clone, Copy)]
pub struct Direct {
    pub answer: Answer,
    pub peak_regions: usize,
    pub peak_bytes: usize,
}

/// Recompute every distinct job of `records` with a plain
/// `Pagani::integrate_region` on a lane-shaped device, on `nproc()` threads.
pub fn recompute(
    specs: &[JobSpec],
    records: &[Record],
    integrands: &Integrands,
) -> BTreeMap<usize, Direct> {
    let mut originals: Vec<usize> = records
        .iter()
        .filter(|r| r.answer().is_some())
        .map(|r| specs[r.index].repeat_of.unwrap_or(r.index))
        .collect();
    originals.sort_unstable();
    originals.dedup();
    let threads = nproc().min(originals.len()).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<usize> = originals.iter().copied().skip(t).step_by(threads).collect();
                scope.spawn(move || {
                    let pagani = Pagani::new(lane_device(), serve_config());
                    mine.into_iter()
                        .map(|i| {
                            let spec = &specs[i];
                            let out = pagani
                                .integrate_region(integrands.get(spec).as_ref(), &spec.region());
                            let peak_bytes = out
                                .trace
                                .iterations
                                .iter()
                                .map(|it| it.memory_used)
                                .max()
                                .unwrap_or(0);
                            let direct = Direct {
                                answer: Answer::of(&out.result),
                                peak_regions: out.trace.peak_regions(),
                                peak_bytes,
                            };
                            (i, direct)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a verification thread panicked"))
            .collect()
    })
}

/// Check every answered record against its direct re-computation and every
/// cache hit against the original job's answer.  Returns one message per
/// mismatch.
pub fn check_bit_identity(
    phase: &str,
    specs: &[JobSpec],
    records: &[Record],
    direct: &BTreeMap<usize, Direct>,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut first_answer: BTreeMap<usize, Answer> = BTreeMap::new();
    for r in records {
        let Some(answer) = r.answer() else { continue };
        if answer.termination == Termination::Cancelled {
            continue;
        }
        let original = specs[r.index].repeat_of.unwrap_or(r.index);
        let expected = direct[&original].answer;
        if answer != expected {
            errors.push(format!(
                "{phase}: job {} ({}) differs from a direct integrate_region: {answer:?} vs {expected:?}",
                r.index,
                specs[r.index].label()
            ));
        }
        if r.is_hit() {
            if let Some(earlier) = first_answer.get(&original) {
                if *earlier != answer {
                    errors.push(format!(
                        "{phase}: cache hit for job {} changed the original bits",
                        r.index
                    ));
                }
            }
        } else {
            first_answer.entry(original).or_insert(answer);
        }
    }
    errors
}

/// Driver and device totals over the jobs a service computed (cache hits
/// excluded), with peaks taken from the same jobs' direct re-runs.
#[derive(Debug, Default)]
pub struct JobTotals {
    pub jobs: u64,
    pub evals: u64,
    pub iterations: u64,
    pub regions: u64,
    pub bytes: u64,
    pub wall: f64,
    pub run_ms: Vec<f64>,
    pub peak_regions: usize,
    pub peak_bytes: usize,
}

impl JobTotals {
    pub fn add(&mut self, specs: &[JobSpec], records: &[Record], direct: &BTreeMap<usize, Direct>) {
        for r in records {
            let Outcome::Done { answer, wall } = r.outcome else {
                continue;
            };
            if r.is_hit() {
                continue;
            }
            let spec = &specs[r.index];
            self.jobs += 1;
            self.evals += answer.evals;
            self.iterations += answer.iterations as u64;
            self.regions += answer.regions_generated;
            self.bytes += answer.evals / rule_points(spec.dim) * region_bytes(spec.dim);
            self.wall += wall.as_secs_f64();
            self.run_ms.push(wall.as_secs_f64() * 1e3);
            let d = &direct[&spec.repeat_of.unwrap_or(r.index)];
            self.peak_regions = self.peak_regions.max(d.peak_regions);
            self.peak_bytes = self.peak_bytes.max(d.peak_bytes);
        }
    }
}

/// Process CPU time and wall time of every build of a workload's stack.
#[derive(Default)]
pub struct SetupTimes {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl SetupTimes {
    /// Run `build`, recording its CPU and wall time.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let built = build();
        self.wall_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s.push(cpu_seconds() - c0);
        built
    }

    /// Set `setup_s` to the median CPU time of the builds and print the
    /// median wall time beside it.  CPU time, because the wall time of a
    /// warm-up that keeps two lanes busy depends on where five threads land
    /// on two cores: its median moved by 40% between two sets of runs of
    /// the same code.
    pub fn set(&self, m: &mut crate::report::Metrics) {
        m.set("setup_s", stats::median(&self.cpu_s));
        println!(
            "# setup wall time = {} s (median of {} builds, as measured; not gated)",
            stats::median(&self.wall_s),
            self.wall_s.len()
        );
    }
}

/// The time-based end-to-end figures of one segment.
#[derive(Debug, Clone)]
pub struct SegmentE2e {
    /// Samples of process CPU time per completed job, in ms: one per pass
    /// (`solve`), per block of [`BLOCK_JOBS`] completions (`serve`) or per
    /// segment (`remote`).
    pub cpu_ms: Vec<f64>,
    /// Completed jobs per second of wall time; printed, not gated.
    pub jobs_per_s: f64,
    pub latency_p50_ms: f64,
    pub tail: stats::Tail,
}

impl SegmentE2e {
    /// A segment's figures; `latencies_ms` is its latency sample.
    pub fn new(cpu_ms: Vec<f64>, jobs_per_s: f64, mut latencies_ms: Vec<f64>) -> Self {
        stats::sort(&mut latencies_ms);
        Self {
            cpu_ms,
            jobs_per_s,
            latency_p50_ms: stats::percentile_sorted(&latencies_ms, 50.0),
            tail: stats::tail_sorted(&latencies_ms),
        }
    }
}

/// Set `cpu_ms_per_job` to the median of every segment's CPU samples
/// together, and describe what is printed but not gated: the median
/// latency and the latency tail (each the median over the segments; the
/// tail with each segment's percentile and sample counts) and the
/// wall-clock throughput.
pub fn set_e2e(m: &mut crate::report::Metrics, segs: &[SegmentE2e]) -> String {
    let pick =
        |f: &dyn Fn(&SegmentE2e) -> f64| stats::median(&segs.iter().map(f).collect::<Vec<_>>());
    let cpu: Vec<f64> = segs.iter().flat_map(|s| s.cpu_ms.iter().copied()).collect();
    m.set("cpu_ms_per_job", stats::median(&cpu));
    let tails: Vec<String> = segs
        .iter()
        .map(|s| {
            format!(
                "p{} of {} ({} beyond) = {:.4} ms",
                s.tail.percentile, s.tail.count, s.tail.beyond, s.tail.value
            )
        })
        .collect();
    let p50s: Vec<String> = segs
        .iter()
        .map(|s| format!("{:.4}", s.latency_p50_ms))
        .collect();
    let rates: Vec<String> = segs
        .iter()
        .map(|s| format!("{:.4}", s.jobs_per_s))
        .collect();
    format!(
        "latency_p50_ms = {} ms (as measured; not gated), the median over segments of: {}\n# latency_tail_ms = {} ms (as measured; not gated), the median over segments of: {}\n# cpu_ms_per_job = median of {} samples\n# wall-clock jobs_per_s by segment: {}",
        pick(&|s| s.latency_p50_ms),
        p50s.join(" "),
        pick(&|s| s.tail.value),
        tails.join(", "),
        cpu.len(),
        rates.join(" ")
    )
}

/// Everything a run keeps from its segments once each segment's records are
/// checked and dropped (keeping them all would put the benchmark's own
/// bookkeeping into `peak_rss_mb`).
#[derive(Default)]
pub struct RunAcc {
    pub setups: SetupTimes,
    /// Peak resident memory (`VmHWM`) in MiB at a fixed point of the first
    /// segment, before any answer is checked: the stack, its warm-up and a
    /// fixed number of jobs, but none of the benchmark's own verification
    /// and no records whose count depends on the host's speed.
    pub peak_rss_mib: f64,
    pub segs: Vec<SegmentE2e>,
    pub tally: Tally,
    pub errors: Vec<String>,
    pub mix: crate::gen::Mix,
    pub kernels: KernelBuckets,
    pub totals: JobTotals,
    pub submit_us: Vec<f64>,
    /// Latency − service wall time of computed jobs.
    pub overhead_ms: Vec<f64>,
    /// Latency of cache hits.
    pub hit_ms: Vec<f64>,
    pub late_ms: f64,
    /// Completed jobs per lane (or worker), summed over segments.
    pub per_lane: Vec<u64>,
    /// Every lane's metrics at the end of its segment.
    pub last: Vec<ServiceMetrics>,
    /// Counter increases summed over segments and lanes.
    pub counters: BTreeMap<&'static str, u64>,
    /// The same for a distributed front-end (empty for local services).
    pub front: BTreeMap<&'static str, u64>,
    pub lookup_us: Vec<f64>,
    /// The first jobs and answers seen, for the wire codec timing.
    pub wire_jobs: Vec<WireJob>,
    pub wire_answers: Vec<Answer>,
}

/// What a `Submit` frame carries about a job.
pub type WireJob = (String, Vec<f64>, Vec<f64>, Priority, Option<Duration>);

/// Reads one counter of a metrics snapshot.
type Counter = fn(&ServiceMetrics) -> u64;

/// Counters summed into [`RunAcc::counters`].
pub const COUNTERS: [(&str, Counter); 11] = [
    ("rejected", ServiceMetrics::rejected),
    ("deadline_misses", |s| s.deadline_misses),
    ("cancelled", |s| s.cancelled),
    ("cache_hits", |s| s.cache_hits),
    ("cache_misses", |s| s.cache_misses),
    ("checkpoints_written", |s| s.checkpoints_written),
    ("evals_saved", |s| s.evals_saved),
    ("completed", |s| s.completed),
    ("remote_dispatched", |s| s.remote_dispatched),
    ("remote_requeued", |s| s.remote_requeued),
    ("remote_heartbeats", |s| s.remote_heartbeats),
];

/// Per-counter increase from `before` to `after`, summed over lanes.
pub fn counter_diffs(
    before: &[ServiceMetrics],
    after: &[ServiceMetrics],
) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&(name, f)| {
            (
                name,
                after.iter().zip(before).map(|(a, b)| f(a) - f(b)).sum(),
            )
        })
        .collect()
}

impl RunAcc {
    /// Fold in one segment: its records (checked against `direct`), which of
    /// them carry latency samples, and the lanes' metrics around it.
    #[allow(clippy::too_many_arguments)]
    pub fn absorb(
        &mut self,
        specs: &[JobSpec],
        records: &[Record],
        latency_records: &[Record],
        direct: &BTreeMap<usize, Direct>,
        kernels: &KernelBuckets,
        before: &[ServiceMetrics],
        after: &[ServiceMetrics],
    ) {
        self.tally.add(&Tally::of(records));
        self.kernels.add(kernels);
        self.totals.add(specs, records, direct);
        self.submit_us
            .extend(records.iter().map(|r| r.submit.as_secs_f64() * 1e6));
        self.late_ms = records
            .iter()
            .map(|r| r.late.as_secs_f64() * 1e3)
            .fold(self.late_ms, f64::max);
        for r in latency_records {
            if let Outcome::Done { wall, .. } = r.outcome {
                let latency = r.latency().as_secs_f64() * 1e3;
                if r.is_hit() {
                    self.hit_ms.push(latency);
                } else {
                    self.overhead_ms.push(latency - wall.as_secs_f64() * 1e3);
                }
            }
        }
        self.per_lane.resize(after.len(), 0);
        for (lane, (a, b)) in after.iter().zip(before).enumerate() {
            self.per_lane[lane] += a.completed - b.completed;
        }
        self.last.extend(after.iter().cloned());
        for (name, diff) in counter_diffs(before, after) {
            *self.counters.entry(name).or_default() += diff;
        }
        for r in records {
            if self.wire_jobs.len() >= 2000 {
                break;
            }
            let s = &specs[r.index];
            self.wire_jobs.push((
                s.label(),
                s.lo.clone(),
                s.hi.clone(),
                s.priority,
                s.deadline,
            ));
            if let Some(a) = r.answer() {
                self.wire_answers.push(a);
            }
        }
        self.mix.add(specs);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Genz–Malik degree-7 rule points per region in `dim` dimensions.
pub fn rule_points(dim: usize) -> u64 {
    (1u64 << dim) + 2 * (dim * dim) as u64 + 2 * dim as u64 + 1
}

/// Bytes of region state the evaluate kernel touches per region,
/// `(2d + 4) × 8` — a computed figure, not a measured one.
pub fn region_bytes(dim: usize) -> u64 {
    (2 * dim as u64 + 4) * 8
}

/// Kernel time and counts bucketed by the §4.3.2 category prefixes.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelBuckets {
    pub evaluate: Duration,
    pub postprocess: Duration,
    pub threshold: Duration,
    pub filter: Duration,
    pub other: Duration,
    pub evaluate_launches: usize,
    pub evaluate_blocks: usize,
}

impl KernelBuckets {
    pub fn total(&self) -> Duration {
        self.evaluate + self.postprocess + self.threshold + self.filter + self.other
    }

    pub fn add(&mut self, other: &KernelBuckets) {
        self.evaluate += other.evaluate;
        self.postprocess += other.postprocess;
        self.threshold += other.threshold;
        self.filter += other.filter;
        self.other += other.other;
        self.evaluate_launches += other.evaluate_launches;
        self.evaluate_blocks += other.evaluate_blocks;
    }
}

/// A device profile snapshot, by kernel name.
pub type ProfileSnapshot = BTreeMap<String, KernelTiming>;

pub fn profile_snapshot(device: &Device) -> ProfileSnapshot {
    device.profile().snapshot().into_iter().collect()
}

/// Bucket the difference `after − before` of two profile snapshots.
pub fn profile_diff(before: &ProfileSnapshot, after: &ProfileSnapshot) -> KernelBuckets {
    let mut b = KernelBuckets::default();
    for (name, t) in after {
        let prev = before.get(name).copied().unwrap_or_default();
        let time = t.total.saturating_sub(prev.total);
        if name.starts_with("evaluate") {
            b.evaluate += time;
            b.evaluate_launches += t.launches - prev.launches;
            b.evaluate_blocks += t.blocks - prev.blocks;
        } else if name.starts_with("postprocess") {
            b.postprocess += time;
        } else if name.starts_with("threshold") {
            b.threshold += time;
        } else if name.starts_with("filter") {
            b.filter += time;
        } else {
            b.other += time;
        }
    }
    b
}

/// CPU time used so far by this process (all its threads) or by the calling
/// thread, in seconds.  The kernel charges only time a thread actually ran,
/// so waiting for a processor held by another process (or, under a
/// hypervisor with steal-time accounting, by another guest) is not counted.
fn cpu_clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and the clock id is a valid constant; the call writes
    // only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of the whole process (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_seconds() -> f64 {
    cpu_clock_seconds(2)
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(3)
}

/// Median per-frame encode and decode time (µs) and mean frame size (bytes)
/// of `Submit` frames built from `specs` and `JobDone` frames built from
/// `answers`, each through `Message::write_to` / `Message::read_from` on
/// in-memory buffers.
pub struct WireTiming {
    pub encode_us: f64,
    pub decode_us: f64,
    pub submit_bytes: f64,
    pub done_bytes: f64,
}

/// Frames timed per traced run (the run's jobs, cycled if there are fewer).
const WIRE_FRAMES: usize = 2000;

pub fn time_wire(
    specs: &[WireJob],
    answers: &[Answer],
    tracer: &crate::trace::Tracer,
) -> Result<WireTiming, String> {
    if specs.is_empty() || answers.is_empty() {
        return Err("no jobs to build wire frames from".into());
    }
    let mut frames = Vec::with_capacity(2 * WIRE_FRAMES);
    for i in 0..WIRE_FRAMES {
        let (name, lo, hi, priority, deadline) = &specs[i % specs.len()];
        frames.push(Message::Submit {
            job_id: i as u64,
            integrand: name.clone(),
            dim: lo.len() as u32,
            lo_bits: lo.iter().map(|v| v.to_bits()).collect(),
            hi_bits: hi.iter().map(|v| v.to_bits()).collect(),
            priority: match priority {
                Priority::Low => 0,
                Priority::Normal => 1,
                Priority::High => 2,
            },
            deadline_micros: deadline.map_or(u64::MAX, |d| d.as_micros() as u64),
            snapshot_json: None,
        });
        let a = answers[i % answers.len()];
        frames.push(Message::JobDone {
            job_id: i as u64,
            estimate_bits: a.estimate_bits,
            error_bits: a.error_bits,
            termination: match a.termination {
                Termination::Converged => 0,
                _ => 1,
            },
            iterations: a.iterations as u64,
            function_evaluations: a.evals,
            regions_generated: a.regions_generated,
            active_regions_final: 0,
            wall_micros: 0,
            snapshot_json: None,
        });
    }
    let (mut enc, mut dec) = (
        Vec::with_capacity(frames.len()),
        Vec::with_capacity(frames.len()),
    );
    let (mut submit_bytes, mut done_bytes) = (0usize, 0usize);
    for (i, frame) in frames.iter().enumerate() {
        let mut buf = Vec::with_capacity(256);
        let t0 = Instant::now();
        tracer
            .span("wire.encode", i as u64, None, || frame.write_to(&mut buf))
            .map_err(|e| format!("encoding a frame: {e}"))?;
        let t1 = Instant::now();
        let decoded = tracer
            .span("wire.decode", i as u64, None, || {
                Message::read_from(&mut buf.as_slice())
            })
            .map_err(|e| format!("decoding a frame: {e}"))?;
        let t2 = Instant::now();
        if &decoded != frame {
            return Err("a wire frame did not round-trip".into());
        }
        enc.push((t1 - t0).as_secs_f64() * 1e6);
        dec.push((t2 - t1).as_secs_f64() * 1e6);
        if i % 2 == 0 {
            submit_bytes += buf.len();
        } else {
            done_bytes += buf.len();
        }
    }
    Ok(WireTiming {
        encode_us: stats::median(&enc),
        decode_us: stats::median(&dec),
        submit_bytes: submit_bytes as f64 / WIRE_FRAMES as f64,
        done_bytes: done_bytes as f64 / WIRE_FRAMES as f64,
    })
}

/// Count-weighted mean of per-priority median queue waits (ms).
pub fn mean_wait_ms(metrics: &[ServiceMetrics]) -> f64 {
    let (mut sum, mut count) = (0.0, 0u64);
    for m in metrics {
        for w in &m.waits {
            sum += w.p50.as_secs_f64() * 1e3 * w.count as f64;
            count += w.count;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// (max − min) ÷ mean of per-lane completed counts.
pub fn completed_spread(completed: &[u64]) -> f64 {
    let max = completed.iter().copied().max().unwrap_or(0) as f64;
    let min = completed.iter().copied().min().unwrap_or(0) as f64;
    let mean = completed.iter().sum::<u64>() as f64 / completed.len().max(1) as f64;
    if mean == 0.0 {
        0.0
    } else {
        (max - min) / mean
    }
}

/// Mean of the lanes' prediction-error EWMAs that have data.
pub fn mean_prediction_error(metrics: &[ServiceMetrics]) -> f64 {
    let values: Vec<f64> = metrics
        .iter()
        .filter_map(|m| m.prediction_error_ewma)
        .collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `values` in the given scale, or 0 for an empty sample.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}
