//! `solve`: the paper's own measurement — time to solution of a fixed list of
//! paper-suite jobs, one at a time through plain `Pagani::integrate` on one
//! `v100_like` device with [`SOLVE_THREADS`] worker thread.

use std::time::Instant;

use pagani::prelude::*;

use crate::common::{self, KernelBuckets, SegmentE2e, SetupTimes};
use crate::gen::paper_integrand;
use crate::hostspeed::HostSpeed;
use crate::report::{self, Metrics};
use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Outcome, SEGMENTS};

/// `(family, dim, digits)` of each job of one pass, in pass order.  Five jobs
/// of distinct cost (1 to 11 iterations, tens to a couple of hundred ms each
/// at one thread), so the pass-pooled median and p90 fall inside one job's
/// spread rather than on the gap between two jobs.  The order is fixed, so
/// every pass allocates in the same sequence.
pub const SOLVE_LIST: [(u8, usize, f64); 5] = [
    (7, 6, 3.0),
    (3, 5, 5.0),
    (4, 5, 3.0),
    (6, 6, 3.0),
    (5, 5, 3.0),
];
/// Worker threads of the `solve` device.  One, whatever the host: with a
/// thread per core, every launch waits for its slowest worker, so a core
/// briefly taken by another tenant of a shared host stalls the whole job.
/// Scaling to `nproc` threads is a per-layer metric.
pub const SOLVE_THREADS: usize = 1;
/// Passes whose jobs form the latency sample: 200 jobs, so the tail is p90
/// with 20 beyond whatever the speed.  Every run measures at least these.
const LATENCY_PASSES: usize = 40;

fn integrand(family: u8, dim: usize) -> PaperIntegrand {
    if family == 6 {
        PaperIntegrand::f6()
    } else {
        paper_integrand(family, dim)
    }
}

/// The device and one driver per job of the list.
pub struct SolveStack {
    device: Device,
    jobs: Vec<(PaperIntegrand, Pagani)>,
}

/// Build the `solve` stack on a `v100_like` device with `threads` workers and
/// warm it up with one job of the suite at 3 digits (about a hundred
/// milliseconds, so `setup_s` measures more than thread start-up jitter).
pub fn build(threads: usize) -> SolveStack {
    let device = Device::new(DeviceConfig::v100_like().with_worker_threads(threads));
    let jobs = SOLVE_LIST
        .iter()
        .map(|&(family, dim, digits)| {
            (
                integrand(family, dim),
                Pagani::new(device.clone(), PaganiConfig::digits(digits)),
            )
        })
        .collect();
    let warm = Pagani::new(device.clone(), PaganiConfig::digits(3.0));
    std::hint::black_box(warm.integrate(&PaperIntegrand::f4(5)));
    SolveStack { device, jobs }
}

/// One job of one pass.
pub struct JobRun {
    pub job: usize,
    pub start: Instant,
    pub end: Instant,
    pub seconds: f64,
    pub output: PaganiOutput,
    pub kernels: Option<KernelBuckets>,
}

/// Run the list once; with tracing on, take the device-profile
/// diff of every job.
pub fn run_pass(stack: &SolveStack, tracer: &Tracer, first_id: u64) -> (f64, Vec<JobRun>) {
    let start = Instant::now();
    let mut runs = Vec::with_capacity(SOLVE_LIST.len());
    for job in 0..SOLVE_LIST.len() {
        let id = first_id + job as u64;
        let span = tracer.reserve();
        let (f, pagani) = &stack.jobs[job];
        let t0 = Instant::now();
        let before = tracer.enabled().then(|| {
            tracer.span("profile_diff", id, Some(span), || {
                common::profile_snapshot(&stack.device)
            })
        });
        let output = tracer.span("integrate", id, Some(span), || pagani.integrate(f));
        let kernels = before.map(|before| {
            tracer.span("profile_diff", id, Some(span), || {
                common::profile_diff(&before, &common::profile_snapshot(&stack.device))
            })
        });
        let t1 = Instant::now();
        tracer.record(span, "job", id, None, t0, t1);
        runs.push(JobRun {
            job,
            start: t0,
            end: t1,
            seconds: (t1 - t0).as_secs_f64(),
            output,
            kernels,
        });
    }
    (start.elapsed().as_secs_f64(), runs)
}

/// The set-up times, passes and jobs of one phase.
#[derive(Default)]
struct Phase {
    setups: SetupTimes,
    /// Wall time of each pass.
    passes: Vec<f64>,
    /// Process CPU time per job of each pass, in ms.
    cpu_ms: Vec<f64>,
    /// Peak resident memory after the first [`LATENCY_PASSES`] passes, MiB.
    peak_rss_mib: f64,
    runs: Vec<JobRun>,
}

impl Phase {
    /// The run's figures: CPU per job of every pass, and the latencies of
    /// the jobs of the first [`LATENCY_PASSES`] passes.
    fn figures(&self) -> SegmentE2e {
        let wall: f64 = self.passes.iter().sum();
        SegmentE2e::new(
            self.cpu_ms.clone(),
            self.runs.len() as f64 / wall,
            self.runs
                .iter()
                .take(LATENCY_PASSES * SOLVE_LIST.len())
                .map(|r| r.seconds * 1e3)
                .collect(),
        )
    }
}

/// Build the stack `SEGMENTS` times (each one `setup_s` sample), then run
/// passes on the last one for `seconds`, and for at least
/// [`LATENCY_PASSES`] passes, timing the host-speed kernel after each.
fn run_phase(seconds: f64, tracer: &Tracer, speed: &mut HostSpeed) -> Phase {
    let mut phase = Phase::default();
    speed.sample(3);
    let mut stack = None;
    for _ in 0..SEGMENTS {
        stack = Some(phase.setups.time(|| build(SOLVE_THREADS)));
    }
    let stack = stack.expect("at least one stack is built");
    let start = Instant::now();
    while phase.passes.len() < LATENCY_PASSES || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = common::cpu_seconds();
        let (t, runs) = run_pass(&stack, tracer, phase.runs.len() as u64);
        let cpu = common::cpu_seconds() - cpu0;
        phase.cpu_ms.push(cpu * 1e3 / runs.len() as f64);
        phase.passes.push(t);
        phase.runs.extend(runs);
        speed.sample(1);
        if phase.passes.len() == LATENCY_PASSES {
            phase.peak_rss_mib = report::peak_rss_mib().unwrap_or(f64::NAN);
        }
    }
    phase
}

/// Check every job of a phase: converged, within the requested tolerance of
/// the analytic reference, and the same evaluation count in every pass.
fn check(phase: &Phase, name: &str, errors: &mut Vec<String>) -> u64 {
    let mut ok = 0;
    let mut evals: [Option<u64>; SOLVE_LIST.len()] = [None; SOLVE_LIST.len()];
    for run in &phase.runs {
        let (family, dim, digits) = SOLVE_LIST[run.job];
        let label = format!("{dim}D f{family} at {digits} digits");
        let result = &run.output.result;
        let reference = integrand(family, dim).reference_value();
        let true_rel = ((result.estimate - reference) / reference).abs();
        let tol = Tolerances::digits(digits).rel;
        let mut good = true;
        if !result.converged() {
            errors.push(format!(
                "{name}: {label} did not converge ({:?})",
                result.termination
            ));
            good = false;
        }
        if true_rel.is_nan() || true_rel > tol {
            errors.push(format!(
                "{name}: {label} true relative error {true_rel:e} exceeds {tol:e}"
            ));
            good = false;
        }
        match evals[run.job] {
            None => evals[run.job] = Some(result.function_evaluations),
            Some(e) if e != result.function_evaluations => {
                errors.push(format!(
                    "{name}: {label} evaluation count changed between passes ({e} vs {})",
                    result.function_evaluations
                ));
                good = false;
            }
            Some(_) => {}
        }
        ok += u64::from(good);
    }
    ok
}

/// Time one pass on a fresh device with `threads` workers.
pub fn one_pass_seconds(threads: usize) -> f64 {
    let stack = build(threads);
    run_pass(&stack, &Tracer::new(false), 0).0
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = common::nproc();
    println!(
        "# fingerprint: workload=solve seed={} nproc={nproc} profile={} device=v100_like worker_threads={SOLVE_THREADS} memory_capacity={} lanes=1 service_workers=0",
        args.seed,
        common::build_profile(),
        DeviceConfig::v100_like().memory_capacity
    );
    let jobs: Vec<String> = SOLVE_LIST
        .iter()
        .map(|(f, d, digits)| format!("{d}D f{f}@{digits}"))
        .collect();
    println!(
        "# mix: {} jobs per pass, always in this order (the seed does not change solve's inputs): {}",
        jobs.len(),
        jobs.join(" ")
    );

    let mut speed = HostSpeed::new();
    let plain = run_phase(args.seconds, &Tracer::new(false), &mut speed);

    let mut errors = Vec::new();
    let ok = check(&plain, "solve", &mut errors);
    let attempted = plain.runs.len() as u64;
    let mut e2e = Metrics::default();
    plain.setups.set(&mut e2e);
    let tail = common::set_e2e(&mut e2e, std::slice::from_ref(&plain.figures()));
    e2e.set("ok_frac", ok as f64 / attempted as f64);
    e2e.set("peak_rss_mb", plain.peak_rss_mib);
    speed.scale(&mut e2e, &["setup_s", "cpu_ms_per_job"]);
    println!(
        "# solve: {SEGMENTS} set-ups, {} passes, {} jobs, latency sample of the first {LATENCY_PASSES} passes\n# wall_s = {} s (time to solution of one pass, median over passes, as measured; not gated)\n# {tail}",
        plain.passes.len(),
        attempted,
        stats::median(&plain.passes),
    );
    let mut outcome = Outcome {
        e2e,
        layer: Metrics::default(),
        attempted,
        failed: 0,
        unconverged: attempted - ok,
        errors,
    };
    if args.trace {
        traced(args, &mut outcome)?;
    }
    Ok(outcome)
}

fn traced(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let mut speed = HostSpeed::new();
    let phase = run_phase(args.seconds, &tracer, &mut speed);
    check(&phase, "solve (traced)", &mut outcome.errors);
    let m = &mut outcome.layer;
    let jobs = phase.runs.len() as f64;
    let mut kernels = KernelBuckets::default();
    let (mut evals, mut iterations, mut regions, mut bytes, mut wall) =
        (0u64, 0usize, 0u64, 0u64, 0.0);
    let (mut peak_regions, mut peak_bytes) = (0usize, 0usize);
    for run in &phase.runs {
        kernels.add(
            run.kernels
                .as_ref()
                .expect("traced passes take profile diffs"),
        );
        let r = &run.output.result;
        let dim = SOLVE_LIST[run.job].1;
        evals += r.function_evaluations;
        iterations += r.iterations;
        regions += r.regions_generated;
        bytes += r.function_evaluations / common::rule_points(dim) * common::region_bytes(dim);
        wall += r.wall_time.as_secs_f64();
        peak_regions = peak_regions.max(run.output.trace.peak_regions());
        peak_bytes = peak_bytes.max(
            run.output
                .trace
                .iterations
                .iter()
                .map(|i| i.memory_used)
                .max()
                .unwrap_or(0),
        );
    }
    crate::set_kernel_metrics(m, &kernels, jobs, evals);
    m.set("evaluate.bytes_computed", bytes as f64 / jobs);
    m.set("device.peak_bytes", peak_bytes as f64);
    m.set("driver.evals", evals as f64 / jobs);
    m.set("driver.iterations", iterations as f64 / jobs);
    m.set("driver.regions_generated", regions as f64 / jobs);
    m.set("driver.peak_regions", peak_regions as f64);
    m.set(
        "driver.host_s",
        (wall - kernels.total().as_secs_f64()) / jobs,
    );
    // Closed loop: each job is due when the previous one returns.
    let late = phase
        .runs
        .windows(2)
        .map(|w| w[1].start.saturating_duration_since(w[0].end).as_secs_f64())
        .fold(0.0f64, f64::max);
    m.set("loadgen.late_ms_max", late * 1e3);
    m.set(
        "jobs.failed_frac",
        outcome.unconverged as f64 / outcome.attempted as f64,
    );
    m.set("jobs.unconverged", outcome.unconverged as f64);
    crate::set_trace_overhead(
        m,
        &outcome.e2e,
        std::slice::from_ref(&phase.figures()),
        &speed,
    );

    let specs: Vec<_> = SOLVE_LIST
        .iter()
        .map(|&(f, d, _)| {
            (
                integrand(f, d).name(),
                vec![0.0; d],
                vec![1.0; d],
                Priority::Normal,
                None,
            )
        })
        .collect();
    let answers: Vec<_> = phase
        .runs
        .iter()
        .map(|r| common::Answer::of(&r.output.result))
        .collect();
    crate::set_wire_metrics(m, &common::time_wire(&specs, &answers, &tracer)?);
    let probe = crate::probe::run(&tracer)?;
    probe.fill_service(m);
    probe.fill_cache(m);
    probe.fill_remote(m);
    probe.fill_overhead(m);
    crate::set_scaling(m);
    crate::finish_trace(args, &tracer, m)
}
