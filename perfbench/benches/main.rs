//! The repository benchmark: one command, three workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve|serve|remote> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines start with `#`; the last line of standard output is
//! the JSON result.  A failed correctness check prints its reason on standard
//! error, reports `"correct": false` and exits with code 1.

mod common;
mod gen;
mod hostspeed;
mod probe;
mod remote;
mod report;
mod serve;
mod solve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{JobTotals, KernelBuckets, SegmentE2e, WireTiming};
use hostspeed::HostSpeed;
use report::Metrics;
use trace::Tracer;

/// Stacks built per run, each one `setup_s` sample.  `serve` and `remote`
/// measure each stack for `--seconds / SEGMENTS` (a segment) and take their
/// latency figures as medians over the segments; `solve` measures on the
/// last stack it builds.
pub const SEGMENTS: usize = 5;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub unconverged: u64,
    pub errors: Vec<String>,
}

/// Kernel time per computed job by category, launches and blocks per job,
/// and evaluate time per integrand evaluation.
pub fn set_kernel_metrics(m: &mut Metrics, k: &KernelBuckets, jobs: f64, evals: u64) {
    let jobs = jobs.max(1.0);
    m.set("kernel.evaluate_s", k.evaluate.as_secs_f64() / jobs);
    m.set("kernel.postprocess_s", k.postprocess.as_secs_f64() / jobs);
    m.set("kernel.threshold_s", k.threshold.as_secs_f64() / jobs);
    m.set("kernel.filter_s", k.filter.as_secs_f64() / jobs);
    m.set(
        "kernel.evaluate_launches",
        k.evaluate_launches as f64 / jobs,
    );
    m.set("kernel.evaluate_blocks", k.evaluate_blocks as f64 / jobs);
    m.set(
        "evaluate.ns_per_eval",
        k.evaluate.as_secs_f64() * 1e9 / evals.max(1) as f64,
    );
}

/// Device and driver metrics over the jobs a service computed: means per
/// computed job, peaks over the same jobs' direct runs.
pub fn set_computed_job_metrics(m: &mut Metrics, kernels: &KernelBuckets, t: &JobTotals) {
    let n = t.jobs.max(1) as f64;
    set_kernel_metrics(m, kernels, n, t.evals);
    m.set("evaluate.bytes_computed", t.bytes as f64 / n);
    m.set("device.peak_bytes", t.peak_bytes as f64);
    m.set("driver.evals", t.evals as f64 / n);
    m.set("driver.iterations", t.iterations as f64 / n);
    m.set("driver.regions_generated", t.regions as f64 / n);
    m.set("driver.peak_regions", t.peak_regions as f64);
    m.set(
        "driver.host_s",
        (t.wall - kernels.total().as_secs_f64()) / n,
    );
    m.set("service.run_ms", common::median_or_zero(&t.run_ms));
}

/// `trace.overhead_frac`: traced `cpu_ms_per_job` (median of the traced
/// segments' samples, scaled by the traced run's own host speed) ÷ untraced
/// `cpu_ms_per_job` (already scaled) − 1.
pub fn set_trace_overhead(
    m: &mut Metrics,
    untraced: &Metrics,
    traced: &[SegmentE2e],
    speed: &HostSpeed,
) {
    let cpu: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.cpu_ms.iter().copied())
        .collect();
    let plain = untraced
        .get("cpu_ms_per_job")
        .expect("end-to-end metrics are set first");
    m.set(
        "trace.overhead_frac",
        stats::median(&cpu) * speed.factor() / plain - 1.0,
    );
}

pub fn set_wire_metrics(m: &mut Metrics, w: &WireTiming) {
    m.set("wire.encode_us", w.encode_us);
    m.set("wire.decode_us", w.decode_us);
    m.set("wire.submit_bytes", w.submit_bytes);
    m.set("wire.done_bytes", w.done_bytes);
}

/// One `solve` pass on a fresh device at one worker thread and at `nproc`:
/// efficiency t₁ ÷ (nproc · tₙ).
pub fn set_scaling(m: &mut Metrics) {
    let nproc = common::nproc();
    let t1 = solve::one_pass_seconds(1);
    let tn = solve::one_pass_seconds(nproc);
    m.set("solve.single_thread_s", t1);
    m.set("solve.nproc_s", tn);
    m.set("device.scaling_eff", t1 / (nproc as f64 * tn));
    println!("# scaling: one solve pass {t1:.4} s at 1 thread, {tn:.4} s at {nproc} threads");
}

/// Write the spans next to the build output, print per-span totals and self
/// times, and count the spans.
pub fn finish_trace(args: &Args, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let spans = tracer.spans();
    m.set("trace.spans", spans.len() as f64);
    for (name, (count, total, own)) in trace::summarize(&spans) {
        println!(
            "# span {name}: {count} spans, total {:.3} ms, self {:.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(|p| p.parent()).map(PathBuf::from))
        .ok_or("cannot locate the build directory")?;
    let path = dir
        .join("perfbench-traces")
        .join(format!("{}-{}.jsonl", args.workload, args.seed));
    trace::write_spans(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <solve|serve|remote> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "solve" => solve::run(&args),
        "serve" => serve::run(&args),
        "remote" => remote::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, unit) in report::END_TO_END {
        if let Some(v) = outcome.e2e.get(name) {
            println!("# {name} = {v} {unit}");
        }
    }
    println!(
        "# failed_frac = {} (attempted {}, failed {}, unconverged {})",
        (outcome.failed + outcome.unconverged) as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted,
        outcome.failed,
        outcome.unconverged
    );
    let correct = outcome.errors.is_empty();
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let (metrics, table) = if args.trace {
        for (name, unit) in report::PER_LAYER {
            if let Some(v) = outcome.layer.get(name) {
                println!("# {name} = {v} {unit}");
            }
        }
        (&outcome.layer, &report::PER_LAYER[..])
    } else {
        (&outcome.e2e, &report::END_TO_END[..])
    };
    match report::result_line(correct, outcome.attempted, outcome.failed, metrics, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
