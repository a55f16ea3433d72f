//! Distributed scheduling demo: worker *processes* behind the wire protocol.
//!
//! The binary plays both roles.  Run normally it is the front-end: it
//! re-executes itself twice with `PAGANI_WORKER_LISTEN=1` to get two worker
//! processes on loopback, shards a mixed-priority batch across them, checks
//! the results are **bit-identical** to a single-process run (pinned
//! invariant 9: the wire adds transport, never arithmetic), then kills one
//! worker mid-batch and shows the front-end requeuing its jobs on the
//! survivor.
//!
//! Run with `cargo run --release --example distributed_service`.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

use pagani::prelude::*;
use pagani::{IntegrandRegistry, RemoteWorker};

fn config() -> PaganiConfig {
    PaganiConfig::test_small(Tolerances::rel(1e-5))
}

fn registry() -> Arc<IntegrandRegistry> {
    Arc::new(IntegrandRegistry::with_paper_suite(5))
}

/// Worker role: bind a service on an OS-assigned loopback port, announce it
/// on stdout, and serve until the front-end closes our stdin (or kills us).
fn worker_main() {
    let worker = RemoteWorker::bind(
        "127.0.0.1:0",
        ServiceBuilder::new(config()).device(Device::new(
            DeviceConfig::test_small()
                .with_memory_capacity(32 << 20)
                .with_worker_threads(2),
        )),
        registry(),
    )
    .expect("bind the worker listener");
    // The parent parses this exact line to learn our port.
    println!("LISTENING {}", worker.local_addr());
    // Block until the parent closes our stdin — the graceful stop signal.
    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    worker.shutdown();
}

/// Spawn one worker process (this same binary, in worker role) and read the
/// address it bound.
fn spawn_worker_process() -> (Child, String) {
    let exe = std::env::current_exe().expect("locate our own binary");
    let mut child = Command::new(exe)
        .env("PAGANI_WORKER_LISTEN", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a worker process");
    let stdout: ChildStdout = child.stdout.take().expect("worker stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let line = lines
        .next()
        .expect("worker announces its address")
        .expect("read the announcement");
    let addr = line
        .strip_prefix("LISTENING ")
        .expect("announcement format")
        .to_owned();
    (child, addr)
}

fn mixed_batch() -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    for dim in [2usize, 3, 4] {
        jobs.push(BatchJob::new(PaperIntegrand::f4(dim)).with_priority(Priority::High));
        jobs.push(BatchJob::new(PaperIntegrand::f3(dim)).with_priority(Priority::Low));
        jobs.push(BatchJob::new(PaperIntegrand::f5(dim)).with_priority(Priority::Normal));
    }
    jobs
}

fn main() {
    if std::env::var("PAGANI_WORKER_LISTEN").is_ok() {
        worker_main();
        return;
    }

    // ---- Reference: the same batch in a single process. -------------------
    let local = ServiceBuilder::new(config())
        .device(Device::new(
            DeviceConfig::test_small()
                .with_memory_capacity(32 << 20)
                .with_worker_threads(2),
        ))
        .build();
    let local_outputs: Vec<PaganiOutput> = mixed_batch()
        .into_iter()
        .map(|job| local.submit(job).wait())
        .collect();
    local.shutdown();

    // ---- Two worker processes, one front-end. -----------------------------
    let (mut child_a, addr_a) = spawn_worker_process();
    let (mut child_b, addr_b) = spawn_worker_process();
    println!(
        "workers up: {addr_a} (pid {}), {addr_b} (pid {})",
        child_a.id(),
        child_b.id()
    );

    let frontend = ServiceBuilder::new(config())
        .endpoint(&addr_a)
        .endpoint(&addr_b)
        .build_distributed()
        .expect("connect to both workers");

    let handles: Vec<JobHandle> = mixed_batch()
        .into_iter()
        .map(|job| frontend.submit(job))
        .collect();
    let remote_outputs: Vec<PaganiOutput> = handles.iter().map(JobHandle::wait).collect();
    let mut drift = 0usize;
    for (local_out, remote_out) in local_outputs.iter().zip(&remote_outputs) {
        if local_out.result.estimate.to_bits() != remote_out.result.estimate.to_bits()
            || local_out.result.error_estimate.to_bits()
                != remote_out.result.error_estimate.to_bits()
        {
            drift += 1;
        }
    }
    assert_eq!(
        drift, 0,
        "remote results must be bit-identical to local runs"
    );
    let metrics = frontend.metrics();
    println!(
        "sharded {} jobs across 2 worker processes: {} dispatched, 0 bits of drift",
        remote_outputs.len(),
        metrics.remote_dispatched,
    );

    // ---- Kill a worker mid-batch. -----------------------------------------
    // Tighter tolerance makes each job slow enough to still be in flight
    // when the kill lands; the front-end requeues the dead worker's jobs on
    // the survivor and every handle still completes.
    let slow: Vec<JobHandle> = (0..6)
        .map(|_| {
            frontend.submit(BatchJob::new(PaperIntegrand::f5(4)).with_priority(Priority::Normal))
        })
        .collect();
    child_a.kill().expect("kill worker a");
    let _ = child_a.wait();
    // `wait` re-raises a job that was lost outright, so every return here is
    // a completion on a surviving worker (Converged or MaxIterations — f5 is
    // the paper's hardest family and may exhaust the small test budget).
    let mut completions = [0usize; 2];
    for handle in &slow {
        let out = handle.wait();
        completions[usize::from(out.result.converged())] += 1;
    }
    println!(
        "survivor finished all 6: {} converged, {} hit the iteration budget",
        completions[1], completions[0]
    );
    let metrics = frontend.metrics();
    println!(
        "killed worker a mid-batch: {} of 6 jobs requeued on the survivor, all completed \
         ({} alive of {} endpoints)",
        metrics.remote_requeued,
        frontend.endpoints_alive(),
        frontend.endpoint_count(),
    );
    assert!(
        metrics.remote_requeued >= 1,
        "the killed worker held jobs; requeue must have happened"
    );

    frontend.shutdown();
    // Closing stdin tells the surviving worker to wind down gracefully.
    drop(child_b.stdin.take());
    let _ = child_b.wait();
    println!("done: wire transparency and crash recovery both hold");
}
