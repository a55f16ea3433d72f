//! The worker side of the wire: a TCP listener wrapping one
//! [`IntegrationService`].
//!
//! A [`RemoteWorker`] accepts front-end connections, resolves incoming jobs
//! against its [`IntegrandRegistry`], runs them on its ordinary local
//! service (priorities, deadlines, cancellation and the persist layer's
//! warm starts all work unchanged), and streams results back as
//! [`Message::JobDone`] frames.  Because the service is the same one a
//! single-process deployment uses, a result computed here is bit-identical
//! to the local run — the wire adds transport, never arithmetic.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pagani_persist::{ResultCache, Snapshot};
use pagani_quadrature::{Region, Termination};

use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::lock;
use crate::remote::registry::IntegrandRegistry;
use crate::remote::wire::{
    tag_to_priority, termination_to_tag, Message, WireError, NO_DEADLINE, PROTOCOL_VERSION,
};
use crate::service::{job_cache_key, panic_message, IntegrationService, JobHandle};

/// Size of the crash-recovery cache a worker attaches when its builder
/// carries none: partial snapshots of cancelled/exhausted runs live here so
/// a requeued job can resume instead of restarting.
const DEFAULT_WORKER_CACHE_BYTES: usize = 64 << 20;

/// One accepted front-end connection: the duplex stream plus the jobs it
/// currently has in flight (cancelled wholesale if the connection dies).
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    inflight: Mutex<HashMap<u64, JobHandle>>,
}

#[derive(Debug)]
struct WorkerShared {
    service: IntegrationService,
    registry: Arc<IntegrandRegistry>,
    cache: Arc<ResultCache>,
    shutting_down: AtomicBool,
    connections: Mutex<Vec<Arc<Connection>>>,
    /// Connection-handler and result-waiter threads still running, joined
    /// at shutdown (see [`WorkerShared::track`]).
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerShared {
    /// Keep `thread` for joining at shutdown, first joining (at once) the
    /// threads that have already finished — a long-lived worker spawns one
    /// result waiter per job, so keeping every handle would grow without
    /// bound.
    fn track(&self, thread: JoinHandle<()>) {
        let mut threads = lock(&self.threads);
        let (finished, running): (Vec<_>, Vec<_>) =
            threads.drain(..).partition(JoinHandle::is_finished);
        *threads = running;
        threads.push(thread);
        drop(threads);
        for finished in finished {
            let _ = finished.join();
        }
    }
}

/// A worker process: one [`IntegrationService`] behind a TCP listener.
///
/// Bind it with a [`ServiceBuilder`] carrying exactly one device (the
/// builder's cache, policy and cost model apply to the wrapped service) and
/// the [`IntegrandRegistry`] naming the jobs it may be asked to run:
///
/// ```no_run
/// use std::sync::Arc;
/// use pagani_core::{IntegrandRegistry, PaganiConfig, RemoteWorker, ServiceBuilder};
/// use pagani_device::Device;
/// use pagani_quadrature::Tolerances;
///
/// let worker = RemoteWorker::bind(
///     "127.0.0.1:0",
///     ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-5)))
///         .device(Device::test_small()),
///     Arc::new(IntegrandRegistry::with_paper_suite(6)),
/// )
/// .expect("bind the worker listener");
/// println!("serving on {}", worker.local_addr());
/// ```
#[derive(Debug)]
pub struct RemoteWorker {
    shared: Arc<WorkerShared>,
    listener_addr: std::net::SocketAddr,
    acceptor: JoinHandle<()>,
}

impl RemoteWorker {
    /// Bind a listener on `addr` (use port 0 for an OS-assigned port) and
    /// start accepting front-end connections.
    ///
    /// If `builder` carries no [`ResultCache`], a worker-local one is
    /// attached so cancelled and memory-exhausted runs leave resumable
    /// snapshots behind — the crash-recovery half of the requeue story.
    ///
    /// # Errors
    /// Propagates listener bind failures.
    ///
    /// # Panics
    /// Panics unless the builder carries exactly one device and no remote
    /// endpoints (a worker *is* the remote end).
    pub fn bind(
        addr: impl ToSocketAddrs,
        builder: ServiceBuilder,
        registry: Arc<IntegrandRegistry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let listener_addr = listener.local_addr()?;
        let builder = if builder.cache.is_none() {
            builder.cache(Arc::new(ResultCache::new(DEFAULT_WORKER_CACHE_BYTES)))
        } else {
            builder
        };
        let cache = Arc::clone(builder.cache.as_ref().expect("cache attached above"));
        let service = builder.build();
        let shared = Arc::new(WorkerShared {
            service,
            registry,
            cache,
            shutting_down: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("pagani-remote-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &acceptor_shared))
            .expect("spawning the remote acceptor thread");
        Ok(Self {
            shared,
            listener_addr,
            acceptor,
        })
    }

    /// The address the worker is listening on (with the OS-assigned port
    /// resolved).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener_addr
    }

    /// The wrapped local service — its metrics are the worker's metrics.
    #[must_use]
    pub fn service(&self) -> &IntegrationService {
        &self.shared.service
    }

    /// Chaos hook for crash-recovery tests: abruptly sever every front-end
    /// connection *without* draining in-flight jobs or sending any farewell
    /// frame, exactly as a killed process would.  The worker keeps running;
    /// front-ends observe a dead connection and requeue.
    pub fn sever(&self) {
        for connection in lock(&self.shared.connections).iter() {
            let _ = connection.stream.shutdown(Shutdown::Both);
        }
    }

    /// Graceful shutdown: stop accepting, sever connections, cancel
    /// in-flight jobs, join every connection thread and drain the wrapped
    /// service.
    pub fn shutdown(self) {
        self.shared
            .shutting_down
            .store(true, AtomicOrdering::SeqCst);
        // Unblock `accept` by dialling ourselves; the acceptor checks the
        // flag before handling what it accepted.
        let _ = TcpStream::connect(self.listener_addr);
        self.sever();
        let _ = self.acceptor.join();
        loop {
            let Some(thread) = lock(&self.shared.threads).pop() else {
                break;
            };
            let _ = thread.join();
        }
        let shared =
            Arc::try_unwrap(self.shared).expect("all worker threads joined, no clones outstanding");
        shared.service.shutdown();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<WorkerShared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if shared.shutting_down.load(AtomicOrdering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        let connection = Arc::new(Connection {
            stream,
            writer: Mutex::new(writer),
            inflight: Mutex::new(HashMap::new()),
        });
        lock(&shared.connections).push(Arc::clone(&connection));
        let conn_shared = Arc::clone(shared);
        let handler = std::thread::Builder::new()
            .name("pagani-remote-conn".into())
            .spawn(move || connection_loop(&conn_shared, &connection))
            .expect("spawning the remote connection thread");
        shared.track(handler);
    }
}

fn connection_loop(shared: &Arc<WorkerShared>, connection: &Arc<Connection>) {
    let Ok(mut reader) = connection.stream.try_clone() else {
        return;
    };
    while let Ok(message) = Message::read_from(&mut reader) {
        let keep_going = match message {
            Message::Hello { version } => handle_hello(shared, connection, version),
            Message::Submit {
                job_id,
                integrand,
                dim,
                lo_bits,
                hi_bits,
                priority,
                deadline_micros,
                snapshot_json,
            } => {
                handle_submit(
                    shared,
                    connection,
                    SubmitFrame {
                        job_id,
                        integrand,
                        dim,
                        lo_bits,
                        hi_bits,
                        priority,
                        deadline_micros,
                        snapshot_json,
                    },
                );
                true
            }
            Message::Cancel { job_id } => {
                if let Some(handle) = lock(&connection.inflight).get(&job_id) {
                    handle.cancel();
                }
                true
            }
            Message::Heartbeat { seq } => send(connection, &Message::HeartbeatAck { seq }).is_ok(),
            // Anything else is a protocol confusion; drop the connection
            // rather than guess.
            _ => false,
        };
        if !keep_going {
            break;
        }
    }
    // Connection gone (EOF, error, or protocol breach): the front-end can no
    // longer receive these results, so cancel its in-flight jobs — it will
    // requeue them elsewhere.
    let orphaned: Vec<JobHandle> = lock(&connection.inflight).drain().map(|(_, h)| h).collect();
    for handle in orphaned {
        handle.cancel();
    }
    let _ = connection.stream.shutdown(Shutdown::Both);
    lock(&shared.connections).retain(|c| !Arc::ptr_eq(c, connection));
}

fn handle_hello(shared: &Arc<WorkerShared>, connection: &Arc<Connection>, version: u32) -> bool {
    if version == PROTOCOL_VERSION {
        send(
            connection,
            &Message::HelloAck {
                version: PROTOCOL_VERSION,
                memory_capacity: shared.service.device().config().memory_capacity as u64,
                workers: shared.service.worker_count() as u32,
            },
        )
        .is_ok()
    } else {
        let _ = send(
            connection,
            &Message::HelloReject {
                version: PROTOCOL_VERSION,
                message: format!("worker speaks wire protocol v{PROTOCOL_VERSION}, got v{version}"),
            },
        );
        false
    }
}

/// The fields of one `Submit` frame, bundled to keep signatures readable.
struct SubmitFrame {
    job_id: u64,
    integrand: String,
    dim: u32,
    lo_bits: Vec<u64>,
    hi_bits: Vec<u64>,
    priority: u8,
    deadline_micros: u64,
    snapshot_json: Option<String>,
}

fn handle_submit(shared: &Arc<WorkerShared>, connection: &Arc<Connection>, frame: SubmitFrame) {
    let job_id = frame.job_id;
    let refuse = |message: String| {
        let _ = send(connection, &Message::JobFailed { job_id, message });
    };
    let Some(integrand) = shared.registry.get(&frame.integrand) else {
        return refuse(format!("unknown integrand {:?}", frame.integrand));
    };
    let dim = frame.dim as usize;
    if integrand.dim() != dim {
        return refuse(format!(
            "integrand {:?} is {}-dimensional, job says {dim}",
            frame.integrand,
            integrand.dim()
        ));
    }
    if frame.lo_bits.len() != dim || frame.hi_bits.len() != dim {
        return refuse(format!("region bounds do not match dim {dim}"));
    }
    let lo: Vec<f64> = frame.lo_bits.iter().copied().map(f64::from_bits).collect();
    let hi: Vec<f64> = frame.hi_bits.iter().copied().map(f64::from_bits).collect();
    if lo
        .iter()
        .zip(&hi)
        .any(|(l, h)| l.partial_cmp(h) != Some(std::cmp::Ordering::Less))
    {
        return refuse("degenerate region bounds".to_owned());
    }
    let priority = match tag_to_priority(frame.priority) {
        Ok(priority) => priority,
        Err(_) => return refuse(format!("unknown priority tag {}", frame.priority)),
    };

    let mut job = BatchJob::shared(integrand)
        .over(Region::new(lo, hi))
        .with_priority(priority);
    if frame.deadline_micros != NO_DEADLINE {
        job = job.with_deadline(std::time::Duration::from_micros(frame.deadline_micros));
    }

    // A shipped warm-start snapshot goes into the worker's cache *before*
    // submission, so the service's ordinary warm-start machinery resumes the
    // checkpointed tree instead of restarting from scratch.  A bad snapshot
    // is not fatal — the job runs cold; the cache drops one taken of another
    // integrand or region.
    if let Some(json) = &frame.snapshot_json {
        if let Ok(snapshot) = Snapshot::from_json_str(json) {
            shared.cache.store(
                job_cache_key(&job, shared.service.config().tolerances),
                None,
                Some(snapshot),
            );
        }
    }

    let handle = shared.service.submit(job);
    lock(&connection.inflight).insert(job_id, handle.clone());

    let waiter_shared = Arc::clone(shared);
    let waiter_conn = Arc::clone(connection);
    let waiter = std::thread::Builder::new()
        .name("pagani-remote-result".into())
        .spawn(move || {
            wait_and_report(
                &waiter_shared,
                &waiter_conn,
                job_id,
                &handle,
                &frame.integrand,
                &frame.lo_bits,
                &frame.hi_bits,
            );
        })
        .expect("spawning the remote result-waiter thread");
    shared.track(waiter);
}

/// Block on one job and stream its outcome back, then retire it from the
/// connection's in-flight set.
fn wait_and_report(
    shared: &Arc<WorkerShared>,
    connection: &Arc<Connection>,
    job_id: u64,
    handle: &JobHandle,
    integrand: &str,
    lo_bits: &[u64],
    hi_bits: &[u64],
) {
    let reply = match std::panic::catch_unwind(AssertUnwindSafe(|| handle.wait())) {
        Ok(output) => {
            let result = &output.result;
            // Interrupted runs ship their persisted checkpoint back so the
            // front-end can resume the job on another worker (the service
            // stored it in the worker cache when the run wound down).
            let snapshot_json = matches!(
                result.termination,
                Termination::Cancelled | Termination::MemoryExhausted
            )
            .then(|| {
                shared
                    .cache
                    .lookup_snapshot(integrand, lo_bits, hi_bits)
                    .map(|snapshot| snapshot.to_json_string())
            })
            .flatten();
            Message::JobDone {
                job_id,
                estimate_bits: result.estimate.to_bits(),
                error_bits: result.error_estimate.to_bits(),
                termination: termination_to_tag(result.termination),
                iterations: result.iterations as u64,
                function_evaluations: result.function_evaluations,
                regions_generated: result.regions_generated,
                active_regions_final: result.active_regions_final as u64,
                wall_micros: result.wall_time.as_micros().min(u128::from(u64::MAX)) as u64,
                snapshot_json,
            }
        }
        Err(payload) => Message::JobFailed {
            job_id,
            message: panic_message(payload.as_ref()),
        },
    };
    lock(&connection.inflight).remove(&job_id);
    let _ = send(connection, &reply);
}

fn send(connection: &Connection, message: &Message) -> Result<(), WireError> {
    let mut writer = lock(&connection.writer);
    message.write_to(&mut *writer)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaganiConfig;
    use pagani_device::Device;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::Tolerances;

    #[test]
    fn finished_result_waiters_are_not_retained() {
        let config = PaganiConfig::test_small(Tolerances::rel(1e-3));
        let worker = RemoteWorker::bind(
            "127.0.0.1:0",
            ServiceBuilder::new(config.clone()).device(Device::test_small()),
            Arc::new(IntegrandRegistry::with_paper_suite(2)),
        )
        .expect("bind a loopback worker");
        let frontend = ServiceBuilder::new(config)
            .endpoint(worker.local_addr().to_string())
            .build_distributed()
            .expect("connect the front-end");
        let jobs = 24;
        for _ in 0..jobs {
            assert!(frontend
                .submit(BatchJob::new(PaperIntegrand::f1(2)))
                .wait()
                .result
                .converged());
        }
        // One connection handler plus the waiters that had not yet exited
        // when the next job arrived — a small constant, not one per job.
        let retained = lock(&worker.shared.threads).len();
        assert!(
            retained <= 4,
            "{retained} thread handles retained after {jobs} sequential jobs"
        );
        frontend.shutdown();
        worker.shutdown();
    }
}
