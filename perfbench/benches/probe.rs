//! The tiny-job probe, run in every traced run.
//!
//! The ROADMAP's tiny job (f1-2D at relative tolerance 1e-3: one iteration,
//! 4 352 evaluations) goes through four paths, interleaved call by call so
//! host drift hits them alike:
//!
//! * `direct` — plain `Pagani::integrate_region` (a fresh arena per call);
//! * `arena`  — `Pagani::integrate_region_in` with one reused `ScratchArena`;
//! * `service` — one lane shaped like a `serve` lane (result cache included);
//! * `remote` — one loopback `RemoteWorker` shaped like a `remote` worker.
//!
//! Call `i` integrates over `[0, 1 − i·1e-12] × [0, 1]`, so every call is a
//! distinct cache key and the service and remote paths compute (a cache miss
//! that writes a checkpoint) instead of serving a hit.  After the four paths,
//! the last key is repeated through the lane to time cache hits.
//!
//! The same lane and worker give the service, cache and remote per-layer
//! metrics of workloads that do not cross those layers themselves.

use std::sync::Arc;
use std::time::Instant;

use pagani::prelude::*;
use pagani::CacheKey;

use crate::common::{self, Answer};
use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;

/// Measured calls per path.
const CALLS: usize = 300;
/// Untimed calls per path first.
const WARM_CALLS: usize = 10;
/// Timed cache hits.
const HITS: usize = 100;

pub struct Probe {
    direct_us: Vec<f64>,
    arena_us: Vec<f64>,
    service_us: Vec<f64>,
    remote_us: Vec<f64>,
    lane_submit_us: Vec<f64>,
    lane_run_ms: Vec<f64>,
    lane_overhead_ms: Vec<f64>,
    remote_transit_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    lookup_us: f64,
    lane: ServiceMetrics,
    front: ServiceMetrics,
    worker: ServiceMetrics,
}

fn region(i: usize) -> Region {
    Region::new(vec![0.0, 0.0], vec![1.0 - i as f64 * 1e-12, 1.0])
}

/// Run the probe.
///
/// # Errors
/// Loopback bind/connect failures, or any path disagreeing with `direct` in a
/// single bit.
pub fn run(tracer: &Tracer) -> Result<Probe, String> {
    let f: Arc<dyn Integrand + Send + Sync> = Arc::new(PaperIntegrand::f1(2));
    let config = common::serve_config();
    let pagani = Pagani::new(common::lane_device(), config.clone());
    let arena = ScratchArena::new();
    let cache = Arc::new(ResultCache::new(common::CACHE_BYTES));
    let lane = ServiceBuilder::new(config.clone())
        .device(common::lane_device())
        .workers(1)
        .cache(Arc::clone(&cache))
        .build();
    let worker = RemoteWorker::bind(
        "127.0.0.1:0",
        ServiceBuilder::new(config.clone())
            .device(common::lane_device())
            .workers(1)
            .cache(Arc::new(ResultCache::new(common::CACHE_BYTES))),
        Arc::new(IntegrandRegistry::with_paper_suite(2)),
    )
    .map_err(|e| format!("binding the probe worker: {e}"))?;
    let front = ServiceBuilder::new(config.clone())
        .endpoint(worker.local_addr().to_string())
        .build_distributed()
        .map_err(|e| format!("connecting to the probe worker: {e}"))?;

    let mut p = Probe {
        direct_us: Vec::new(),
        arena_us: Vec::new(),
        service_us: Vec::new(),
        remote_us: Vec::new(),
        lane_submit_us: Vec::new(),
        lane_run_ms: Vec::new(),
        lane_overhead_ms: Vec::new(),
        remote_transit_ms: Vec::new(),
        hit_ms: Vec::new(),
        lookup_us: 0.0,
        lane: ServiceMetrics::default(),
        front: ServiceMetrics::default(),
        worker: ServiceMetrics::default(),
    };
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for i in 0..WARM_CALLS + CALLS {
        let r = region(i);
        let timed = i >= WARM_CALLS;
        let id = i as u64;

        let t = Instant::now();
        let direct = tracer.span("probe.direct", id, None, || {
            pagani.integrate_region(f.as_ref(), &r)
        });
        let direct_us = us(t);
        let t = Instant::now();
        let in_arena = tracer.span("probe.arena", id, None, || {
            pagani.integrate_region_in(f.as_ref(), &r, &arena)
        });
        let arena_us = us(t);

        let job = BatchJob::shared(Arc::clone(&f)).over(r.clone());
        let span = tracer.reserve();
        let t = Instant::now();
        let handle = tracer.span("submit", id, Some(span), || lane.submit(job.clone()));
        let submit_us = us(t);
        let served = tracer.span("wait", id, Some(span), || handle.wait());
        let service_us = us(t);
        tracer.record(span, "probe.service", id, None, t, Instant::now());

        let span = tracer.reserve();
        let t = Instant::now();
        let handle = tracer.span("submit", id, Some(span), || front.submit(job));
        let remote = tracer.span("wait", id, Some(span), || handle.wait());
        let remote_us = us(t);
        tracer.record(span, "probe.remote", id, None, t, Instant::now());

        let expected = Answer::of(&direct.result);
        for (path, out) in [
            ("arena", &in_arena),
            ("service", &served),
            ("remote", &remote),
        ] {
            if Answer::of(&out.result) != expected {
                return Err(format!(
                    "tiny-job probe: the {path} path differs from direct in call {i}"
                ));
            }
        }
        if timed {
            p.direct_us.push(direct_us);
            p.arena_us.push(arena_us);
            p.service_us.push(service_us);
            p.remote_us.push(remote_us);
            p.lane_submit_us.push(submit_us);
            let wall = served.result.wall_time.as_secs_f64();
            p.lane_run_ms.push(wall * 1e3);
            p.lane_overhead_ms.push((service_us * 1e-6 - wall) * 1e3);
            p.remote_transit_ms
                .push((remote_us * 1e-6 - remote.result.wall_time.as_secs_f64()) * 1e3);
        }
    }
    let last = region(WARM_CALLS + CALLS - 1);
    for i in 0..HITS {
        let t = Instant::now();
        let out = tracer.span("probe.hit", i as u64, None, || {
            lane.submit(BatchJob::shared(Arc::clone(&f)).over(last.clone()))
                .wait()
        });
        if !out.result.wall_time.is_zero() {
            return Err("tiny-job probe: a repeated key was not served from the cache".into());
        }
        p.hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let tol = config.tolerances;
    let keys: Vec<CacheKey> = (WARM_CALLS..WARM_CALLS + CALLS)
        .map(|i| {
            let r = region(i);
            CacheKey::new(&f.name(), r.lo(), r.hi(), tol.rel, tol.abs)
        })
        .collect();
    p.lookup_us = time_lookups(&[cache.as_ref()], &keys, tracer);
    p.lane = lane.metrics();
    p.front = front.metrics();
    p.worker = worker.service().metrics();
    lane.shutdown();
    front.shutdown();
    worker.shutdown();
    Ok(p)
}

/// Median time (µs) of one `ResultCache::lookup_result` over `keys` in every
/// cache of `caches`.
pub fn time_lookups(caches: &[&ResultCache], keys: &[CacheKey], tracer: &Tracer) -> f64 {
    let mut times = Vec::with_capacity(keys.len() * caches.len());
    for (i, key) in keys.iter().enumerate() {
        for cache in caches {
            let t = Instant::now();
            std::hint::black_box(
                tracer.span("cache.lookup", i as u64, None, || cache.lookup_result(key)),
            );
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    common::median_or_zero(&times)
}

impl Probe {
    /// Service-layer metrics from the probe lane.
    pub fn fill_service(&self, m: &mut Metrics) {
        m.set("service.submit_us", stats::median(&self.lane_submit_us));
        m.set(
            "service.queue_wait_ms",
            common::mean_wait_ms(std::slice::from_ref(&self.lane)),
        );
        m.set("service.run_ms", stats::median(&self.lane_run_ms));
        m.set("service.overhead_ms", stats::median(&self.lane_overhead_ms));
        m.set("service.rejected", self.lane.rejected() as f64);
        m.set("service.deadline_misses", self.lane.deadline_misses as f64);
        m.set("service.cancelled", self.lane.cancelled as f64);
        m.set(
            "cost.prediction_error",
            common::mean_prediction_error(std::slice::from_ref(&self.lane)),
        );
        m.set("lanes.completed_spread", 0.0);
    }

    /// Cache metrics from the probe lane (hits are the repeated last key).
    pub fn fill_cache(&self, m: &mut Metrics) {
        let lookups = (self.lane.cache_hits + self.lane.cache_misses).max(1);
        m.set(
            "cache.hit_ratio",
            self.lane.cache_hits as f64 / lookups as f64,
        );
        self.fill_hit_latency(m);
        m.set("cache.lookup_us", self.lookup_us);
        m.set(
            "cache.checkpoints_written",
            self.lane.checkpoints_written as f64,
        );
        m.set("cache.evals_saved", self.lane.evals_saved as f64);
    }

    /// Cache-hit latency through the probe lane.
    pub fn fill_hit_latency(&self, m: &mut Metrics) {
        m.set("cache.hit_latency_ms", stats::median(&self.hit_ms));
    }

    /// Remote metrics from the probe's worker and front-end.
    pub fn fill_remote(&self, m: &mut Metrics) {
        m.set("remote.transit_ms", stats::median(&self.remote_transit_ms));
        m.set("remote.dispatched", self.front.remote_dispatched as f64);
        m.set("remote.requeued", self.front.remote_requeued as f64);
        m.set("remote.heartbeats", self.front.remote_heartbeats as f64);
        m.set(
            "worker.checkpoints_written",
            self.worker.checkpoints_written as f64,
        );
    }

    /// The four tiny-job paths.
    pub fn fill_overhead(&self, m: &mut Metrics) {
        let (d, a, s, r) = (
            stats::median(&self.direct_us),
            stats::median(&self.arena_us),
            stats::median(&self.service_us),
            stats::median(&self.remote_us),
        );
        m.set("overhead.direct_us", d);
        m.set("overhead.arena_us", a);
        m.set("overhead.service_us", s);
        m.set("overhead.remote_us", r);
        println!(
            "# tiny job f1-2D at 1e-3, median of {CALLS} interleaved calls: direct {d:.1} us, arena {a:.1} us, service lane {s:.1} us, remote worker {r:.1} us; cache hit through the lane {:.1} us",
            stats::median(&self.hit_ms) * 1e3
        );
    }
}
