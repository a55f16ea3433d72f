//! The seeded job generator shared by the `serve` and `remote` workloads.
//!
//! Jobs are paper-suite integrands (f3, f4, f5, f7, f8) in 2–4 dimensions
//! over seeded sub-boxes of the unit cube.  The program only ever receives the
//! generated jobs; everything random lives here and is a pure function of the
//! seed.
//!
//! Integrands are never drawn as random-parameter `GenzIntegrand`s: their
//! `name()` ignores the parameters, so distinct instances would share one
//! cache key and one registry entry (a defect recorded in the README).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pagani::prelude::*;
use pagani::CacheKey;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of stream `stream` of a run seeded with `seed` (measured segments,
/// warm-up jobs), so every stream is a pure function of the run's seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// The paper-suite families the generator draws from.
pub const FAMILIES: [u8; 5] = [3, 4, 5, 7, 8];
/// The dimensions the generator draws from.
pub const DIMS: [usize; 3] = [2, 3, 4];
/// Share of jobs that carry a deadline and go through `try_submit`.
pub const DEADLINE_SHARE: f64 = 0.2;
/// The deadline those jobs carry: far beyond any job's service time, so it
/// is feasible unless the host stalls.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// Sub-box edge lengths are drawn uniformly from this range.
const WIDTH_RANGE: (f64, f64) = (0.1, 0.5);
/// Repeats copy one of this many most recent distinct jobs.
const REPEAT_WINDOW: usize = 256;

/// One generated job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Paper-suite family number (3, 4, 5, 7 or 8).
    pub family: u8,
    /// Dimension.
    pub dim: usize,
    /// Lower corner of the sub-box.
    pub lo: Vec<f64>,
    /// Upper corner of the sub-box.
    pub hi: Vec<f64>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Deadline, for jobs that go through `try_submit`.
    pub deadline: Option<Duration>,
    /// Index of the earlier job this one repeats exactly.
    pub repeat_of: Option<usize>,
}

impl JobSpec {
    /// The job's region.
    pub fn region(&self) -> Region {
        Region::new(self.lo.clone(), self.hi.clone())
    }

    /// The `(family, dim)` stratum, e.g. `"3D f4"` — also the integrand's
    /// registry name.
    pub fn label(&self) -> String {
        format!("{}D f{}", self.dim, self.family)
    }

    /// The result-cache key the service derives for this job.
    pub fn cache_key(&self, tolerances: Tolerances) -> CacheKey {
        CacheKey::new(
            &self.label(),
            &self.lo,
            &self.hi,
            tolerances.rel,
            tolerances.abs,
        )
    }
}

/// Build the paper integrand of a family and dimension.
pub fn paper_integrand(family: u8, dim: usize) -> PaperIntegrand {
    match family {
        3 => PaperIntegrand::f3(dim),
        4 => PaperIntegrand::f4(dim),
        5 => PaperIntegrand::f5(dim),
        7 => PaperIntegrand::f7(dim),
        8 => PaperIntegrand::f8(dim),
        _ => panic!("family f{family} is not drawn by the generator"),
    }
}

/// The integrands of every stratum, built once so the load generator does not
/// recompute reference values per job.
pub struct Integrands {
    by_label: BTreeMap<String, Arc<dyn Integrand + Send + Sync>>,
}

impl Integrands {
    /// One shared integrand per `(family, dim)` stratum.
    pub fn new() -> Self {
        let mut by_label = BTreeMap::new();
        for family in FAMILIES {
            for dim in DIMS {
                let f: Arc<dyn Integrand + Send + Sync> = Arc::new(paper_integrand(family, dim));
                by_label.insert(f.name(), f);
            }
        }
        Self { by_label }
    }

    /// The integrand of `spec`.
    pub fn get(&self, spec: &JobSpec) -> &Arc<dyn Integrand + Send + Sync> {
        &self.by_label[&spec.label()]
    }

    /// The service job for `spec`.
    pub fn batch_job(&self, spec: &JobSpec) -> BatchJob {
        let job = BatchJob::shared(Arc::clone(self.get(spec)))
            .over(spec.region())
            .with_priority(spec.priority);
        match spec.deadline {
            Some(deadline) => job.with_deadline(deadline),
            None => job,
        }
    }
}

/// A deterministic stream of jobs.
pub struct Generator {
    rng: Rng,
    repeat_share: f64,
    recent: Vec<usize>,
    emitted: Vec<JobSpec>,
}

impl Generator {
    /// A stream seeded with `seed`; `repeat_share` of the jobs (once there is
    /// history) exactly repeat an earlier one.
    pub fn new(seed: u64, repeat_share: f64) -> Self {
        Self {
            rng: Rng::new(seed),
            repeat_share,
            recent: Vec::new(),
            emitted: Vec::new(),
        }
    }

    /// Every job emitted so far, in order.
    pub fn emitted(&self) -> &[JobSpec] {
        &self.emitted
    }

    /// Every job emitted, consuming the generator.
    pub fn into_emitted(self) -> Vec<JobSpec> {
        self.emitted
    }

    /// Emit the next job and return its index.
    pub fn next_index(&mut self) -> usize {
        let index = self.emitted.len();
        let repeat = !self.recent.is_empty() && self.rng.unit() < self.repeat_share;
        let spec = if repeat {
            let original = self.recent[self.rng.below(self.recent.len())];
            JobSpec {
                repeat_of: Some(original),
                ..self.emitted[original].clone()
            }
        } else {
            let family = FAMILIES[self.rng.below(FAMILIES.len())];
            let dim = DIMS[self.rng.below(DIMS.len())];
            let (mut lo, mut hi) = (Vec::with_capacity(dim), Vec::with_capacity(dim));
            for _ in 0..dim {
                let width = WIDTH_RANGE.0 + (WIDTH_RANGE.1 - WIDTH_RANGE.0) * self.rng.unit();
                let start = (1.0 - width) * self.rng.unit();
                lo.push(start);
                hi.push(start + width);
            }
            let priority = match self.rng.below(4) {
                0 => Priority::Low,
                3 => Priority::High,
                _ => Priority::Normal,
            };
            let deadline = (self.rng.unit() < DEADLINE_SHARE).then_some(DEADLINE);
            if self.recent.len() == REPEAT_WINDOW {
                self.recent.remove(0);
            }
            self.recent.push(index);
            JobSpec {
                family,
                dim,
                lo,
                hi,
                priority,
                deadline,
                repeat_of: None,
            }
        };
        self.emitted.push(spec);
        index
    }
}

/// The generated mix of a run: family × dim histogram, repeat and deadline
/// shares.
#[derive(Debug, Default)]
pub struct Mix {
    strata: BTreeMap<String, usize>,
    jobs: usize,
    repeats: usize,
    deadlines: usize,
}

impl Mix {
    pub fn add(&mut self, jobs: &[JobSpec]) {
        for job in jobs {
            *self.strata.entry(job.label()).or_default() += 1;
            self.repeats += usize::from(job.repeat_of.is_some());
            self.deadlines += usize::from(job.deadline.is_some());
        }
        self.jobs += jobs.len();
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.jobs.max(1) as f64;
        let cells: Vec<String> = self
            .strata
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        write!(
            f,
            "{} jobs; repeat share {:.4}; deadline share {:.4}; family x dim: {}",
            self.jobs,
            self.repeats as f64 / n,
            self.deadlines as f64 / n,
            cells.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, repeat_share: f64, n: usize) -> Vec<JobSpec> {
        let mut g = Generator::new(seed, repeat_share);
        for _ in 0..n {
            g.next_index();
        }
        g.emitted().to_vec()
    }

    #[test]
    fn the_same_seed_gives_the_same_jobs() {
        assert_eq!(stream(7, 0.3, 2000), stream(7, 0.3, 2000));
        assert_ne!(stream(7, 0.3, 50), stream(8, 0.3, 50));
    }

    #[test]
    fn repeats_are_exact_copies_of_earlier_distinct_jobs() {
        let jobs = stream(11, 0.3, 5000);
        let repeats = jobs.iter().filter(|j| j.repeat_of.is_some()).count();
        let share = repeats as f64 / jobs.len() as f64;
        assert!((0.27..0.33).contains(&share), "repeat share {share}");
        for (i, job) in jobs.iter().enumerate() {
            if let Some(original) = job.repeat_of {
                assert!(original < i);
                assert!(jobs[original].repeat_of.is_none());
                assert_eq!(
                    jobs[original].cache_key(Tolerances::rel(1e-3)),
                    job.cache_key(Tolerances::rel(1e-3))
                );
            }
        }
        assert!(stream(11, 0.0, 2000).iter().all(|j| j.repeat_of.is_none()));
    }

    #[test]
    fn boxes_lie_inside_the_unit_cube_and_every_stratum_is_drawn() {
        let jobs = stream(3, 0.0, 3000);
        let mut strata = std::collections::BTreeSet::new();
        for job in &jobs {
            assert_eq!(job.lo.len(), job.dim);
            for (&lo, &hi) in job.lo.iter().zip(&job.hi) {
                assert!(0.0 <= lo && lo < hi && hi <= 1.0);
                assert!(hi - lo >= WIDTH_RANGE.0 && hi - lo <= WIDTH_RANGE.1);
            }
            strata.insert(job.label());
        }
        assert_eq!(strata.len(), FAMILIES.len() * DIMS.len());
        let integrands = Integrands::new();
        for job in jobs.iter().take(50) {
            assert_eq!(integrands.get(job).name(), job.label());
        }
    }
}
