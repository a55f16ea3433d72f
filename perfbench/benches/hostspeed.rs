//! Host speed: a fixed kernel of the benchmark's own, timed between the
//! measured phases, by which the CPU-bound end-to-end times are scaled.
//!
//! A shared host changes speed by up to a factor of two in stretches of
//! seconds to tens of minutes, and no steal time shows it.  Runs of the same
//! code minutes apart then differ by that much, which no number of samples
//! within a run removes.  The kernel below does what the program's evaluate
//! kernel does — transcendental functions of rule points around region
//! centres held in a vector larger than the first-level cache — so it slows
//! down with the program.  A scaled time is the measured time ×
//! [`NOMINAL_MS`] ÷ the kernel's median time in the same run: the time at
//! the speed at which the kernel takes [`NOMINAL_MS`].  The kernel is not the
//! program's code, so a change to the program moves the scaled figures as
//! much as the measured ones; the measured ones are printed beside them.

use crate::report::Metrics;
use crate::stats;

/// Regions of the kernel's fixed input.
const REGIONS: usize = 20_000;
/// Dimension of the kernel's fixed input.
const DIM: usize = 5;
/// Half-width of the kernel's rule around each centre.
const H: f64 = 0.01;
/// The kernel's time, in ms, at the speed scaled figures are quoted at
/// (about its median, 3.1 ms, in a fast stretch of the host the benchmark
/// was tuned on).
pub const NOMINAL_MS: f64 = 3.0;

/// The kernel's input and its timings.
pub struct HostSpeed {
    centres: Vec<f64>,
    out: Vec<f64>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let centres = (0..REGIONS * DIM)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        Self {
            centres,
            out: Vec::with_capacity(REGIONS),
            samples_ms: Vec::new(),
        }
    }

    /// Run the kernel `n` times, timing each run in this thread's CPU time.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t0 = crate::common::thread_cpu_seconds();
            std::hint::black_box(self.kernel());
            let t1 = crate::common::thread_cpu_seconds();
            self.samples_ms.push((t1 - t0) * 1e3);
        }
    }

    /// A Genz-like integrand at the 2d + 1 points of a rule around every
    /// centre; one value per region.
    fn kernel(&mut self) -> f64 {
        self.out.clear();
        for c in self.centres.chunks_exact(DIM) {
            let mut acc = 0.0;
            for p in 0..=2 * DIM {
                let (mut phase, mut r2) = (0.0, 0.0);
                for (j, &x) in c.iter().enumerate() {
                    let y = match p {
                        0 => x,
                        _ if (p - 1) / 2 != j => x,
                        _ if p % 2 == 1 => x + H,
                        _ => x - H,
                    };
                    phase += y * (j as f64 + 1.0) * 0.3;
                    r2 += (y - 0.5) * (y - 0.5);
                }
                acc += phase.cos() * (-5.0 * r2).exp();
            }
            self.out.push(acc);
        }
        self.out.iter().sum()
    }

    /// The kernel's median time, in ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.samples_ms)
    }

    /// The factor that turns a measured time into one at nominal speed.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }

    /// Scale the metrics `names` of `m` to nominal speed, printing each
    /// measured value and the kernel's median.
    pub fn scale(&self, m: &mut Metrics, names: &[&'static str]) {
        let factor = self.factor();
        println!(
            "# host speed: reference kernel median {:.4} ms over {} samples; times below are scaled by {NOMINAL_MS} / {:.4} = {factor:.4}",
            self.median_ms(),
            self.samples_ms.len(),
            self.median_ms(),
        );
        for &name in names {
            let v = m.get(name).expect("a scaled metric is set first");
            println!("# measured {name} = {v}");
            m.set(name, v * factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_changes_only_the_named_metrics() {
        let mut speed = HostSpeed::new();
        speed.sample(3);
        let factor = speed.factor();
        assert!(factor.is_finite() && factor > 0.0);
        let mut m = Metrics::default();
        m.set("setup_s", 2.0);
        m.set("cpu_ms_per_job", 1.0);
        m.set("latency_p50_ms", 3.0);
        m.set("ok_frac", 0.5);
        m.set("peak_rss_mb", 20.0);
        speed.scale(&mut m, &["setup_s", "cpu_ms_per_job"]);
        assert_eq!(m.get("setup_s"), Some(2.0 * factor));
        assert_eq!(m.get("cpu_ms_per_job"), Some(factor));
        assert_eq!(m.get("latency_p50_ms"), Some(3.0));
        assert_eq!(m.get("ok_frac"), Some(0.5));
        assert_eq!(m.get("peak_rss_mb"), Some(20.0));
    }
}
