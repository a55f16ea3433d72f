//! The six Genz (1984) integrand families with randomised parameters.
//!
//! The paper's test suite (§4.1) fixes the parameters of these families so that
//! analytic values are available; this module provides the general parameterised
//! families, both for robustness testing (random parameter draws, as in the standard
//! testing methodology of Genz that the paper discusses in §4.2) and because each
//! family has an analytic reference value for *any* parameter choice, which makes
//! them ideal property-test subjects.

use pagani_quadrature::Integrand;
use rand::Rng;

use crate::reference;

/// The six families of Genz's testing package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenzFamily {
    /// `cos(2π u_1 + Σ a_i x_i)` — oscillatory.
    Oscillatory,
    /// `Π (a_i^{-2} + (x_i − u_i)²)^{-1}` — product peak.
    ProductPeak,
    /// `(1 + Σ a_i x_i)^{-(d+1)}` — corner peak.
    CornerPeak,
    /// `exp(−Σ a_i² (x_i − u_i)²)` — Gaussian.
    Gaussian,
    /// `exp(−Σ a_i |x_i − u_i|)` — C⁰ (continuous, non-differentiable).
    C0,
    /// `exp(Σ a_i x_i)` for `x_1 ≤ u_1 ∧ x_2 ≤ u_2`, else 0 — discontinuous.
    Discontinuous,
}

impl GenzFamily {
    /// The "difficulty" normalisation Genz recommends: the affective parameters are
    /// scaled so that `Σ a_i` equals this constant for a `dim`-dimensional instance.
    #[must_use]
    pub fn difficulty(self, dim: usize) -> f64 {
        let d = dim as f64;
        match self {
            GenzFamily::Oscillatory => 9.0 * d.sqrt(),
            GenzFamily::ProductPeak => 7.25 * d.sqrt(),
            GenzFamily::CornerPeak => 1.85 * d.sqrt(),
            GenzFamily::Gaussian => 7.03 * d.sqrt(),
            GenzFamily::C0 => 20.4 * d.sqrt(),
            GenzFamily::Discontinuous => 4.3 * d.sqrt(),
        }
    }

    /// All six families.
    #[must_use]
    pub fn all() -> [GenzFamily; 6] {
        [
            GenzFamily::Oscillatory,
            GenzFamily::ProductPeak,
            GenzFamily::CornerPeak,
            GenzFamily::Gaussian,
            GenzFamily::C0,
            GenzFamily::Discontinuous,
        ]
    }
}

/// A concrete Genz integrand with parameter vectors `a` (affective) and `u` (shift).
#[derive(Debug, Clone)]
pub struct GenzIntegrand {
    family: GenzFamily,
    a: Vec<f64>,
    u: Vec<f64>,
}

impl GenzIntegrand {
    /// Construct from explicit parameters.
    ///
    /// # Panics
    /// Panics if `a` and `u` differ in length, are empty, or `a` contains a
    /// non-positive entry.
    #[must_use]
    pub fn new(family: GenzFamily, a: Vec<f64>, u: Vec<f64>) -> Self {
        assert_eq!(a.len(), u.len(), "parameter vectors must match in length");
        assert!(!a.is_empty(), "Genz integrands need at least one dimension");
        assert!(
            a.iter().all(|&ai| ai > 0.0),
            "affective parameters must be positive"
        );
        Self { family, a, u }
    }

    /// Draw random parameters with Genz's difficulty normalisation.
    pub fn random<R: Rng + ?Sized>(family: GenzFamily, dim: usize, rng: &mut R) -> Self {
        let raw: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.01..1.0)).collect();
        let total: f64 = raw.iter().sum();
        let scale = family.difficulty(dim) / total;
        let a: Vec<f64> = raw.iter().map(|&r| r * scale).collect();
        let u: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        Self::new(family, a, u)
    }

    /// The family this instance belongs to.
    #[must_use]
    pub fn family(&self) -> GenzFamily {
        self.family
    }

    /// The affective parameters `a`.
    #[must_use]
    pub fn a(&self) -> &[f64] {
        &self.a
    }

    /// The shift parameters `u`.
    #[must_use]
    pub fn u(&self) -> &[f64] {
        &self.u
    }

    /// Analytic value of the integral over the unit cube.
    #[must_use]
    pub fn reference_value(&self) -> f64 {
        let dim = self.a.len();
        match self.family {
            GenzFamily::Oscillatory => {
                reference::cos_sum_reference(&self.a, 2.0 * std::f64::consts::PI * self.u[0])
            }
            GenzFamily::ProductPeak => self
                .a
                .iter()
                .zip(&self.u)
                .map(|(&a, &u)| a * ((a * (1.0 - u)).atan() + (a * u).atan()))
                .product(),
            GenzFamily::CornerPeak => reference::corner_peak_reference(&self.a),
            GenzFamily::Gaussian => self
                .a
                .iter()
                .zip(&self.u)
                .map(|(&a, &u)| {
                    0.5 * std::f64::consts::PI.sqrt() / a
                        * (crate::special::erf(a * (1.0 - u)) + crate::special::erf(a * u))
                })
                .product(),
            GenzFamily::C0 => self
                .a
                .iter()
                .zip(&self.u)
                .map(|(&a, &u)| (2.0 - (-a * u).exp() - (-a * (1.0 - u)).exp()) / a)
                .product(),
            GenzFamily::Discontinuous => {
                let mut value = 1.0;
                for (i, (&a, &u)) in self.a.iter().zip(&self.u).enumerate() {
                    let cut = if i < 2 && dim >= 2 { u.min(1.0) } else { 1.0 };
                    value *= ((a * cut).exp() - 1.0) / a;
                }
                value
            }
        }
    }
}

impl Integrand for GenzIntegrand {
    fn dim(&self) -> usize {
        self.a.len()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.a.len());
        match self.family {
            GenzFamily::Oscillatory => {
                let s: f64 = x.iter().zip(&self.a).map(|(&xi, &ai)| ai * xi).sum();
                (2.0 * std::f64::consts::PI * self.u[0] + s).cos()
            }
            GenzFamily::ProductPeak => x
                .iter()
                .zip(self.a.iter().zip(&self.u))
                .map(|(&xi, (&ai, &ui))| 1.0 / (ai.powi(-2) + (xi - ui) * (xi - ui)))
                .product(),
            GenzFamily::CornerPeak => {
                let s: f64 = x.iter().zip(&self.a).map(|(&xi, &ai)| ai * xi).sum();
                (1.0 + s).powi(-(self.a.len() as i32) - 1)
            }
            GenzFamily::Gaussian => {
                let s: f64 = x
                    .iter()
                    .zip(self.a.iter().zip(&self.u))
                    .map(|(&xi, (&ai, &ui))| ai * ai * (xi - ui) * (xi - ui))
                    .sum();
                (-s).exp()
            }
            GenzFamily::C0 => {
                let s: f64 = x
                    .iter()
                    .zip(self.a.iter().zip(&self.u))
                    .map(|(&xi, (&ai, &ui))| ai * (xi - ui).abs())
                    .sum();
                (-s).exp()
            }
            GenzFamily::Discontinuous => {
                let outside = x.iter().zip(&self.u).take(2).any(|(&xi, &ui)| xi > ui);
                if outside {
                    0.0
                } else {
                    let s: f64 = x.iter().zip(&self.a).map(|(&xi, &ai)| ai * xi).sum();
                    s.exp()
                }
            }
        }
    }

    /// `genz-{family}-{d}d-a{bits}-u{bits}`, every parameter spelled as its
    /// exact `f64` bit pattern in hex: the name is the integrand's cache key
    /// and wire identity, so two instances share it only when they are the
    /// same function.
    fn name(&self) -> String {
        let bits = |params: &[f64]| {
            params
                .iter()
                .map(|p| format!("{:016x}", p.to_bits()))
                .collect::<Vec<_>>()
                .join(".")
        };
        format!(
            "genz-{:?}-{}d-a{}-u{}",
            self.family,
            self.a.len(),
            bits(&self.a),
            bits(&self.u)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_quadrature::adaptive1d::integrate_1d;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nested_2d(f: &GenzIntegrand) -> f64 {
        let quad = |g: &dyn Fn(f64) -> f64| integrate_1d(&g, 0.0, 1.0, 1e-11, 0.0, 20_000).integral;
        quad(&|x: f64| quad(&|y: f64| f.eval(&[x, y])))
    }

    #[test]
    fn random_parameters_respect_difficulty() {
        let mut rng = StdRng::seed_from_u64(7);
        for family in GenzFamily::all() {
            let g = GenzIntegrand::random(family, 5, &mut rng);
            let total: f64 = g.a().iter().sum();
            assert!((total - family.difficulty(5)).abs() < 1e-9, "{family:?}");
            assert!(g.u().iter().all(|&u| (0.0..1.0).contains(&u)));
        }
    }

    #[test]
    fn reference_matches_quadrature_for_every_family_in_2d() {
        let mut rng = StdRng::seed_from_u64(12345);
        for family in GenzFamily::all() {
            let g = GenzIntegrand::random(family, 2, &mut rng);
            let numeric = nested_2d(&g);
            let reference = g.reference_value();
            let tol = match family {
                // The discontinuous family converges slowest under nested bisection.
                GenzFamily::Discontinuous => 1e-5,
                _ => 1e-7,
            };
            assert!(
                (numeric - reference).abs() / reference.abs().max(1e-12) < tol,
                "{family:?}: numeric {numeric} vs reference {reference}"
            );
        }
    }

    #[test]
    fn paper_f1_is_an_oscillatory_instance() {
        // With a_i = i and u_1 = 0 the oscillatory family reduces to the paper's f1.
        let g = GenzIntegrand::new(
            GenzFamily::Oscillatory,
            (1..=4).map(|i| i as f64).collect(),
            vec![0.0; 4],
        );
        let f1 = crate::paper::PaperIntegrand::f1(4);
        assert!((g.reference_value() - f1.reference_value()).abs() < 1e-14);
        assert!((g.eval(&[0.1, 0.2, 0.3, 0.4]) - f1.eval(&[0.1, 0.2, 0.3, 0.4])).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "must match in length")]
    fn mismatched_parameters_panic() {
        let _ = GenzIntegrand::new(GenzFamily::Gaussian, vec![1.0], vec![0.5, 0.5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_positive_families_have_positive_references(seed in 0u64..10_000, dim in 2usize..7) {
            let mut rng = StdRng::seed_from_u64(seed);
            for family in [GenzFamily::ProductPeak, GenzFamily::CornerPeak, GenzFamily::Gaussian, GenzFamily::C0, GenzFamily::Discontinuous] {
                let g = GenzIntegrand::random(family, dim, &mut rng);
                prop_assert!(g.reference_value() > 0.0, "{:?}", family);
            }
        }

        #[test]
        fn prop_oscillatory_reference_is_bounded_by_volume(seed in 0u64..10_000, dim in 2usize..7) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = GenzIntegrand::random(GenzFamily::Oscillatory, dim, &mut rng);
            prop_assert!(g.reference_value().abs() <= 1.0 + 1e-12);
        }

        #[test]
        fn prop_gaussian_reference_decreases_with_sharper_peaks(dim in 2usize..6, scale in 1.1f64..3.0) {
            let a: Vec<f64> = (1..=dim).map(|i| i as f64).collect();
            let sharper: Vec<f64> = a.iter().map(|&ai| ai * scale).collect();
            let u = vec![0.5; dim];
            let base = GenzIntegrand::new(GenzFamily::Gaussian, a, u.clone());
            let sharp = GenzIntegrand::new(GenzFamily::Gaussian, sharper, u);
            prop_assert!(sharp.reference_value() < base.reference_value());
        }
    }
}
