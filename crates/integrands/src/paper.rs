//! The paper's test suite: integrands f1–f8 of §4.1 with fixed parameters and
//! analytic reference values.
//!
//! All integrands are defined on the unit hyper-cube `(0,1)^d`.  The dimensionality is
//! a constructor parameter where the paper varies it (f3 is run in 3 and 8 dimensions,
//! f4 in 5 and 8, f5 in 5 and 8, …); the fixed-dimension integrands (f2 and f6) reject
//! other dimensions.

use pagani_quadrature::Integrand;

use crate::reference;

/// Which of the paper's eight integrand families an instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperFamily {
    /// f1: oscillatory `cos(Σ i·x_i)`.
    F1Oscillatory,
    /// f2: product of six Lorentzian peaks.
    F2ProductPeak,
    /// f3: corner peak `(1 + Σ i·x_i)^{-(d+1)}`.
    F3CornerPeak,
    /// f4: sharp Gaussian `exp(−625 Σ (x_i − 1/2)²)`.
    F4Gaussian,
    /// f5: C⁰ ridge `exp(−10 Σ |x_i − 1/2|)`.
    F5C0,
    /// f6: exponential with a discontinuous cut-off per axis.
    F6Discontinuous,
    /// f7: box integral `(Σ x_i²)^{11}`.
    F7BoxEven,
    /// f8: box integral `(Σ x_i²)^{15/2}`.
    F8BoxHalfInteger,
}

/// One concrete paper integrand (family + dimension), carrying its reference value.
#[derive(Debug, Clone)]
pub struct PaperIntegrand {
    family: PaperFamily,
    dim: usize,
    reference: f64,
}

impl PaperIntegrand {
    /// f1(x) = cos(Σ_{i=1}^{d} i·x_i).  The paper uses d = 8.
    #[must_use]
    pub fn f1(dim: usize) -> Self {
        assert!(dim >= 1, "f1 needs at least one dimension");
        let coeffs: Vec<f64> = (1..=dim).map(|i| i as f64).collect();
        Self {
            family: PaperFamily::F1Oscillatory,
            dim,
            reference: reference::cos_sum_reference(&coeffs, 0.0),
        }
    }

    /// f2(x) = Π_{i=1}^{6} (1/50² + (x_i − 1/2)²)^{-1}.  Fixed at 6 dimensions.
    #[must_use]
    pub fn f2() -> Self {
        let dim = 6;
        Self {
            family: PaperFamily::F2ProductPeak,
            dim,
            reference: reference::product_lorentzian_reference(1.0 / 50.0, &[0.5; 6]),
        }
    }

    /// f3(x) = (1 + Σ_{i=1}^{d} i·x_i)^{-(d+1)}.  The paper uses d = 3 and d = 8.
    #[must_use]
    pub fn f3(dim: usize) -> Self {
        assert!((1..=20).contains(&dim), "f3 supports 1..=20 dimensions");
        let coeffs: Vec<f64> = (1..=dim).map(|i| i as f64).collect();
        Self {
            family: PaperFamily::F3CornerPeak,
            dim,
            reference: reference::corner_peak_reference(&coeffs),
        }
    }

    /// f4(x) = exp(−625 Σ_{i=1}^{d} (x_i − 1/2)²).  The paper uses d = 5 and d = 8.
    #[must_use]
    pub fn f4(dim: usize) -> Self {
        assert!(dim >= 1, "f4 needs at least one dimension");
        Self {
            family: PaperFamily::F4Gaussian,
            dim,
            reference: reference::gaussian_reference(625.0, &vec![0.5; dim]),
        }
    }

    /// f5(x) = exp(−10 Σ_{i=1}^{d} |x_i − 1/2|).  The paper uses d = 5 and d = 8.
    #[must_use]
    pub fn f5(dim: usize) -> Self {
        assert!(dim >= 1, "f5 needs at least one dimension");
        Self {
            family: PaperFamily::F5C0,
            dim,
            reference: reference::abs_exponential_reference(10.0, &vec![0.5; dim]),
        }
    }

    /// f6(x) = exp(Σ_{i=1}^{6} (i+4)·x_i) when every x_i < (3+i)/10, else 0.
    /// Fixed at 6 dimensions.
    #[must_use]
    pub fn f6() -> Self {
        let dim = 6;
        Self {
            family: PaperFamily::F6Discontinuous,
            dim,
            reference: reference::discontinuous_reference(dim),
        }
    }

    /// f7(x) = (Σ_{i=1}^{d} x_i²)^{11}.  The paper uses d = 8.
    #[must_use]
    pub fn f7(dim: usize) -> Self {
        assert!(dim >= 1, "f7 needs at least one dimension");
        Self {
            family: PaperFamily::F7BoxEven,
            dim,
            reference: reference::box_integral_even_reference(dim, 11),
        }
    }

    /// f8(x) = (Σ_{i=1}^{d} x_i²)^{15/2}.  The paper uses d = 8.
    #[must_use]
    pub fn f8(dim: usize) -> Self {
        assert!(dim >= 1, "f8 needs at least one dimension");
        Self {
            family: PaperFamily::F8BoxHalfInteger,
            dim,
            reference: reference::box_integral_odd_reference(dim, 15),
        }
    }

    /// The integrand family.
    #[must_use]
    pub fn family(&self) -> PaperFamily {
        self.family
    }

    /// Analytic value of the integral over the unit cube.
    #[must_use]
    pub fn reference_value(&self) -> f64 {
        self.reference
    }

    /// Whether the integrand takes both signs on the domain, in which case PAGANI's
    /// relative-error filtering must be disabled (§3.5.1 / §4.3 of the paper — the
    /// oscillatory f1 is the only such member of the suite).
    #[must_use]
    pub fn is_sign_oscillating(&self) -> bool {
        matches!(self.family, PaperFamily::F1Oscillatory)
    }

    /// Short label matching the paper's plots, e.g. `"5D f4"`.
    #[must_use]
    pub fn label(&self) -> String {
        let idx = match self.family {
            PaperFamily::F1Oscillatory => 1,
            PaperFamily::F2ProductPeak => 2,
            PaperFamily::F3CornerPeak => 3,
            PaperFamily::F4Gaussian => 4,
            PaperFamily::F5C0 => 5,
            PaperFamily::F6Discontinuous => 6,
            PaperFamily::F7BoxEven => 7,
            PaperFamily::F8BoxHalfInteger => 8,
        };
        format!("{}D f{}", self.dim, idx)
    }
}

impl Integrand for PaperIntegrand {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        match self.family {
            PaperFamily::F1Oscillatory => x
                .iter()
                .enumerate()
                .map(|(i, &xi)| (i as f64 + 1.0) * xi)
                .sum::<f64>()
                .cos(),
            PaperFamily::F2ProductPeak => {
                let a2 = (1.0f64 / 50.0) * (1.0 / 50.0);
                x.iter()
                    .map(|&xi| 1.0 / (a2 + (xi - 0.5) * (xi - 0.5)))
                    .product()
            }
            PaperFamily::F3CornerPeak => {
                let s: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(i, &xi)| (i as f64 + 1.0) * xi)
                    .sum();
                (1.0 + s).powi(-(self.dim as i32) - 1)
            }
            PaperFamily::F4Gaussian => {
                let s: f64 = x.iter().map(|&xi| (xi - 0.5) * (xi - 0.5)).sum();
                (-625.0 * s).exp()
            }
            PaperFamily::F5C0 => {
                let s: f64 = x.iter().map(|&xi| (xi - 0.5).abs()).sum();
                (-10.0 * s).exp()
            }
            PaperFamily::F6Discontinuous => {
                let inside = x
                    .iter()
                    .enumerate()
                    .all(|(i, &xi)| xi < (3 + i + 1) as f64 / 10.0);
                if inside {
                    x.iter()
                        .enumerate()
                        .map(|(i, &xi)| (i as f64 + 1.0 + 4.0) * xi)
                        .sum::<f64>()
                        .exp()
                } else {
                    0.0
                }
            }
            PaperFamily::F7BoxEven => {
                let s: f64 = x.iter().map(|&xi| xi * xi).sum();
                s.powi(11)
            }
            PaperFamily::F8BoxHalfInteger => {
                let s: f64 = x.iter().map(|&xi| xi * xi).sum();
                s.powf(7.5)
            }
        }
    }

    /// Columnar evaluation: one `match` per batch, then per-axis loops over all
    /// points.  Each point's sum runs in axis order and starts from the first
    /// axis's term, which is bit-equal to `eval`'s `Iterator::sum` (and the
    /// product to `Iterator::product`).
    fn eval_batch(&self, xs: &[f64], out: &mut [f64]) {
        if out.is_empty() {
            return;
        }
        debug_assert_eq!(xs.len(), self.dim * out.len());
        match self.family {
            PaperFamily::F1Oscillatory => {
                sum_over_axes(xs, out, |coeff, xi| coeff * xi);
                out.iter_mut().for_each(|v| *v = v.cos());
            }
            PaperFamily::F2ProductPeak => {
                let a2 = (1.0f64 / 50.0) * (1.0 / 50.0);
                fold_over_axes(
                    xs,
                    out,
                    |_, xi| 1.0 / (a2 + (xi - 0.5) * (xi - 0.5)),
                    |acc, t| acc * t,
                );
            }
            PaperFamily::F3CornerPeak => {
                sum_over_axes(xs, out, |coeff, xi| coeff * xi);
                corner_peak_power(out, self.dim);
            }
            PaperFamily::F4Gaussian => {
                sum_over_axes(xs, out, |_, xi| (xi - 0.5) * (xi - 0.5));
                out.iter_mut().for_each(|v| *v = (-625.0 * *v).exp());
            }
            PaperFamily::F5C0 => {
                sum_over_axes(xs, out, |_, xi| (xi - 0.5).abs());
                out.iter_mut().for_each(|v| *v = (-10.0 * *v).exp());
            }
            PaperFamily::F6Discontinuous => {
                // A coordinate at or past its cut marks the point NaN.  No
                // point inside the cut on every axis can sum to NaN (each
                // term is finite or −∞), so the mark survives the sum.
                fold_over_axes(
                    xs,
                    out,
                    |coeff, xi| {
                        if xi < (coeff + 3.0) / 10.0 {
                            (coeff + 4.0) * xi
                        } else {
                            f64::NAN
                        }
                    },
                    |acc, t| acc + t,
                );
                out.iter_mut()
                    .for_each(|v| *v = if v.is_nan() { 0.0 } else { v.exp() });
            }
            PaperFamily::F7BoxEven => {
                sum_over_axes(xs, out, |_, xi| xi * xi);
                out.iter_mut().for_each(|v| *v = v.powi(11));
            }
            PaperFamily::F8BoxHalfInteger => {
                sum_over_axes(xs, out, |_, xi| xi * xi);
                out.iter_mut().for_each(|v| *v = v.powf(7.5));
            }
        }
    }

    fn name(&self) -> String {
        self.label()
    }
}

/// `out[p] = Σ_axis term(axis + 1, x_axis,p)` over the axis-major `xs`, in
/// axis order, starting from the first axis's term.
fn sum_over_axes(xs: &[f64], out: &mut [f64], term: impl Fn(f64, f64) -> f64) {
    fold_over_axes(xs, out, term, |acc, t| acc + t);
}

/// `out[p] = combine(… combine(term(1, x_0,p), term(2, x_1,p)) …)` over the
/// axis-major `xs`: one pass per axis, in axis order.
fn fold_over_axes(
    xs: &[f64],
    out: &mut [f64],
    term: impl Fn(f64, f64) -> f64,
    combine: impl Fn(f64, f64) -> f64,
) {
    let n = out.len();
    for (axis, column) in xs.chunks_exact(n).enumerate() {
        let coeff = axis as f64 + 1.0;
        if axis == 0 {
            for (v, &xi) in out.iter_mut().zip(column) {
                *v = term(coeff, xi);
            }
        } else {
            for (v, &xi) in out.iter_mut().zip(column) {
                *v = combine(*v, term(coeff, xi));
            }
        }
    }
}

/// f3's `(1 + s)^{-(d+1)}` in place.  For the dimensions the paper suite
/// uses the exponent is a constant, so `powi` compiles to an inline
/// multiplication chain instead of a `__powidf2` call per point (about half
/// the batched f3 cost at 4-D).  The chain is the same square-and-multiply
/// sequence the runtime exponent runs, so the bits match `eval`.
fn corner_peak_power(out: &mut [f64], dim: usize) {
    fn power<const E: i32>(out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = (1.0 + *v).powi(E));
    }
    match dim {
        2 => power::<-3>(out),
        3 => power::<-4>(out),
        4 => power::<-5>(out),
        5 => power::<-6>(out),
        6 => power::<-7>(out),
        7 => power::<-8>(out),
        8 => power::<-9>(out),
        _ => {
            let e = -(dim as i32) - 1;
            out.iter_mut().for_each(|v| *v = (1.0 + *v).powi(e));
        }
    }
}

/// The `(integrand, dimension)` pairs plotted in the paper's figures
/// (§4.1: f1, f3, f4, f5, f7, f8 in 8D; f4 in 5D; f6 in 6D; f3 in 3D; f5 in 5D).
#[must_use]
pub fn paper_plot_suite() -> Vec<PaperIntegrand> {
    vec![
        PaperIntegrand::f1(8),
        PaperIntegrand::f3(3),
        PaperIntegrand::f3(8),
        PaperIntegrand::f4(5),
        PaperIntegrand::f4(8),
        PaperIntegrand::f5(5),
        PaperIntegrand::f5(8),
        PaperIntegrand::f6(),
        PaperIntegrand::f7(8),
        PaperIntegrand::f8(8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_quadrature::adaptive1d::integrate_1d_reference;

    #[test]
    fn dimensions_match_construction() {
        assert_eq!(PaperIntegrand::f1(8).dim(), 8);
        assert_eq!(PaperIntegrand::f2().dim(), 6);
        assert_eq!(PaperIntegrand::f6().dim(), 6);
        assert_eq!(PaperIntegrand::f4(5).dim(), 5);
    }

    #[test]
    fn labels_match_paper_convention() {
        assert_eq!(PaperIntegrand::f4(5).label(), "5D f4");
        assert_eq!(PaperIntegrand::f7(8).label(), "8D f7");
        assert_eq!(PaperIntegrand::f6().label(), "6D f6");
    }

    #[test]
    fn only_f1_is_sign_oscillating() {
        assert!(PaperIntegrand::f1(8).is_sign_oscillating());
        for f in [
            PaperIntegrand::f2(),
            PaperIntegrand::f3(3),
            PaperIntegrand::f4(5),
            PaperIntegrand::f5(5),
            PaperIntegrand::f6(),
            PaperIntegrand::f7(8),
            PaperIntegrand::f8(8),
        ] {
            assert!(!f.is_sign_oscillating(), "{}", f.label());
        }
    }

    #[test]
    fn f6_is_zero_outside_the_cutoffs() {
        let f6 = PaperIntegrand::f6();
        // First axis cut-off is 0.4.
        assert_eq!(f6.eval(&[0.5, 0.1, 0.1, 0.1, 0.1, 0.1]), 0.0);
        assert!(f6.eval(&[0.3, 0.1, 0.1, 0.1, 0.1, 0.1]) > 0.0);
        // Last axis cut-off is 0.9.
        assert_eq!(f6.eval(&[0.1, 0.1, 0.1, 0.1, 0.1, 0.95]), 0.0);
    }

    #[test]
    fn f4_peaks_at_the_centre() {
        let f4 = PaperIntegrand::f4(5);
        assert_eq!(f4.eval(&[0.5; 5]), 1.0);
        assert!(f4.eval(&[0.4; 5]) < 1.0);
        assert!(f4.eval(&[0.0; 5]) < 1e-100 * f4.eval(&[0.5; 5]));
    }

    #[test]
    fn f7_f8_are_monotone_in_radius() {
        let f7 = PaperIntegrand::f7(8);
        let f8 = PaperIntegrand::f8(8);
        assert!(f7.eval(&[0.9; 8]) > f7.eval(&[0.5; 8]));
        assert!(f8.eval(&[0.9; 8]) > f8.eval(&[0.5; 8]));
        assert_eq!(f7.eval(&[0.0; 8]), 0.0);
    }

    #[test]
    fn low_dim_references_match_nested_quadrature() {
        // 1-D and 2-D instances can be verified directly by nested 1-D quadrature.
        let cases: Vec<(PaperIntegrand, f64)> = vec![
            (PaperIntegrand::f1(2), 1e-10),
            (PaperIntegrand::f3(2), 1e-9),
            (PaperIntegrand::f4(2), 1e-9),
            (PaperIntegrand::f5(2), 1e-9),
            (PaperIntegrand::f7(2), 1e-9),
        ];
        for (integrand, tol) in cases {
            let numeric = integrate_1d_reference(
                &|x: f64| {
                    integrate_1d_reference(&|y: f64| integrand.eval(&[x, y]), 0.0, 1.0).integral
                },
                0.0,
                1.0,
            )
            .integral;
            let reference = integrand.reference_value();
            assert!(
                (numeric - reference).abs() / reference.abs().max(1e-300) < tol,
                "{}: {numeric} vs {reference}",
                integrand.label()
            );
        }
    }

    #[test]
    fn known_closed_forms() {
        // f4 per-axis factor to the power of the dimension.
        let per_axis = crate::special::gaussian_segment_integral(625.0, 0.5, 0.0, 1.0);
        let f4 = PaperIntegrand::f4(5);
        assert!((f4.reference_value() - per_axis.powi(5)).abs() < 1e-15);
        // f5 per-axis factor.
        let per_axis = 2.0 * (1.0 - (-5.0f64).exp()) / 10.0;
        let f5 = PaperIntegrand::f5(8);
        assert!((f5.reference_value() - per_axis.powi(8)).abs() < 1e-16);
    }

    #[test]
    fn reference_values_are_finite_and_positive_where_expected() {
        for f in paper_plot_suite() {
            let v = f.reference_value();
            assert!(v.is_finite(), "{}", f.label());
            if !f.is_sign_oscillating() {
                assert!(v > 0.0, "{}", f.label());
            }
        }
    }

    #[test]
    fn plot_suite_contains_the_figure_cases() {
        let labels: Vec<String> = paper_plot_suite().iter().map(|f| f.label()).collect();
        for needed in [
            "5D f4", "6D f6", "8D f7", "5D f5", "3D f3", "8D f1", "8D f8",
        ] {
            assert!(labels.iter().any(|l| l == needed), "missing {needed}");
        }
    }
}
