//! The Genz–Malik degree-7/5 embedded fully-symmetric cubature rule family.
//!
//! This is the rule used by DCUHRE, Cuba's Cuhre, the two-phase GPU method and PAGANI
//! (§2.1 and §3.2 of the paper).  For an `n`-dimensional hyper-rectangle it evaluates
//! the integrand at `2^n + 2n² + 2n + 1` points arranged in five fully-symmetric
//! orbits and produces:
//!
//! * a degree-7 integral estimate,
//! * an embedded degree-5 estimate whose difference from the degree-7 estimate is the
//!   error estimate, and
//! * the axis along which the scaled fourth divided difference of the integrand is
//!   largest, which is the axis the adaptive algorithms split next.
//!
//! The weights follow Genz & Malik (1983); the same constants are used by the
//! reference `cubature` and `gpuintegration` implementations.

use std::cell::RefCell;

use crate::integrand::Integrand;
use crate::region::Region;

/// λ₂ = √(9/70): offset of the first single-axis orbit.
const LAMBDA2: f64 = 0.358_568_582_800_318_1;
/// λ₄ = √(9/10): offset of the second single-axis orbit and of the two-axis orbit.
const LAMBDA4: f64 = 0.948_683_298_050_513_8;
/// λ₅ = √(9/19): offset of the corner orbit.
const LAMBDA5: f64 = 0.688_247_201_611_685_3;
/// Ratio λ₂²/λ₄² used by the fourth-difference split-axis criterion.
const RATIO: f64 = (9.0 / 70.0) / (9.0 / 10.0);

/// Result of evaluating the rule on one region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleEstimate {
    /// Degree-7 integral estimate.
    pub integral: f64,
    /// Error estimate `|I₇ − I₅|`.
    pub error: f64,
    /// Axis with the largest scaled fourth difference — the recommended split axis.
    pub split_axis: usize,
    /// Number of integrand evaluations performed (constant for a given dimension).
    pub evaluations: usize,
}

/// Corner-orbit points per integrand batch, as a power of two.  Up to ten
/// dimensions the whole corner orbit rides in the region's one batch; above
/// that it goes to the integrand in chunks of `2^CORNER_CHUNK_BITS` points, so
/// the scratch holds `O(n·(n² + 1024))` values instead of `O(n·2^n)`.
const CORNER_CHUNK_BITS: usize = 10;

/// `2n² + 2n + 1`, the rule's points outside the corner orbit.
fn non_corner_points(dim: usize) -> usize {
    1 + 4 * dim + 2 * dim * dim.saturating_sub(1)
}

/// Points in a region's first batch: every point outside the corner orbit,
/// then the first chunk of corners.
fn first_batch_points(dim: usize) -> usize {
    non_corner_points(dim) + (1usize << dim.min(CORNER_CHUNK_BITS))
}

/// Reusable scratch space for rule evaluation.
///
/// The hot loops of every integrator evaluate the rule millions of times; keeping the
/// batch buffers and the per-axis difference accumulators out of the allocator is the
/// same optimisation the CUDA kernels get from shared memory.
#[derive(Debug, Clone)]
pub struct EvalScratch {
    fourth_diff: Vec<f64>,
    /// The points of one batch, axis-major: coordinate `axis` of point `p`
    /// sits at `xs[axis * batch + p]`, where `batch` is the batch's length.
    xs: Vec<f64>,
    /// One integrand value per point of the batch, in rule point order.
    values: Vec<f64>,
}

impl EvalScratch {
    /// Scratch space for a `dim`-dimensional rule.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        let points = first_batch_points(dim);
        Self {
            fourth_diff: vec![0.0; dim],
            xs: vec![0.0; dim * points],
            values: vec![0.0; points],
        }
    }
}

thread_local! {
    /// Per-thread rule scratch, one slot per dimension.
    static THREAD_SCRATCH: RefCell<Vec<Option<EvalScratch>>> = const { RefCell::new(Vec::new()) };
}

/// Run `body` with this thread's cached rule scratch for `dim`, creating it on
/// first use — the way a CUDA block reuses its shared-memory scratch across
/// kernel launches instead of re-allocating it per region.
///
/// The scratch is taken out of its slot for the duration of the call and put
/// back afterwards, so a re-entrant evaluation on the same thread gets a fresh
/// allocation instead of a borrow panic.
pub fn with_thread_scratch<R>(dim: usize, body: impl FnOnce(&mut EvalScratch) -> R) -> R {
    let cached =
        THREAD_SCRATCH.with(|slots| slots.borrow_mut().get_mut(dim).and_then(Option::take));
    let mut scratch = cached.unwrap_or_else(|| EvalScratch::new(dim));
    let out = body(&mut scratch);
    THREAD_SCRATCH.with(|slots| {
        let mut slots = slots.borrow_mut();
        if slots.len() <= dim {
            slots.resize_with(dim + 1, || None);
        }
        slots[dim] = Some(scratch);
    });
    out
}

/// Write the corner points with bit patterns `first..` into columns
/// `offset..` of the axis-major rows of `xs` (each `stride` long).  A clear
/// bit is the `c + λ₅h` side, a set bit `c − λ₅h`.
fn fill_corners(
    xs: &mut [f64],
    stride: usize,
    offset: usize,
    first: usize,
    center: &[f64],
    halfwidth: &[f64],
) {
    for (axis, row) in xs.chunks_exact_mut(stride).enumerate() {
        let (c, h) = (center[axis], halfwidth[axis]);
        let (plus, minus) = (c + LAMBDA5 * h, c - LAMBDA5 * h);
        for (k, x) in row[offset..].iter_mut().enumerate() {
            *x = if ((first + k) >> axis) & 1 == 0 {
                plus
            } else {
                minus
            };
        }
    }
}

/// The Genz–Malik degree-7/5 embedded rule for a fixed dimension.
#[derive(Debug, Clone)]
pub struct GenzMalik {
    dim: usize,
    /// Degree-7 weights for the five orbits (centre, ±λ₂eᵢ, ±λ₄eᵢ, two-axis, corners).
    w: [f64; 5],
    /// Embedded degree-5 weights for the first four orbits.
    we: [f64; 4],
    num_points: usize,
}

impl GenzMalik {
    /// Construct the rule for `dim` dimensions.
    ///
    /// # Panics
    /// Panics if `dim < 2` (the fully-symmetric construction needs at least two axes;
    /// use the Gauss–Kronrod rule in [`crate::gauss_kronrod`] for one-dimensional
    /// problems) or if `dim > 30` (the corner orbit alone would exceed 2³⁰ points).
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(
            (2..=30).contains(&dim),
            "Genz-Malik rule supports 2..=30 dimensions, got {dim}"
        );
        let n = dim as f64;
        let w = [
            (12824.0 - 9120.0 * n + 400.0 * n * n) / 19683.0,
            980.0 / 6561.0,
            (1820.0 - 400.0 * n) / 19683.0,
            200.0 / 19683.0,
            6859.0 / 19683.0 / (1u64 << dim) as f64,
        ];
        let we = [
            (729.0 - 950.0 * n + 50.0 * n * n) / 729.0,
            245.0 / 486.0,
            (265.0 - 100.0 * n) / 1458.0,
            25.0 / 729.0,
        ];
        Self {
            dim,
            w,
            we,
            num_points: non_corner_points(dim) + (1usize << dim),
        }
    }

    /// Dimensionality the rule was built for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of integrand evaluations per region: `2^n + 2n² + 2n + 1`.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Evaluate the rule on the region described by `center` and `halfwidth`.
    ///
    /// The points go to the integrand through [`Integrand::eval_batch`] in
    /// rule order: the centre; per axis λ₂−, λ₂+, λ₄−, λ₄+; per axis pair
    /// i < j the signs (+,+), (+,−), (−,+), (−,−); then the corners in
    /// bit-pattern order (a clear bit is the `+λ₅` side).  Up to ten
    /// dimensions that is one call per region; above, the corner orbit
    /// continues in further calls of 1024 points each.
    ///
    /// # Panics
    /// Panics if the slice lengths do not match the rule dimension.
    pub fn evaluate_centered<F: Integrand + ?Sized>(
        &self,
        f: &F,
        center: &[f64],
        halfwidth: &[f64],
        scratch: &mut EvalScratch,
    ) -> RuleEstimate {
        assert_eq!(center.len(), self.dim, "center has wrong dimension");
        assert_eq!(halfwidth.len(), self.dim, "halfwidth has wrong dimension");
        assert_eq!(
            scratch.fourth_diff.len(),
            self.dim,
            "scratch has wrong dimension"
        );

        let dim = self.dim;
        let m = non_corner_points(dim);
        let n = first_batch_points(dim);
        let chunk = n - m;
        let volume: f64 = halfwidth.iter().map(|&h| 2.0 * h).product();

        // First batch.  Every axis a point does not move stays at the centre;
        // the single-axis and pair orbits then patch their own entries.
        let xs = &mut scratch.xs[..dim * n];
        for (axis, row) in xs.chunks_exact_mut(n).enumerate() {
            let (c, h) = (center[axis], halfwidth[axis]);
            row[..m].fill(c);
            let p = 1 + 4 * axis;
            row[p..p + 4].copy_from_slice(&[
                c - LAMBDA2 * h,
                c + LAMBDA2 * h,
                c - LAMBDA4 * h,
                c + LAMBDA4 * h,
            ]);
        }
        let mut p = 1 + 4 * dim;
        for i in 0..dim {
            let (ci, hi) = (center[i], halfwidth[i]);
            let (lo_i, hi_i) = (ci - LAMBDA4 * hi, ci + LAMBDA4 * hi);
            for j in (i + 1)..dim {
                let (cj, hj) = (center[j], halfwidth[j]);
                let (lo_j, hi_j) = (cj - LAMBDA4 * hj, cj + LAMBDA4 * hj);
                xs[i * n + p..i * n + p + 4].copy_from_slice(&[hi_i, hi_i, lo_i, lo_i]);
                xs[j * n + p..j * n + p + 4].copy_from_slice(&[hi_j, lo_j, hi_j, lo_j]);
                p += 4;
            }
        }
        debug_assert_eq!(p, m);
        fill_corners(xs, n, m, 0, center, halfwidth);
        let values = &mut scratch.values[..n];
        f.eval_batch(xs, values);

        // Orbit 1: the centre.
        let f_center = values[0];
        let sum1 = f_center;

        // Orbits 2 and 3: single-axis offsets at λ₂ and λ₄.
        let mut sum2 = 0.0;
        let mut sum3 = 0.0;
        for (axis, orbit) in values[1..1 + 4 * dim].chunks_exact(4).enumerate() {
            let pair2 = orbit[0] + orbit[1];
            let pair4 = orbit[2] + orbit[3];
            sum2 += pair2;
            sum3 += pair4;
            // Scaled fourth divided difference along this axis (Genz–Malik split
            // criterion, also used by cubature and DCUHRE).
            scratch.fourth_diff[axis] =
                (pair2 - 2.0 * f_center - RATIO * (pair4 - 2.0 * f_center)).abs();
        }

        // Orbit 4: two-axis offsets (±λ₄, ±λ₄) for every axis pair; orbit 5:
        // the 2^n corner points at ±λ₅ in every axis.  Both sums start at +0.0
        // and run in point order.
        let sum4 = values[1 + 4 * dim..m].iter().fold(0.0, |s, &v| s + v);
        let mut sum5 = values[m..].iter().fold(0.0, |s, &v| s + v);
        // Above ten dimensions the rest of the corner orbit follows in
        // chunks, folded on in point order.
        for first in (chunk..1usize << dim).step_by(chunk) {
            let xs = &mut scratch.xs[..dim * chunk];
            fill_corners(xs, chunk, 0, first, center, halfwidth);
            let values = &mut scratch.values[..chunk];
            f.eval_batch(xs, values);
            sum5 = values.iter().fold(sum5, |s, &v| s + v);
        }

        let integral = volume
            * (self.w[0] * sum1
                + self.w[1] * sum2
                + self.w[2] * sum3
                + self.w[3] * sum4
                + self.w[4] * sum5);
        let fifth_degree = volume
            * (self.we[0] * sum1 + self.we[1] * sum2 + self.we[2] * sum3 + self.we[3] * sum4);
        let error = (integral - fifth_degree).abs();

        // Split axis: largest fourth difference; ties broken towards the widest edge
        // so repeated splitting cannot starve an axis.
        let mut split_axis = 0;
        let mut best_diff = scratch.fourth_diff[0];
        let mut best_width = halfwidth[0];
        for (axis, (&d, &width)) in scratch.fourth_diff[..dim]
            .iter()
            .zip(&halfwidth[..dim])
            .enumerate()
            .skip(1)
        {
            if d > best_diff || (d == best_diff && width > best_width) {
                split_axis = axis;
                best_diff = d;
                best_width = width;
            }
        }

        RuleEstimate {
            integral,
            error,
            split_axis,
            evaluations: self.num_points,
        }
    }

    /// Evaluate the rule on a [`Region`].
    pub fn evaluate<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        scratch: &mut EvalScratch,
    ) -> RuleEstimate {
        self.evaluate_centered(f, &region.center(), &region.halfwidths(), scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrand::FnIntegrand;
    use proptest::prelude::*;

    fn eval_on_unit_cube(dim: usize, f: impl Fn(&[f64]) -> f64 + Sync) -> RuleEstimate {
        let rule = GenzMalik::new(dim);
        let mut scratch = EvalScratch::new(dim);
        let region = Region::unit_cube(dim);
        rule.evaluate(&FnIntegrand::new(dim, f), &region, &mut scratch)
    }

    #[test]
    fn point_count_formula() {
        for dim in 2..=10 {
            let rule = GenzMalik::new(dim);
            assert_eq!(
                rule.num_points(),
                (1usize << dim) + 2 * dim * dim + 2 * dim + 1
            );
        }
        assert_eq!(GenzMalik::new(2).num_points(), 4 + 8 + 4 + 1);
        assert_eq!(GenzMalik::new(3).num_points(), 8 + 18 + 6 + 1);
    }

    #[test]
    #[should_panic(expected = "2..=30 dimensions")]
    fn dimension_one_is_rejected() {
        let _ = GenzMalik::new(1);
    }

    #[test]
    fn constant_is_integrated_exactly() {
        for dim in 2..=6 {
            let est = eval_on_unit_cube(dim, |_| 3.5);
            assert!((est.integral - 3.5).abs() < 1e-12, "dim {dim}");
            assert!(est.error < 1e-12, "dim {dim}");
        }
    }

    #[test]
    fn degree_seven_polynomials_are_exact() {
        // x0^7 over [0,1]^3 integrates to 1/8; degree 7 is within the rule's degree.
        let est = eval_on_unit_cube(3, |x| x[0].powi(7));
        assert!((est.integral - 0.125).abs() < 1e-10, "got {}", est.integral);
        // Mixed monomial of total degree 7.
        let est = eval_on_unit_cube(3, |x| x[0].powi(3) * x[1].powi(2) * x[2].powi(2));
        let exact = (1.0 / 4.0) * (1.0 / 3.0) * (1.0 / 3.0);
        assert!((est.integral - exact).abs() < 1e-12);
    }

    #[test]
    fn degree_nine_polynomial_is_not_exact_but_error_bounds_it() {
        let est = eval_on_unit_cube(2, |x| x[0].powi(9) * x[1].powi(8));
        let exact = (1.0 / 10.0) * (1.0 / 9.0);
        let true_err = (est.integral - exact).abs();
        assert!(true_err > 0.0);
        // The embedded error estimate should be of the same magnitude or larger.
        assert!(est.error >= 0.1 * true_err);
    }

    #[test]
    fn scales_with_region_volume() {
        let rule = GenzMalik::new(2);
        let mut scratch = EvalScratch::new(2);
        let f = FnIntegrand::new(2, |_: &[f64]| 2.0);
        let region = Region::new(vec![0.0, 0.0], vec![3.0, 0.5]);
        let est = rule.evaluate(&f, &region, &mut scratch);
        assert!((est.integral - 2.0 * 1.5).abs() < 1e-12);
    }

    #[test]
    fn split_axis_follows_variation() {
        // Variation is much stronger along axis 1 than axis 0.
        let est = eval_on_unit_cube(3, |x| (20.0 * x[1]).sin() + 0.01 * x[0]);
        assert_eq!(est.split_axis, 1);
    }

    #[test]
    fn split_axis_prefers_wider_edge_on_ties() {
        let rule = GenzMalik::new(2);
        let mut scratch = EvalScratch::new(2);
        let f = FnIntegrand::new(2, |_: &[f64]| 1.0);
        // Constant integrand: all fourth differences are zero, widest axis wins.
        let region = Region::new(vec![0.0, 0.0], vec![1.0, 4.0]);
        let est = rule.evaluate(&f, &region, &mut scratch);
        assert_eq!(est.split_axis, 1);
    }

    #[test]
    fn gaussian_estimate_is_close_on_small_region() {
        // On a small region around the peak the rule should already be very accurate.
        let rule = GenzMalik::new(2);
        let mut scratch = EvalScratch::new(2);
        let f = FnIntegrand::new(2, |x: &[f64]| {
            (-((x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2)) * 4.0).exp()
        });
        let region = Region::new(vec![0.45, 0.45], vec![0.55, 0.55]);
        let est = rule.evaluate(&f, &region, &mut scratch);
        // Reference from a fine tensor Simpson evaluation of the same patch.
        let reference = simpson_2d(
            &|x, y| (-((x - 0.5f64).powi(2) + (y - 0.5).powi(2)) * 4.0).exp(),
            0.45,
            0.55,
            0.45,
            0.55,
            64,
        );
        assert!((est.integral - reference).abs() < 1e-9);
    }

    fn simpson_2d(
        f: &dyn Fn(f64, f64) -> f64,
        x0: f64,
        x1: f64,
        y0: f64,
        y1: f64,
        n: usize,
    ) -> f64 {
        let simpson_1d = |g: &dyn Fn(f64) -> f64, a: f64, b: f64| {
            let h = (b - a) / n as f64;
            let mut s = g(a) + g(b);
            for i in 1..n {
                let w = if i % 2 == 1 { 4.0 } else { 2.0 };
                s += w * g(a + i as f64 * h);
            }
            s * h / 3.0
        };
        simpson_1d(&|y| simpson_1d(&|x| f(x, y), x0, x1), y0, y1)
    }

    #[test]
    fn evaluation_count_matches_reported() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let dim = 4;
        let rule = GenzMalik::new(dim);
        let mut scratch = EvalScratch::new(dim);
        let f = FnIntegrand::new(dim, |_: &[f64]| {
            count.fetch_add(1, Ordering::Relaxed);
            1.0
        });
        let est = rule.evaluate(&f, &Region::unit_cube(dim), &mut scratch);
        assert_eq!(count.load(Ordering::Relaxed), est.evaluations);
        assert_eq!(est.evaluations, rule.num_points());
    }

    #[test]
    fn scratch_stays_polynomial_in_the_dimension() {
        // Without chunking the corner orbit, 30 dimensions would need
        // 30 · 2³⁰ coordinates (about 257 GB).
        let scratch = EvalScratch::new(30);
        assert_eq!(scratch.values.len(), 1861 + 1024);
        assert_eq!(scratch.xs.len(), 30 * (1861 + 1024));
        // Up to ten dimensions the batch is the whole region.
        let rule = GenzMalik::new(10);
        assert_eq!(EvalScratch::new(10).values.len(), rule.num_points());
    }

    #[test]
    fn twenty_dimensional_rule_runs_in_chunks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dim = 20;
        let count = AtomicUsize::new(0);
        let rule = GenzMalik::new(dim);
        let mut scratch = EvalScratch::new(dim);
        let f = FnIntegrand::new(dim, |_: &[f64]| {
            count.fetch_add(1, Ordering::Relaxed);
            2.0
        });
        let region = Region::new(vec![0.0; dim], vec![0.5; dim]);
        let est = rule.evaluate(&f, &region, &mut scratch);
        let volume = 0.5f64.powi(20);
        assert!((est.integral - 2.0 * volume).abs() < 1e-12 * volume);
        assert_eq!(count.load(Ordering::Relaxed), rule.num_points());
        assert_eq!(est.evaluations, (1 << 20) + 2 * 400 + 40 + 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_linear_functions_are_exact(
            dim in 2usize..6,
            coeffs in proptest::collection::vec(-5.0f64..5.0, 2..6),
            constant in -5.0f64..5.0,
        ) {
            let dim = dim.min(coeffs.len());
            let coeffs = coeffs[..dim].to_vec();
            let c2 = coeffs.clone();
            let est = eval_on_unit_cube(dim, move |x| {
                constant + x.iter().zip(&c2).map(|(xi, ci)| xi * ci).sum::<f64>()
            });
            let exact = constant + coeffs.iter().sum::<f64>() * 0.5;
            prop_assert!((est.integral - exact).abs() < 1e-10 * exact.abs().max(1.0));
            prop_assert!(est.error < 1e-9 * exact.abs().max(1.0));
        }

        #[test]
        fn prop_error_is_nonnegative_and_finite(
            dim in 2usize..5,
            freq in 0.5f64..8.0,
        ) {
            let est = eval_on_unit_cube(dim, move |x| (freq * x.iter().sum::<f64>()).cos());
            prop_assert!(est.error.is_finite());
            prop_assert!(est.error >= 0.0);
            prop_assert!(est.integral.is_finite());
        }

        #[test]
        fn prop_additivity_under_split(
            dim in 2usize..4,
            axis_seed in 0usize..16,
            freq in 0.5f64..4.0,
        ) {
            // Splitting a region and summing the two children's estimates should agree
            // with the parent estimate to within the combined error estimates for a
            // smooth integrand.
            let dim_usize = dim;
            let rule = GenzMalik::new(dim_usize);
            let mut scratch = EvalScratch::new(dim_usize);
            let f = FnIntegrand::new(dim_usize, move |x: &[f64]| (freq * x.iter().sum::<f64>()).sin() + 2.0);
            let parent = Region::unit_cube(dim_usize);
            let axis = axis_seed % dim_usize;
            let (a, b) = parent.split(axis);
            let ep = rule.evaluate(&f, &parent, &mut scratch);
            let ea = rule.evaluate(&f, &a, &mut scratch);
            let eb = rule.evaluate(&f, &b, &mut scratch);
            let tolerance = ep.error + ea.error + eb.error + 1e-10;
            prop_assert!((ep.integral - (ea.integral + eb.integral)).abs() <= tolerance);
        }
    }
}
