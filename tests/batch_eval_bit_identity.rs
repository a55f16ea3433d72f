//! Bit identity of batched integrand evaluation.
//!
//! `Integrand::eval_batch` must be pointwise bit-equal to `Integrand::eval`,
//! and the batched `GenzMalik::evaluate_centered` must reproduce the
//! point-by-point rule it replaced: same integral and error bits, same split
//! axis, same evaluation count.  The reference rule below is a verbatim copy
//! of that point-by-point implementation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use pagani::integrands::genz::{GenzFamily, GenzIntegrand};
use pagani::prelude::*;
use pagani::quadrature::{EvalScratch, GenzMalik, RuleEstimate};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const LAMBDA2: f64 = 0.358_568_582_800_318_1;
const LAMBDA4: f64 = 0.948_683_298_050_513_8;
const LAMBDA5: f64 = 0.688_247_201_611_685_3;
const RATIO: f64 = (9.0 / 70.0) / (9.0 / 10.0);

/// The Genz–Malik rule evaluated one point at a time, one `eval` per point.
fn reference_rule<F: Integrand + ?Sized>(f: &F, center: &[f64], halfwidth: &[f64]) -> RuleEstimate {
    let dim = center.len();
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
    let num_points = 1 + 4 * dim + 2 * dim * (dim - 1) + (1usize << dim);
    let volume: f64 = halfwidth.iter().map(|&h| 2.0 * h).product();
    let mut point = center.to_vec();
    let mut fourth_diff = vec![0.0; dim];

    let f_center = f.eval(&point);
    let sum1 = f_center;
    let mut sum2 = 0.0;
    let mut sum3 = 0.0;
    for axis in 0..dim {
        let h = halfwidth[axis];
        let c = center[axis];
        point[axis] = c - LAMBDA2 * h;
        let f2_lo = f.eval(&point);
        point[axis] = c + LAMBDA2 * h;
        let f2_hi = f.eval(&point);
        point[axis] = c - LAMBDA4 * h;
        let f4_lo = f.eval(&point);
        point[axis] = c + LAMBDA4 * h;
        let f4_hi = f.eval(&point);
        point[axis] = c;
        let pair2 = f2_lo + f2_hi;
        let pair4 = f4_lo + f4_hi;
        sum2 += pair2;
        sum3 += pair4;
        fourth_diff[axis] = (pair2 - 2.0 * f_center - RATIO * (pair4 - 2.0 * f_center)).abs();
    }
    let mut sum4 = 0.0;
    for i in 0..dim {
        for j in (i + 1)..dim {
            let (ci, cj, hi, hj) = (center[i], center[j], halfwidth[i], halfwidth[j]);
            for &(si, sj) in &[(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                point[i] = ci + si * LAMBDA4 * hi;
                point[j] = cj + sj * LAMBDA4 * hj;
                sum4 += f.eval(&point);
            }
            point[i] = ci;
            point[j] = cj;
        }
    }
    let mut sum5 = 0.0;
    for bits in 0..1usize << dim {
        for axis in 0..dim {
            let sign = if bits & (1 << axis) == 0 { 1.0 } else { -1.0 };
            point[axis] = center[axis] + sign * LAMBDA5 * halfwidth[axis];
        }
        sum5 += f.eval(&point);
    }
    let integral = volume * (w[0] * sum1 + w[1] * sum2 + w[2] * sum3 + w[3] * sum4 + w[4] * sum5);
    let fifth_degree = volume * (we[0] * sum1 + we[1] * sum2 + we[2] * sum3 + we[3] * sum4);
    let error = (integral - fifth_degree).abs();
    let mut split_axis = 0;
    let (mut best_diff, mut best_width) = (fourth_diff[0], halfwidth[0]);
    for axis in 1..dim {
        let (d, width) = (fourth_diff[axis], halfwidth[axis]);
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
        evaluations: num_points,
    }
}

/// Every paper family at `dim` (f2 and f6 are fixed at six dimensions).
fn paper_families(dim: usize) -> Vec<PaperIntegrand> {
    vec![
        PaperIntegrand::f1(dim),
        PaperIntegrand::f2(),
        PaperIntegrand::f3(dim),
        PaperIntegrand::f4(dim),
        PaperIntegrand::f5(dim),
        PaperIntegrand::f6(),
        PaperIntegrand::f7(dim),
        PaperIntegrand::f8(dim),
    ]
}

/// One coordinate drawn from `seed`: an edge value (±0.0, 1.0, f6's cut on
/// this axis and its neighbours) or a uniform value that may leave the cube.
fn coordinate(seed: u64, axis: usize) -> f64 {
    let cut = (3 + axis + 1) as f64 / 10.0;
    let uniform = (seed >> 11) as f64 / (1u64 << 53) as f64;
    match seed % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => cut,
        4 => cut.next_down(),
        5 => cut.next_up(),
        6 => 2.0 * uniform - 0.5,
        _ => uniform,
    }
}

/// Axis-major points of dimension `dim`, `xs[axis * n + p]`.
fn axis_major_points(dim: usize, seeds: &[u64]) -> (Vec<f64>, usize) {
    let n = seeds.len() / dim;
    let mut xs = vec![0.0; dim * n];
    for axis in 0..dim {
        for p in 0..n {
            xs[axis * n + p] = coordinate(seeds[p * dim + axis], axis);
        }
    }
    (xs, n)
}

fn assert_batch_matches_eval(f: &dyn Integrand, xs: &[f64], n: usize) -> Result<(), TestCaseError> {
    let dim = f.dim();
    let xs = &xs[..dim * n];
    let mut out = vec![f64::NAN; n];
    f.eval_batch(xs, &mut out);
    let mut point = vec![0.0; dim];
    for (p, &batched) in out.iter().enumerate() {
        for (axis, x) in point.iter_mut().enumerate() {
            *x = xs[axis * n + p];
        }
        let single = f.eval(&point);
        prop_assert!(
            batched.to_bits() == single.to_bits(),
            "{} at {:?}: batch {} vs eval {}",
            f.name(),
            point,
            batched,
            single
        );
    }
    Ok(())
}

fn assert_same_estimate(
    got: RuleEstimate,
    want: RuleEstimate,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        got.integral.to_bits() == want.integral.to_bits(),
        "{what} integral {} vs {}",
        got.integral,
        want.integral
    );
    prop_assert!(
        got.error.to_bits() == want.error.to_bits(),
        "{what} error {} vs {}",
        got.error,
        want.error
    );
    prop_assert!(got.split_axis == want.split_axis, "{what} split axis");
    prop_assert!(got.evaluations == want.evaluations, "{what} evaluations");
    Ok(())
}

#[test]
fn batch_of_nothing_writes_nothing() {
    for f in paper_families(3) {
        f.eval_batch(&[], &mut []);
    }
}

/// Above ten dimensions the corner orbit goes to the integrand in several
/// batches; the sum over them must still be the point-by-point sum.
#[test]
fn chunked_corner_orbit_matches_point_by_point_rule() {
    for dim in [11, 13] {
        let rule = GenzMalik::new(dim);
        let mut scratch = EvalScratch::new(dim);
        let center: Vec<f64> = (0..dim).map(|i| 0.3 + 0.03 * i as f64).collect();
        let halfwidth: Vec<f64> = (0..dim).map(|i| 0.05 + 0.01 * i as f64).collect();
        for f in [
            PaperIntegrand::f1(dim),
            PaperIntegrand::f3(dim),
            PaperIntegrand::f4(dim),
            PaperIntegrand::f5(dim),
            PaperIntegrand::f7(dim),
            PaperIntegrand::f8(dim),
        ] {
            let want = reference_rule(&f, &center, &halfwidth);
            let got = rule.evaluate_centered(&f, &center, &halfwidth, &mut scratch);
            assert_same_estimate(got, want, &f.label()).unwrap();
            let dynamic: &dyn Integrand = &f;
            let got = rule.evaluate_centered(dynamic, &center, &halfwidth, &mut scratch);
            assert_same_estimate(got, want, &f.label()).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `eval_batch` equals `eval` bit for bit for every integrand family the
    /// workspace ships, at dims 2–8 and on edge-heavy points.
    #[test]
    fn prop_eval_batch_is_pointwise_bit_equal_to_eval(
        dim in 2usize..9,
        seeds in proptest::collection::vec(0u64..u64::MAX, 8..320),
        params in proptest::collection::vec(0.05f64..4.0, 16..17),
    ) {
        // Six-dimensional families need 6 coordinates per point, the others `dim`.
        let width = dim.max(6);
        let (xs, n) = axis_major_points(width, &seeds);
        let mut integrands: Vec<Box<dyn Integrand>> = Vec::new();
        for f in paper_families(dim) {
            integrands.push(Box::new(f));
        }
        for family in GenzFamily::all() {
            let a = params[..dim].to_vec();
            let u = params[8..8 + dim].iter().map(|v| v / 4.0).collect();
            integrands.push(Box::new(GenzIntegrand::new(family, a, u)));
        }
        integrands.push(Box::new(GaussianLikelihood::cosmology_like(dim)));
        integrands.push(Box::new(BasketOption::new(
            vec![100.0; dim],
            vec![1.0 / dim as f64; dim],
            params[..dim].iter().map(|v| 0.1 + v / 10.0).collect(),
            100.0,
            0.03,
            1.0,
        )));
        for f in &integrands {
            // Re-lay the points for this integrand's own dimension.
            let fd = f.dim();
            let mut own = vec![0.0; fd * n];
            for axis in 0..fd {
                own[axis * n..(axis + 1) * n].copy_from_slice(&xs[axis * n..(axis + 1) * n]);
            }
            assert_batch_matches_eval(f.as_ref(), &own, n)?;
        }
    }

    /// f3's batch raises to a constant exponent for dims 2–8 and to a
    /// runtime one otherwise; both must match `eval` at every dimension f3
    /// supports.
    #[test]
    fn prop_f3_batch_is_bit_equal_at_every_dimension(
        seeds in proptest::collection::vec(0u64..u64::MAX, 20..400),
    ) {
        // Built once: f3's constructor sums 2^d terms for its reference value.
        static F3: OnceLock<Vec<PaperIntegrand>> = OnceLock::new();
        for f in F3.get_or_init(|| (1..=20).map(PaperIntegrand::f3).collect()) {
            let dim = f.dim();
            let (xs, n) = axis_major_points(dim, &seeds[..seeds.len() / 20 * dim]);
            assert_batch_matches_eval(f, &xs, n)?;
        }
    }

    /// The batched rule reproduces the point-by-point rule on random
    /// regions, through the concrete type, `&dyn Integrand` and a closure.
    #[test]
    fn prop_batched_rule_matches_point_by_point_rule(
        dim in 2usize..9,
        centers in proptest::collection::vec(0.0f64..1.0, 8..9),
        widths in proptest::collection::vec(1e-6f64..0.5, 8..9),
    ) {
        for f in paper_families(dim) {
            let fd = f.dim();
            let rule = GenzMalik::new(fd);
            let mut scratch = EvalScratch::new(fd);
            let center = &centers[..fd];
            let halfwidth = &widths[..fd];
            let want = reference_rule(&f, center, halfwidth);
            let label = f.label();

            let got = rule.evaluate_centered(&f, center, halfwidth, &mut scratch);
            assert_same_estimate(got, want, &format!("{label} concrete"))?;

            let dynamic: &dyn Integrand = &f;
            let got = rule.evaluate_centered(dynamic, center, halfwidth, &mut scratch);
            assert_same_estimate(got, want, &format!("{label} dyn"))?;
            let got = rule.evaluate_centered(&dynamic, center, halfwidth, &mut scratch);
            assert_same_estimate(got, want, &format!("{label} &dyn"))?;

            let calls = AtomicUsize::new(0);
            let closure = FnIntegrand::new(fd, |x: &[f64]| {
                calls.fetch_add(1, Ordering::Relaxed);
                f.eval(x)
            });
            let got = rule.evaluate_centered(&closure, center, halfwidth, &mut scratch);
            assert_same_estimate(got, want, &format!("{label} closure"))?;
            prop_assert_eq!(calls.load(Ordering::Relaxed), rule.num_points());
        }
    }
}
