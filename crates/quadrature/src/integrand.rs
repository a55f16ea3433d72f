//! The integrand abstraction shared by every integrator in the workspace.

/// A real-valued function over an `n`-dimensional axis-aligned domain.
///
/// Implementations must be [`Sync`]: PAGANI and the parallel baselines evaluate the
/// integrand from many simulated blocks concurrently, exactly as the CUDA kernels in
/// the paper evaluate it from many thread blocks.
pub trait Integrand: Sync {
    /// Dimensionality of the integration domain.
    fn dim(&self) -> usize;

    /// Evaluate the integrand at `x` (`x.len() == self.dim()`).
    fn eval(&self, x: &[f64]) -> f64;

    /// Evaluate the integrand at `out.len()` points at once.
    ///
    /// `xs` is axis-major: coordinate `axis` of point `p` is `xs[axis * n + p]`
    /// with `n = out.len()`, and the value of point `p` goes to `out[p]`.  An
    /// override must be pointwise bit-equal to [`eval`](Self::eval): the rule
    /// reductions, and with them every pinned result, depend on it.  The
    /// default gathers each point into a stack buffer and calls `eval`, in
    /// point order.
    fn eval_batch(&self, xs: &[f64], out: &mut [f64]) {
        let n = out.len();
        if n == 0 {
            return;
        }
        let dim = xs.len() / n;
        debug_assert_eq!(xs.len(), dim * n, "xs must hold dim * out.len() values");
        let mut stack = [0.0f64; 32];
        let mut heap = Vec::new();
        let point = if dim <= stack.len() {
            &mut stack[..dim]
        } else {
            heap.resize(dim, 0.0);
            &mut heap[..]
        };
        for (p, value) in out.iter_mut().enumerate() {
            for (axis, x) in point.iter_mut().enumerate() {
                *x = xs[axis * n + p];
            }
            *value = self.eval(point);
        }
    }

    /// Human-readable name used in benchmark and experiment output.
    fn name(&self) -> String {
        format!("integrand-{}d", self.dim())
    }

    /// The integration bounds the integrand is normally evaluated on, as
    /// `(lower, upper)` per dimension.  Defaults to the unit hyper-cube, which is the
    /// domain of every integrand in the paper's test suite.
    fn default_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; self.dim()], vec![1.0; self.dim()])
    }
}

/// Adapter turning a closure into an [`Integrand`].
pub struct FnIntegrand<F> {
    dim: usize,
    name: String,
    f: F,
}

impl<F> FnIntegrand<F>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    /// Wrap `f` as an integrand over `dim` dimensions.
    pub fn new(dim: usize, f: F) -> Self {
        Self {
            dim,
            name: format!("closure-{dim}d"),
            f,
        }
    }

    /// Set the display name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl<F> Integrand for FnIntegrand<F>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl<T: Integrand + ?Sized> Integrand for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn eval(&self, x: &[f64]) -> f64 {
        (**self).eval(x)
    }
    fn eval_batch(&self, xs: &[f64], out: &mut [f64]) {
        (**self).eval_batch(xs, out);
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn default_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (**self).default_bounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_integrand_evaluates() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] + 2.0 * x[1]).named("linear");
        assert_eq!(f.dim(), 2);
        assert_eq!(f.eval(&[1.0, 2.0]), 5.0);
        assert_eq!(f.name(), "linear");
    }

    #[test]
    fn default_bounds_are_unit_cube() {
        let f = FnIntegrand::new(3, |_: &[f64]| 0.0);
        let (lo, hi) = f.default_bounds();
        assert_eq!(lo, vec![0.0; 3]);
        assert_eq!(hi, vec![1.0; 3]);
    }

    #[test]
    fn reference_forwarding_works() {
        let f = FnIntegrand::new(1, |x: &[f64]| x[0]);
        let r: &dyn Integrand = &f;
        assert_eq!((&r).dim(), 1);
        assert_eq!((&r).eval(&[0.5]), 0.5);
    }

    #[test]
    fn default_batch_gathers_axis_major_points() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] + 10.0 * x[1]);
        // Three points (1, 4), (2, 5), (3, 6), stored axis by axis.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = [0.0; 3];
        f.eval_batch(&xs, &mut out);
        assert_eq!(out, [41.0, 52.0, 63.0]);
        // The `&T` impl forwards the batch.
        let r: &dyn Integrand = &f;
        let mut forwarded = [0.0; 3];
        (&r).eval_batch(&xs, &mut forwarded);
        assert_eq!(forwarded, out);
        f.eval_batch(&[], &mut []);
    }

    #[test]
    fn default_name_mentions_dimension() {
        struct Plain;
        impl Integrand for Plain {
            fn dim(&self) -> usize {
                4
            }
            fn eval(&self, _: &[f64]) -> f64 {
                1.0
            }
        }
        assert_eq!(Plain.name(), "integrand-4d");
    }
}
