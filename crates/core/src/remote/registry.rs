//! Integrand identity across process boundaries.
//!
//! Closures do not serialise; the wire protocol therefore references
//! integrands **by name** — the same identity scheme
//! [`pagani_persist::CacheKey`] already uses for the result cache.  A
//! [`RemoteWorker`](crate::remote::RemoteWorker) resolves each incoming name
//! against its [`IntegrandRegistry`]; a name the worker does not know is
//! answered with a `JobFailed` rather than a guess.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pagani_integrands::paper::PaperIntegrand;
use pagani_quadrature::Integrand;

use crate::lock;

/// A name → integrand table shared by the two ends of a wire connection.
///
/// Keys are the integrands' own [`Integrand::name`] values — register the
/// same constructions on the worker and the front-end and jobs travel by
/// name alone.
///
/// ```
/// use pagani_core::IntegrandRegistry;
/// use pagani_quadrature::FnIntegrand;
///
/// let registry = IntegrandRegistry::new();
/// registry.register(FnIntegrand::new(2, |x: &[f64]| x[0] * x[1]).named("product-2d"));
/// assert!(registry.get("product-2d").is_some());
/// assert!(registry.get("unknown").is_none());
/// ```
#[derive(Default)]
pub struct IntegrandRegistry {
    entries: Mutex<HashMap<String, Arc<dyn Integrand + Send + Sync>>>,
}

impl std::fmt::Debug for IntegrandRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrandRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl IntegrandRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the paper's Genz suite at every dimension
    /// in `2..=max_dim` (`f2` and `f6` are fixed-dimension integrands and
    /// appear once) — the vocabulary the examples and stress tests speak.
    #[must_use]
    pub fn with_paper_suite(max_dim: usize) -> Self {
        let registry = Self::new();
        registry.register(PaperIntegrand::f2());
        registry.register(PaperIntegrand::f6());
        for dim in 2..=max_dim.max(2) {
            for integrand in [
                PaperIntegrand::f1(dim),
                PaperIntegrand::f3(dim),
                PaperIntegrand::f4(dim),
                PaperIntegrand::f5(dim),
                PaperIntegrand::f7(dim),
                PaperIntegrand::f8(dim),
            ] {
                registry.register(integrand);
            }
        }
        registry
    }

    /// Register `integrand` under its own [`Integrand::name`], replacing any
    /// previous entry with that name (latest wins, matching the cache-key
    /// convention that a name *is* the identity).
    pub fn register(&self, integrand: impl Integrand + Send + 'static) {
        self.register_shared(Arc::new(integrand));
    }

    /// [`IntegrandRegistry::register`] for an integrand already behind an
    /// `Arc` (e.g. one also used in local jobs).
    pub fn register_shared(&self, integrand: Arc<dyn Integrand + Send + Sync>) {
        lock(&self.entries).insert(integrand.name(), integrand);
    }

    /// Resolve a wire name to its integrand.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<dyn Integrand + Send + Sync>> {
        lock(&self.entries).get(name).cloned()
    }

    /// Every registered name, sorted (deterministic for display and tests).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.entries).keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered integrands.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.entries).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_quadrature::FnIntegrand;

    #[test]
    fn names_are_the_identity_and_latest_wins() {
        let registry = IntegrandRegistry::new();
        registry.register(FnIntegrand::new(2, |x: &[f64]| x[0]).named("same"));
        registry.register(FnIntegrand::new(3, |x: &[f64]| x[1]).named("same"));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.get("same").unwrap().dim(), 3);
    }

    #[test]
    fn paper_suite_covers_every_family_and_dimension() {
        let registry = IntegrandRegistry::with_paper_suite(4);
        // Six dimension-parametric families at dims 2, 3, 4, plus the two
        // fixed-dimension integrands f2 and f6.
        assert_eq!(registry.len(), 20);
        assert!(registry.get(&PaperIntegrand::f4(3).name()).is_some());
        let names = registry.names();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
    }
}
