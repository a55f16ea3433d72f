//! Cubature substrates for the PAGANI reproduction.
//!
//! This crate contains everything the integrators share and nothing that is specific
//! to any one of them:
//!
//! * [`Integrand`] — the user-facing trait for multi-dimensional integrands.
//! * [`Region`] — an axis-aligned hyper-rectangle with splitting helpers.
//! * [`GenzMalik`] — the degree-7/5 embedded fully-symmetric cubature rule family of
//!   Genz & Malik (1983), the rule used by Cuhre, the two-phase GPU method and PAGANI.
//!   Evaluating a region yields the integral estimate, the embedded error estimate and
//!   the split axis chosen by the scaled fourth-difference criterion.
//! * [`two_level`] — Berntsen's two-level error refinement as implemented by PAGANI's
//!   `RefineError` kernel.
//! * [`gauss_kronrod`] / [`adaptive1d`] — a 15-point Gauss–Kronrod rule and a 1-D
//!   adaptive integrator, used to compute analytic-quality reference values for the
//!   test integrands and as a general 1-D substrate.
//! * [`result`] — the result / tolerance / termination types every integrator returns.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod adaptive1d;
pub mod gauss_kronrod;
pub mod genz_malik;
pub mod integrand;
pub mod region;
pub mod result;
pub mod two_level;

pub use genz_malik::{with_thread_scratch, EvalScratch, GenzMalik, RuleEstimate};
pub use integrand::{FnIntegrand, Integrand};
pub use region::Region;
pub use result::{
    paper_tolerance_sweep, rel_tol_for_digits, IntegrationResult, Termination, Tolerances,
};
