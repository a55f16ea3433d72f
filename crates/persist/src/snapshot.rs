//! Bit-exact serializable snapshots of driver state.
//!
//! A [`Snapshot`] captures everything the PAGANI driver loop carries between
//! generations: the live `RegionList` geometry, the parent integrals needed
//! for two-level error refinement, the accumulated finished/frozen error
//! budget, and the iteration counters.  The format is versioned JSON built on
//! [`crate::json`], with one deliberate twist: every `f64` is encoded as its
//! exact bit pattern (a 16-digit lowercase hex string via [`f64::to_bits`])
//! and every `u64` counter as a decimal string, because JSON numbers go
//! through an `f64` printer that cannot round-trip either losslessly.  A
//! decoded snapshot is therefore *bit-identical* to the encoded one, which is
//! what lets a resumed run reproduce an uninterrupted run to the bit.

use std::fmt;

use crate::json::{parse, Value};

/// Version stamp written into every serialized snapshot.
///
/// Bumped when the field set or encoding changes; [`Snapshot::from_json_str`]
/// rejects documents with any other version rather than guessing.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Marker distinguishing snapshot documents from other JSON emitted by the
/// workspace (e.g. analyzer reports or bench records).
const FORMAT_MARKER: &str = "pagani-snapshot";

/// A serializable, bit-exact capture of the driver loop's state between two
/// generations.
///
/// The capture convention is "about to run iteration [`next_iteration`]":
/// the region list holds the generation that has not yet been evaluated, and
/// every accumulator holds the value it had at the top of that iteration.
/// Resuming re-enters the loop at `next_iteration` with this exact state, so
/// the continuation performs the same float operations in the same order as
/// the uninterrupted run.
///
/// [`next_iteration`]: Snapshot::next_iteration
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Format version this snapshot was built with
    /// ([`SNAPSHOT_FORMAT_VERSION`]).
    pub version: u32,
    /// Identifier of the integrand (its `Integrand::name()`); resume and the
    /// cache both refuse to mix snapshots across integrand ids.
    pub integrand_id: String,
    /// Lower corner of the original integration region, one entry per axis.
    pub region_lo: Vec<f64>,
    /// Upper corner of the original integration region, one entry per axis.
    pub region_hi: Vec<f64>,
    /// Relative tolerance the run was configured with.
    pub rel_tol: f64,
    /// Absolute tolerance the run was configured with.
    pub abs_tol: f64,
    /// Whether the run that produced this snapshot went on to converge.  A
    /// converged snapshot is still resumable (e.g. under a tighter
    /// tolerance): re-running its final generation reclassifies the regions
    /// against the new budget.
    pub converged: bool,
    /// Dimensionality of the integration domain.
    pub dim: usize,
    /// Region-major lower corners of the live generation, `regions × dim`.
    pub lefts: Vec<f64>,
    /// Region-major edge lengths of the live generation, `regions × dim`.
    pub lengths: Vec<f64>,
    /// Integral estimates of the previous generation's active regions, used
    /// for two-level error refinement.  `None` when the snapshot was taken at
    /// a point where the parent/child pairing is not available (the first
    /// generation, or a split that ran out of memory).
    pub parent_integrals: Option<Vec<f64>>,
    /// Estimate contribution of regions already folded out of the active set.
    pub finished_estimate: f64,
    /// Error contribution of regions already folded out of the active set.
    pub finished_error: f64,
    /// Error committed by the two-phase heuristic's threshold freezes.
    pub threshold_frozen_error: f64,
    /// Total integrand evaluations performed so far.
    pub function_evaluations: u64,
    /// Total regions materialized so far (initial split plus all children).
    pub regions_generated: u64,
    /// Cumulative estimate of the previous generation, feeding the
    /// heuristic's convergence-trend trigger.  `None` before the first
    /// generation completes.
    pub previous_cumulative: Option<f64>,
    /// Index of the first iteration the resumed loop should run.
    pub next_iteration: usize,
    /// Best cumulative estimate observed so far (reporting fallback for
    /// non-converged exits).
    pub latest_estimate: f64,
    /// Error estimate paired with [`latest_estimate`](Snapshot::latest_estimate).
    pub latest_error: f64,
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input was not syntactically valid JSON.
    Syntax(String),
    /// The JSON was valid but did not match the snapshot schema.
    Schema(&'static str),
    /// The document declares a format version this build does not understand.
    Version(u32),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Syntax(msg) => write!(f, "snapshot is not valid JSON: {msg}"),
            SnapshotError::Schema(what) => write!(f, "snapshot schema violation: {what}"),
            SnapshotError::Version(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not supported (expected {SNAPSHOT_FORMAT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn f64_value(v: f64) -> Value {
    Value::Str(format!("{:016x}", v.to_bits()))
}

fn f64_slice_value(vs: &[f64]) -> Value {
    Value::Arr(vs.iter().map(|&v| f64_value(v)).collect())
}

fn u64_value(v: u64) -> Value {
    Value::Str(v.to_string())
}

fn opt_f64_value(v: Option<f64>) -> Value {
    v.map_or(Value::Null, f64_value)
}

fn f64_from(v: &Value) -> Result<f64, SnapshotError> {
    let Value::Str(s) = v else {
        return Err(SnapshotError::Schema("expected a hex-bits float string"));
    };
    if s.len() != 16 {
        return Err(SnapshotError::Schema("hex-bits float must be 16 digits"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| SnapshotError::Schema("invalid hex-bits float"))
}

fn f64_vec_from(v: &Value) -> Result<Vec<f64>, SnapshotError> {
    let Value::Arr(items) = v else {
        return Err(SnapshotError::Schema(
            "expected an array of hex-bits floats",
        ));
    };
    items.iter().map(f64_from).collect()
}

fn u64_from(v: &Value) -> Result<u64, SnapshotError> {
    let Value::Str(s) = v else {
        return Err(SnapshotError::Schema("expected a decimal counter string"));
    };
    s.parse::<u64>()
        .map_err(|_| SnapshotError::Schema("invalid decimal counter"))
}

fn usize_from(v: &Value) -> Result<usize, SnapshotError> {
    let Value::Num(n) = v else {
        return Err(SnapshotError::Schema("expected an integer"));
    };
    if n.fract() != 0.0 || *n < 0.0 || *n > 9e15 {
        return Err(SnapshotError::Schema(
            "expected a small non-negative integer",
        ));
    }
    Ok(*n as usize)
}

fn field<'a>(
    obj: &'a std::collections::BTreeMap<String, Value>,
    key: &'static str,
) -> Result<&'a Value, SnapshotError> {
    obj.get(key).ok_or(SnapshotError::Schema("missing field"))
}

impl Snapshot {
    /// Number of regions in the captured generation.
    pub fn regions(&self) -> usize {
        self.lefts.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Rough in-memory footprint in bytes, used for cache byte budgeting.
    pub fn approx_bytes(&self) -> usize {
        let floats = self.region_lo.len()
            + self.region_hi.len()
            + self.lefts.len()
            + self.lengths.len()
            + self.parent_integrals.as_ref().map_or(0, Vec::len);
        floats * std::mem::size_of::<f64>() + self.integrand_id.len() + 200
    }

    /// Structural consistency checks shared by the decoder and resume.
    ///
    /// Returns the schema violation (if any): mismatched geometry buffer
    /// lengths, a region count that does not divide evenly by `dim`, corner
    /// vectors of the wrong dimensionality, or a parent list that is not
    /// exactly half the region count.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if self.dim == 0 {
            return Err(SnapshotError::Schema("dim must be positive"));
        }
        if self.region_lo.len() != self.dim || self.region_hi.len() != self.dim {
            return Err(SnapshotError::Schema(
                "region corners must have dim entries",
            ));
        }
        if self.lefts.len() != self.lengths.len() {
            return Err(SnapshotError::Schema("lefts/lengths length mismatch"));
        }
        if self.lefts.len() % self.dim != 0 {
            return Err(SnapshotError::Schema(
                "geometry length not divisible by dim",
            ));
        }
        if let Some(parents) = &self.parent_integrals {
            if parents.len() * 2 != self.regions() {
                return Err(SnapshotError::Schema(
                    "parent integrals must be exactly half the region count",
                ));
            }
        }
        Ok(())
    }

    /// Everything [`validate`](Snapshot::validate) checks, plus the geometry
    /// a resume rebuilds the region tree from.
    ///
    /// Rejects root corners that are non-finite or not strictly increasing
    /// on every axis, any edge length that is non-finite or not positive,
    /// and any left edge that is non-finite or outside the root's
    /// `[lo, hi]` on its axis.  The decoder applies only the structural
    /// checks, so any bit pattern still round-trips; resume applies these.
    pub fn validate_geometry(&self) -> Result<(), SnapshotError> {
        self.validate()?;
        let root = || self.region_lo.iter().zip(&self.region_hi);
        if !root().all(|(lo, hi)| lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(SnapshotError::Schema(
                "root corners must be finite with lo < hi on every axis",
            ));
        }
        if !self.lengths.iter().all(|l| l.is_finite() && *l > 0.0) {
            return Err(SnapshotError::Schema(
                "region lengths must be finite and positive",
            ));
        }
        let inside = |left: &[f64]| root().zip(left).all(|((lo, hi), x)| (lo..=hi).contains(&x));
        if !self.lefts.chunks_exact(self.dim).all(inside) {
            return Err(SnapshotError::Schema(
                "region left edges must lie inside the root",
            ));
        }
        Ok(())
    }

    /// Serialize to the versioned JSON format.
    pub fn to_json_string(&self) -> String {
        Value::obj([
            ("format", Value::Str(FORMAT_MARKER.to_string())),
            ("version", Value::Num(f64::from(self.version))),
            ("integrand_id", Value::Str(self.integrand_id.clone())),
            ("region_lo", f64_slice_value(&self.region_lo)),
            ("region_hi", f64_slice_value(&self.region_hi)),
            ("rel_tol", f64_value(self.rel_tol)),
            ("abs_tol", f64_value(self.abs_tol)),
            ("converged", Value::Bool(self.converged)),
            ("dim", Value::Num(self.dim as f64)),
            ("lefts", f64_slice_value(&self.lefts)),
            ("lengths", f64_slice_value(&self.lengths)),
            (
                "parent_integrals",
                self.parent_integrals
                    .as_ref()
                    .map_or(Value::Null, |p| f64_slice_value(p)),
            ),
            ("finished_estimate", f64_value(self.finished_estimate)),
            ("finished_error", f64_value(self.finished_error)),
            (
                "threshold_frozen_error",
                f64_value(self.threshold_frozen_error),
            ),
            ("function_evaluations", u64_value(self.function_evaluations)),
            ("regions_generated", u64_value(self.regions_generated)),
            (
                "previous_cumulative",
                opt_f64_value(self.previous_cumulative),
            ),
            ("next_iteration", Value::Num(self.next_iteration as f64)),
            ("latest_estimate", f64_value(self.latest_estimate)),
            ("latest_error", f64_value(self.latest_error)),
        ])
        .to_json()
    }

    /// Serialize to bytes (UTF-8 JSON).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json_string().into_bytes()
    }

    /// Decode from the versioned JSON format, validating schema and version.
    pub fn from_json_str(input: &str) -> Result<Self, SnapshotError> {
        let value = parse(input).map_err(SnapshotError::Syntax)?;
        let Value::Obj(obj) = value else {
            return Err(SnapshotError::Schema("snapshot must be a JSON object"));
        };
        match field(&obj, "format")? {
            Value::Str(s) if s == FORMAT_MARKER => {}
            _ => return Err(SnapshotError::Schema("not a pagani-snapshot document")),
        }
        let version = usize_from(field(&obj, "version")?)? as u32;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::Version(version));
        }
        let integrand_id = match field(&obj, "integrand_id")? {
            Value::Str(s) => s.clone(),
            _ => return Err(SnapshotError::Schema("integrand_id must be a string")),
        };
        let converged = match field(&obj, "converged")? {
            Value::Bool(b) => *b,
            _ => return Err(SnapshotError::Schema("converged must be a boolean")),
        };
        let parent_integrals = match field(&obj, "parent_integrals")? {
            Value::Null => None,
            v => Some(f64_vec_from(v)?),
        };
        let previous_cumulative = match field(&obj, "previous_cumulative")? {
            Value::Null => None,
            v => Some(f64_from(v)?),
        };
        let snapshot = Snapshot {
            version,
            integrand_id,
            region_lo: f64_vec_from(field(&obj, "region_lo")?)?,
            region_hi: f64_vec_from(field(&obj, "region_hi")?)?,
            rel_tol: f64_from(field(&obj, "rel_tol")?)?,
            abs_tol: f64_from(field(&obj, "abs_tol")?)?,
            converged,
            dim: usize_from(field(&obj, "dim")?)?,
            lefts: f64_vec_from(field(&obj, "lefts")?)?,
            lengths: f64_vec_from(field(&obj, "lengths")?)?,
            parent_integrals,
            finished_estimate: f64_from(field(&obj, "finished_estimate")?)?,
            finished_error: f64_from(field(&obj, "finished_error")?)?,
            threshold_frozen_error: f64_from(field(&obj, "threshold_frozen_error")?)?,
            function_evaluations: u64_from(field(&obj, "function_evaluations")?)?,
            regions_generated: u64_from(field(&obj, "regions_generated")?)?,
            previous_cumulative,
            next_iteration: usize_from(field(&obj, "next_iteration")?)?,
            latest_estimate: f64_from(field(&obj, "latest_estimate")?)?,
            latest_error: f64_from(field(&obj, "latest_error")?)?,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Decode from bytes (UTF-8 JSON).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotError::Schema("snapshot bytes are not UTF-8"))?;
        Self::from_json_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            integrand_id: "f4_gaussian".to_string(),
            region_lo: vec![0.0, -1.0],
            region_hi: vec![1.0, 1.0],
            rel_tol: 1e-6,
            abs_tol: 1e-20,
            converged: false,
            dim: 2,
            lefts: vec![0.0, -1.0, 0.5, -1.0],
            lengths: vec![0.5, 2.0, 0.5, 2.0],
            parent_integrals: Some(vec![0.123_456_789_012_345_6]),
            finished_estimate: 0.25,
            finished_error: 1.5e-9,
            threshold_frozen_error: f64::MIN_POSITIVE,
            function_evaluations: u64::MAX - 7,
            regions_generated: 12,
            previous_cumulative: Some(-0.0),
            next_iteration: 3,
            latest_estimate: 0.999_999_999_999_999_9,
            latest_error: f64::INFINITY,
        }
    }

    #[test]
    fn round_trips_to_the_bit() {
        let snap = sample();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
        // Bit-level checks beyond PartialEq: -0.0 and extreme values survive.
        assert_eq!(
            decoded.previous_cumulative.unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(decoded.latest_error.to_bits(), f64::INFINITY.to_bits());
        assert_eq!(decoded.function_evaluations, u64::MAX - 7);
    }

    #[test]
    fn serialization_is_byte_stable() {
        let snap = sample();
        assert_eq!(snap.to_bytes(), snap.to_bytes());
        let reencoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap().to_bytes();
        assert_eq!(reencoded, snap.to_bytes());
    }

    #[test]
    fn rejects_foreign_versions() {
        let mut text = sample().to_json_string();
        text = text.replace("\"version\": 1", "\"version\": 2");
        assert_eq!(
            Snapshot::from_json_str(&text),
            Err(SnapshotError::Version(2))
        );
    }

    #[test]
    fn rejects_inconsistent_geometry() {
        let mut snap = sample();
        snap.lengths.pop();
        assert_eq!(
            snap.validate(),
            Err(SnapshotError::Schema("lefts/lengths length mismatch"))
        );
        let mut snap = sample();
        snap.parent_integrals = Some(vec![1.0, 2.0, 3.0]);
        assert!(snap.validate().is_err());
    }

    #[test]
    fn rejects_degenerate_or_escaping_geometry() {
        assert_eq!(sample().validate_geometry(), Ok(()));
        // (field, index, value): one coordinate of the valid sample each.
        // Root is [0, 1] × [-1, 1]; regions 0 and 1 start at (0, -1) and
        // (0.5, -1) with lengths (0.5, 2).
        let cases: [(&str, usize, f64); 19] = [
            ("region_lo", 0, f64::NAN),
            ("region_lo", 1, f64::NEG_INFINITY),
            ("region_lo", 0, 1.0),
            ("region_hi", 0, f64::INFINITY),
            ("region_hi", 1, -1.0),
            ("region_hi", 0, 0.0),
            ("lefts", 0, f64::NAN),
            ("lefts", 1, f64::INFINITY),
            ("lefts", 2, f64::NEG_INFINITY),
            ("lefts", 0, -1.0),
            ("lefts", 2, 1.5),
            ("lefts", 3, -2.0),
            ("lefts", 3, 1.0 + f64::EPSILON),
            ("lengths", 0, f64::NAN),
            ("lengths", 1, f64::INFINITY),
            ("lengths", 2, 0.0),
            ("lengths", 3, -1.0),
            ("lengths", 0, -0.0),
            ("lengths", 1, f64::NEG_INFINITY),
        ];
        for (field, index, value) in cases {
            let mut snap = sample();
            let coords = match field {
                "region_lo" => &mut snap.region_lo,
                "region_hi" => &mut snap.region_hi,
                "lefts" => &mut snap.lefts,
                _ => &mut snap.lengths,
            };
            coords[index] = value;
            assert!(
                snap.validate_geometry().is_err(),
                "{field}[{index}] = {value} was accepted"
            );
        }
    }

    #[test]
    fn rejects_non_snapshot_documents() {
        assert!(matches!(
            Snapshot::from_json_str("{\"format\": \"other\"}"),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            Snapshot::from_json_str("not json"),
            Err(SnapshotError::Syntax(_))
        ));
    }
}
