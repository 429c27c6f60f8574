//! The query result types: what a release looks like to the analyst.
//!
//! [`NoisyValue`], [`NoisyRelease`] and [`QueryResult`] are defined here and
//! constructed only by `session` after the noise pass (and reconstructed by
//! the wire codec) — the analyzer's `release-construction` taint rule pins
//! that list.

use privid_query::ReleaseValue;
use serde::{Deserialize, Serialize};

/// The value of one noisy data release returned to the analyst.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NoisyValue {
    /// A numeric release (COUNT / SUM / AVG / VAR) with Laplace noise added.
    Number(f64),
    /// An ARGMAX release: the winning key under report-noisy-max.
    Key(String),
}

impl NoisyValue {
    /// The numeric content, if any.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            NoisyValue::Number(n) => Some(*n),
            NoisyValue::Key(_) => None,
        }
    }
}

/// One noisy data release plus the accounting metadata Privid tracks for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoisyRelease {
    /// Label describing the aggregation (and group key) this release belongs to.
    pub label: String,
    /// The group key, if the release came from a GROUP BY bucket.
    pub group_key: Option<String>,
    /// The value returned to the analyst.
    pub value: NoisyValue,
    /// The raw (pre-noise) value. **Evaluation only**: a deployment would
    /// never expose this; the experiment harness uses it to measure accuracy
    /// and to plot the "Privid (No Noise)" curves of Fig. 5.
    pub raw: ReleaseValue,
    /// Sensitivity used to calibrate the noise.
    pub sensitivity: f64,
    /// Laplace scale `b = Δ/ε` applied.
    pub noise_scale: f64,
    /// Privacy budget consumed by this release.
    pub epsilon: f64,
}

/// The result of executing one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Every data release of the query, in statement order.
    pub releases: Vec<NoisyRelease>,
    /// Total privacy budget consumed.
    pub epsilon_spent: f64,
    /// Total number of chunk executions the query required. Executions served
    /// from the cross-query chunk cache count too, so this is a deterministic
    /// function of the query — independent of what other queries ran before.
    pub chunks_processed: usize,
}

impl QueryResult {
    /// Convenience: the first release's numeric value.
    pub fn first_number(&self) -> Option<f64> {
        self.releases.first().and_then(|r| r.value.as_number())
    }
}
