//! # fleche-workload
//!
//! Workload substrate for the Fleche (EuroSys '22) reproduction.
//!
//! The paper evaluates on Avazu, Criteo-Kaggle and Criteo-TB. Those
//! datasets cannot ship with this repository, so [`spec`] provides
//! generator specifications matched to the paper's Table 2 along the axes
//! the cache experiments depend on — table counts, heterogeneous per-table
//! corpora, per-table popularity skew, multi-hot width, embedding
//! dimension — with corpora scaled down so experiments run in seconds
//! (cache sizes are relative, so scaling cancels).
//!
//! * `zipf` — O(1) power-law samplers (alias method + rank scattering).
//! * [`spec`] — dataset specifications (`avazu`, `criteo_kaggle`,
//!   `criteo_tb`, `synthetic`).
//! * [`trace`] — deterministic sample/batch generation.
//! * [`dynamics`] — non-stationary overlays (flash-crowd hot-key churn,
//!   diurnal popularity rotation, of which hotspot drift is the cycle that
//!   never repeats).
//! * [`oracle`] — the paper's "Optimal" frequency oracle and a Belady
//!   simulator for ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod dynamics;
pub mod oracle;
pub mod spec;
pub mod stats;
pub mod trace;
mod zipf;

pub use arrivals::{ArrivalGen, BurstWindow};
pub use dynamics::{DiurnalSpec, HotChurnSpec, TraceDynamics};
pub use oracle::{analytic_optimal_hit_rate, belady_hit_rate};
pub use spec::{synthetic, synthetic_default, DatasetSpec, TableSpec};
pub use stats::WorkloadStats;
pub use trace::{Batch, Sample, TraceGenerator};
