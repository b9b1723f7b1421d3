//! # maliva-qte — Query Time Estimators
//!
//! A Query Time Estimator (QTE) predicts how long a rewritten query will take to
//! execute, *at a cost*: collecting the selectivities a prediction needs takes time
//! that counts against the visualization time budget (paper §4.2). This crate provides
//! the two estimators the paper evaluates:
//!
//! * [`AccurateQte`] — an oracle that returns the true execution time, charged at a
//!   configurable unit cost per collected selectivity (the paper's "Accurate-QTE" with
//!   a 40–100 ms unit cost);
//! * [`ApproximateQte`] — the sampling-based estimator of §4.2: it measures predicate
//!   selectivities with `count(*)` probes on a small sample table and feeds them into
//!   an analytical cost model fitted by linear regression on the training workload.
//!
//! Estimation costs are shared across rewritten queries of the same original query via
//! [`EstimationContext`]: once a selectivity has been collected for one rewritten
//! query, estimating another rewritten query that needs the same selectivity becomes
//! cheaper — the mechanism behind the cost updates in the paper's Fig. 4/7.
//!
//! The context also memoizes the episode's catalog reads. Each table's probe
//! sample size, the engine's estimated selectivity of each predicate not yet
//! collected and the fact and dimension row counts are read from the backend on
//! first use and kept until [`EstimationContext::reset`]. So the estimation costs
//! a planning episode charges for every option, again after each step, walk the
//! option's hint mask without allocating or calling the backend; charged costs
//! and estimates are bit-identical to reading the catalog every time.

pub mod accurate;
pub mod approximate;
pub mod context;
pub mod features;
pub mod regression;
pub mod traits;

pub use accurate::AccurateQte;
pub use approximate::ApproximateQte;
pub use context::EstimationContext;
pub use regression::LinearModel;
pub use traits::{needed_slots, EstimateReport, QueryTimeEstimator};
