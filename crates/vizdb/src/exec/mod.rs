//! Plan execution over in-memory tables.
//!
//! One production engine and one oracle. [`execute`] is the bitmap pipeline:
//! the query checked and its predicates lowered once per execution, and its
//! selection carried as one dense
//! [`SelectionBitmap`](crate::bitmap::SelectionBitmap) word array from index
//! scan to sink. The scans set its bits, their AND and the residual
//! predicates refine it in place in 4096-row chunks, and the sink bins and
//! gathers from its words, all on the thread that serves the request.
//! `reference` is the row-at-a-time interpreter the pipeline is pinned against
//! (same results, work profile, simulated time and errors, bit for bit); only
//! [`Database::run_reference`](crate::Database::run_reference) runs it.
//! Both engines check a query the same way before touching a row, so a
//! malformed one is the same typed error on every plan and table.
//! [`price_plans`] reports what [`execute`] would charge for a whole set of
//! exact plans of one query from a single pass over the table, and how many
//! rows each of its predicates matches.

mod compiled;
mod executor;
mod pricing;
pub(crate) mod reference;
mod result;

pub use compiled::DENSE_GRID_MAX_CELLS;
pub(crate) use executor::count_matching;
pub use executor::{execute, ExecOutcome, ExecTable};
pub use pricing::{price_plans, Priced, MAX_PRICED_PREDICATES};
pub use result::QueryResult;
