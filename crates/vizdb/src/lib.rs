//! # vizdb — an in-memory analytical database simulator
//!
//! `vizdb` is the backend-database substrate of the Maliva reproduction. It plays the
//! role of PostgreSQL (or the commercial database of §7.6 of the paper): it stores
//! tables, maintains secondary indexes (B+-tree, R-tree, inverted text index), offers a
//! cost-based optimizer with *deliberately realistic* cardinality-estimation errors,
//! honours query hints, supports the `LIMIT` approximation rewrite, keeps random
//! samples for sampling-based time estimation, and charges every operation to a
//! **deterministic simulated clock** so that the execution time of any physical
//! plan is reproducible and cheap to obtain.
//!
//! The key entry point is [`Database`]; queries are described by [`query::Query`] and
//! rewritten via [`hints::RewriteOption`].
//!
//! ```
//! use vizdb::{Database, DbConfig};
//! use vizdb::schema::{ColumnType, TableSchema};
//! use vizdb::storage::TableBuilder;
//! use vizdb::query::{Query, Predicate, OutputKind};
//! use vizdb::types::GeoRect;
//! use vizdb::hints::RewriteOption;
//!
//! // Build a tiny table with an id, a timestamp and a location column.
//! let schema = TableSchema::new("tweets")
//!     .with_column("id", ColumnType::Int)
//!     .with_column("created_at", ColumnType::Timestamp)
//!     .with_column("coordinates", ColumnType::Geo);
//! let mut builder = TableBuilder::new(schema);
//! for i in 0..1000i64 {
//!     builder.push_row(|row| {
//!         row.set_int("id", i);
//!         row.set_timestamp("created_at", i * 60);
//!         row.set_geo("coordinates", -120.0 + (i % 100) as f64 * 0.1, 35.0 + (i % 50) as f64 * 0.1);
//!     });
//! }
//! let mut db = Database::new(DbConfig::default());
//! db.register_table(builder.build()).unwrap();
//! db.build_all_indexes("tweets").unwrap();
//!
//! let query = Query::select("tweets")
//!     .filter(Predicate::time_range(1, 0, 3600))
//!     .filter(Predicate::spatial_range(2, GeoRect::new(-119.0, 36.0, -115.0, 39.0)))
//!     .output(OutputKind::Points { id_attr: 0, point_attr: 2 });
//!
//! let outcome = db.run(&query, &RewriteOption::original()).unwrap();
//! assert!(outcome.time_ms > 0.0);
//! ```

pub mod approx;
pub mod backend;
pub mod bitmap;
pub mod cache;
pub mod db;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod hints;
pub mod index;
pub mod optimizer;
pub mod plan;
pub mod query;
pub mod schema;
pub mod sharded;
pub mod stats;
pub mod storage;
pub mod sync;
#[doc(hidden)]
pub mod testing;
pub mod timing;
pub mod types;

pub use backend::{ExecContext, QueryBackend, RunReport};
pub use cache::{Memo, MemoStats};
pub use db::{Database, DbConfig, DbProfile, RunOutcome};
pub use error::{Error, Result};
pub use sharded::{ShardedBackend, ShardedBackendBuilder};
