//! Error types shared across the `vizdb` crate.

use std::fmt;

use crate::types::RecordId;

/// Convenient result alias used throughout `vizdb`.
pub type Result<T> = std::result::Result<T, Error>;

/// All errors that `vizdb` operations can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A table with the given name was not found in the catalog.
    TableNotFound(String),
    /// A column with the given name was not found in a table schema.
    ColumnNotFound {
        /// Table the lookup targeted.
        table: String,
        /// Missing column name.
        column: String,
    },
    /// A column was used with an operation that expects a different type.
    TypeMismatch {
        /// Column involved.
        column: String,
        /// What the operation expected.
        expected: &'static str,
        /// What the column actually is.
        actual: &'static str,
    },
    /// A predicate referenced an attribute index outside of the table schema.
    InvalidAttribute(usize),
    /// A row id at or past a table's row count.
    RowOutOfRange {
        /// Table name.
        table: String,
        /// The rejected row id.
        row: RecordId,
    },
    /// An index required by a physical plan has not been built.
    IndexMissing {
        /// Table name.
        table: String,
        /// Column name lacking an index.
        column: String,
    },
    /// A sample table with the requested fraction has not been built.
    SampleMissing {
        /// Base table name.
        table: String,
        /// Requested sampling fraction.
        fraction_pct: u32,
    },
    /// A sample was asked for at a percentage outside `1..=100`.
    InvalidSampleFraction {
        /// Base table name.
        table: String,
        /// The rejected sampling percentage.
        fraction_pct: u32,
    },
    /// The query is malformed (e.g. a join without a join specification).
    InvalidQuery(String),
    /// A rewrite option is incompatible with the query it is applied to.
    InvalidRewrite(String),
    /// An internal invariant was violated (a bug in the caller or in this crate);
    /// returned instead of panicking on the online planning hot path.
    Internal(String),
    /// A shard panicked while executing a query. The panic payload is captured
    /// so partial-failure handling can surface *which* shard blew up and why,
    /// instead of a generic internal error.
    ShardPanic {
        /// The shard that panicked.
        shard: usize,
        /// The stringified panic payload.
        payload: String,
    },
    /// A shard's (simulated) execution time exceeded the per-shard deadline
    /// carried by the request's execution context.
    ShardTimeout {
        /// The shard that missed its deadline.
        shard: usize,
    },
    /// A shard refused the query without executing it — its circuit breaker is
    /// open, or a fault-injection plan declared it unavailable.
    ShardUnavailable {
        /// The unavailable shard.
        shard: usize,
        /// Why the shard refused (e.g. "circuit open", "injected fault").
        reason: String,
    },
}

impl Error {
    /// Whether this error is a *shard fault* — a partial-failure condition of one
    /// backend shard (panic, deadline miss, open circuit, injected fault) rather
    /// than a property of the query itself. Shard faults are eligible for
    /// bounded retry and for graceful degradation (answering from the surviving
    /// shards); query errors such as [`Error::InvalidQuery`] are not.
    pub fn is_shard_fault(&self) -> bool {
        matches!(
            self,
            Error::ShardPanic { .. } | Error::ShardTimeout { .. } | Error::ShardUnavailable { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TableNotFound(name) => write!(f, "table not found: {name}"),
            Error::ColumnNotFound { table, column } => {
                write!(f, "column {column} not found in table {table}")
            }
            Error::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch on column {column}: expected {expected}, found {actual}"
            ),
            Error::InvalidAttribute(idx) => write!(f, "invalid attribute index {idx}"),
            Error::RowOutOfRange { table, row } => {
                write!(f, "row {row} is out of range for table {table}")
            }
            Error::IndexMissing { table, column } => {
                write!(f, "no index on {table}.{column}")
            }
            Error::SampleMissing {
                table,
                fraction_pct,
            } => write!(f, "no {fraction_pct}% sample of table {table}"),
            Error::InvalidSampleFraction {
                table,
                fraction_pct,
            } => write!(
                f,
                "cannot sample {fraction_pct}% of table {table}: the fraction must be in 1..=100"
            ),
            Error::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Error::InvalidRewrite(msg) => write!(f, "invalid rewrite option: {msg}"),
            Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            Error::ShardPanic { shard, payload } => {
                write!(f, "shard {shard} panicked: {payload}")
            }
            Error::ShardTimeout { shard } => {
                write!(f, "shard {shard} exceeded its execution deadline")
            }
            Error::ShardUnavailable { shard, reason } => {
                write!(f, "shard {shard} unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_table_not_found() {
        let err = Error::TableNotFound("tweets".into());
        assert_eq!(err.to_string(), "table not found: tweets");
    }

    #[test]
    fn display_column_not_found() {
        let err = Error::ColumnNotFound {
            table: "tweets".into(),
            column: "geo".into(),
        };
        assert!(err.to_string().contains("geo"));
        assert!(err.to_string().contains("tweets"));
    }

    #[test]
    fn display_type_mismatch_mentions_both_types() {
        let err = Error::TypeMismatch {
            column: "created_at".into(),
            expected: "Timestamp",
            actual: "Text",
        };
        let s = err.to_string();
        assert!(s.contains("Timestamp") && s.contains("Text"));
    }

    #[test]
    fn display_sample_missing_mentions_fraction() {
        let err = Error::SampleMissing {
            table: "tweets".into(),
            fraction_pct: 20,
        };
        assert!(err.to_string().contains("20%"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let a = Error::InvalidAttribute(3);
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_faults_are_classified_and_query_errors_are_not() {
        let faults = [
            Error::ShardPanic {
                shard: 2,
                payload: "boom".into(),
            },
            Error::ShardTimeout { shard: 1 },
            Error::ShardUnavailable {
                shard: 0,
                reason: "circuit open".into(),
            },
        ];
        for fault in &faults {
            assert!(fault.is_shard_fault(), "{fault} must classify as a fault");
        }
        for benign in [
            Error::InvalidQuery("bad".into()),
            Error::TableNotFound("t".into()),
            Error::Internal("bug".into()),
        ] {
            assert!(!benign.is_shard_fault(), "{benign} must not be a fault");
        }
    }

    #[test]
    fn shard_fault_display_names_the_shard() {
        assert!(Error::ShardPanic {
            shard: 3,
            payload: "job blew up".into()
        }
        .to_string()
        .contains("shard 3"));
        assert!(Error::ShardTimeout { shard: 1 }
            .to_string()
            .contains("deadline"));
        assert!(Error::ShardUnavailable {
            shard: 2,
            reason: "circuit open".into()
        }
        .to_string()
        .contains("circuit open"));
    }
}
