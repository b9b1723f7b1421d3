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
    /// A model was asked to train on a workload with no queries.
    EmptyWorkload,
    /// An internal invariant was violated (a bug in the caller or in this crate);
    /// returned instead of panicking on the online planning hot path.
    Internal(String),
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
            Error::EmptyWorkload => write!(f, "training workload is empty"),
            Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
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
}
