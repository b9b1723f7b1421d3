//! Table schemas: column names, types and attribute lookup.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer (ids, counts, foreign keys).
    Int,
    /// 64-bit float (prices, distances).
    Float,
    /// Unix timestamp in seconds.
    Timestamp,
    /// Geographic point (longitude, latitude).
    Geo,
    /// Tokenised text document (dictionary-encoded).
    Text,
}

impl ColumnType {
    /// A human-readable static name, used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnType::Int => "Int",
            ColumnType::Float => "Float",
            ColumnType::Timestamp => "Timestamp",
            ColumnType::Geo => "Geo",
            ColumnType::Text => "Text",
        }
    }
}

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (unique within a table).
    pub name: String,
    /// Column logical type.
    pub ty: ColumnType,
}

/// A table schema: an ordered list of columns. Attribute indexes used by predicates
/// refer to positions in this list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name (unique within a [`crate::Database`]).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Creates an empty schema for a table called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Appends a column and returns the schema (builder style).
    pub fn with_column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.columns.push(Column {
            name: name.into(),
            ty,
        });
        self
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Looks up a column index by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::ColumnNotFound {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// Returns the column definition at `idx`.
    pub fn column(&self, idx: usize) -> Result<&Column> {
        self.columns.get(idx).ok_or(Error::InvalidAttribute(idx))
    }

    /// Returns the type of the column at `idx`.
    pub fn column_type(&self, idx: usize) -> Result<ColumnType> {
        Ok(self.column(idx)?.ty)
    }

    /// Returns the name of the column at `idx`.
    pub fn column_name(&self, idx: usize) -> Result<&str> {
        Ok(self.column(idx)?.name.as_str())
    }

    /// Asserts the column at `idx` has type `expected`.
    pub fn expect_type(&self, idx: usize, expected: ColumnType) -> Result<()> {
        let col = self.column(idx)?;
        if col.ty == expected {
            Ok(())
        } else {
            Err(Error::TypeMismatch {
                column: col.name.clone(),
                expected: expected.name(),
                actual: col.ty.name(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
    }

    #[test]
    fn column_lookup_by_name() {
        let s = schema();
        assert_eq!(s.column_index("coordinates").unwrap(), 2);
        assert!(s.column_index("missing").is_err());
    }

    #[test]
    fn column_lookup_by_index() {
        let s = schema();
        assert_eq!(s.column(1).unwrap().name, "created_at");
        assert!(matches!(s.column(9), Err(Error::InvalidAttribute(9))));
    }

    #[test]
    fn expect_type_matches() {
        let s = schema();
        assert!(s.expect_type(1, ColumnType::Timestamp).is_ok());
        let err = s.expect_type(1, ColumnType::Geo).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn arity_counts_columns() {
        assert_eq!(schema().arity(), 4);
        assert_eq!(TableSchema::new("empty").arity(), 0);
    }

    #[test]
    fn column_type_names_are_distinct() {
        let names = [
            ColumnType::Int.name(),
            ColumnType::Float.name(),
            ColumnType::Timestamp.name(),
            ColumnType::Geo.name(),
            ColumnType::Text.name(),
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
