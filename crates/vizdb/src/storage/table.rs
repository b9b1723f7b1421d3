//! Columnar table storage and the builder used to load generated datasets.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::schema::{ColumnType, TableSchema};
use crate::storage::Dictionary;
use crate::types::{GeoPoint, RecordId, Timestamp, TokenId};

/// Tokenised text documents in a flat CSR layout: row `r`'s sorted,
/// deduplicated token list is `tokens[offsets[r] .. offsets[r + 1]]`.
///
/// Keyword scans walk one contiguous token array instead of chasing a heap
/// pointer per row (the `Vec<Vec<TokenId>>` layout this replaced), which is
/// what lets the compiled execution engine stream text predicates at memory
/// bandwidth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TextColumn {
    /// `rows + 1` offsets into `tokens`; `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// All documents' tokens, concatenated in row order.
    tokens: Vec<TokenId>,
}

impl TextColumn {
    /// An empty column (zero rows).
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            tokens: Vec::new(),
        }
    }

    /// Number of stored documents (rows).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted token list of row `row`; `None` past the last row.
    pub fn doc(&self, row: usize) -> Option<&[TokenId]> {
        let from = *self.offsets.get(row)? as usize;
        let to = *self.offsets.get(row.checked_add(1)?)? as usize;
        self.tokens.get(from..to)
    }

    /// Returns `true` when row `row`'s document contains `token`.
    ///
    /// Typical documents are a handful of tokens, where a branchless sweep (no
    /// early exit, so it vectorizes) beats a binary search full of
    /// unpredictable branches; long documents fall back to the search.
    pub fn doc_contains(&self, row: usize, token: TokenId) -> bool {
        let doc = self.doc(row).unwrap_or_default();
        if doc.len() <= 32 {
            doc.iter().fold(false, |acc, &t| acc | (t == token))
        } else {
            doc.binary_search(&token).is_ok()
        }
    }

    /// Appends one document (the caller guarantees sorted, deduplicated tokens).
    pub fn push_doc(&mut self, tokens: &[TokenId]) {
        self.tokens.extend_from_slice(tokens);
        let offset = u32::try_from(self.tokens.len())
            .expect("text column exceeds u32::MAX total tokens; CSR offsets would wrap");
        self.offsets.push(offset);
    }

    /// Iterates all documents in row order.
    pub fn docs(&self) -> impl ExactSizeIterator<Item = &[TokenId]> {
        (0..self.len()).map(|row| self.doc(row).unwrap_or_default())
    }

    /// Pushes the rows in `[start, end)` whose document contains `token`,
    /// scanning the rows' **flat token stripe** once instead of searching each
    /// document: one predictable equality sweep over contiguous memory, with
    /// the (rare) match positions mapped back to their rows through the offset
    /// array. Documents are deduplicated, so a row matches at most once.
    pub fn rows_containing(&self, start: usize, end: usize, token: TokenId, out: &mut Vec<u32>) {
        let stripe_start = self.offsets[start] as usize;
        let stripe_end = self.offsets[end] as usize;
        let mut row = start;
        for (i, &t) in self.tokens[stripe_start..stripe_end].iter().enumerate() {
            if t == token {
                let pos = (stripe_start + i) as u32;
                // Positions arrive in ascending order; the row cursor only
                // moves forward, so the remap is linear over the batch.
                while self.offsets[row + 1] <= pos {
                    row += 1;
                }
                out.push(row as u32);
            }
        }
    }
}

impl Default for TextColumn {
    fn default() -> Self {
        Self::new()
    }
}

/// Physical storage for one column. Variants correspond to [`ColumnType`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ColumnData {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// Timestamp column (Unix seconds).
    Timestamp(Vec<Timestamp>),
    /// Geographic point column.
    Geo(Vec<GeoPoint>),
    /// Tokenised text documents (CSR-flattened, see [`TextColumn`]).
    Text(TextColumn),
}

impl ColumnData {
    fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::new()),
            ColumnType::Float => ColumnData::Float(Vec::new()),
            ColumnType::Timestamp => ColumnData::Timestamp(Vec::new()),
            ColumnType::Geo => ColumnData::Geo(Vec::new()),
            ColumnType::Text => ColumnData::Text(TextColumn::new()),
        }
    }

    /// Number of stored rows in this column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Timestamp(v) => v.len(),
            ColumnData::Geo(v) => v.len(),
            ColumnData::Text(v) => v.len(),
        }
    }

    /// Returns `true` when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type of this column data.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Int(_) => ColumnType::Int,
            ColumnData::Float(_) => ColumnType::Float,
            ColumnData::Timestamp(_) => ColumnType::Timestamp,
            ColumnData::Geo(_) => ColumnType::Geo,
            ColumnData::Text(_) => ColumnType::Text,
        }
    }
}

/// An immutable, fully loaded table.
///
/// Tables are bulk-loaded with [`TableBuilder`] (the simulator models an analytical,
/// load-once workload, exactly like the paper's datasets) and never mutated afterwards,
/// which lets indexes and statistics be built once and shared freely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<ColumnData>,
    dictionary: Dictionary,
    row_count: usize,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The text dictionary shared by all text columns of this table.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Raw column data at `col`.
    pub fn column(&self, col: usize) -> Result<&ColumnData> {
        self.columns.get(col).ok_or(Error::InvalidAttribute(col))
    }

    /// Integer value at (`col`, `row`).
    pub fn int(&self, col: usize, row: RecordId) -> Result<i64> {
        match self.column(col)? {
            ColumnData::Int(v) => self.at(v, row),
            other => Err(self.type_err(col, "Int", other)),
        }
    }

    /// Float value at (`col`, `row`).
    pub fn float(&self, col: usize, row: RecordId) -> Result<f64> {
        match self.column(col)? {
            ColumnData::Float(v) => self.at(v, row),
            other => Err(self.type_err(col, "Float", other)),
        }
    }

    /// Timestamp value at (`col`, `row`).
    pub fn timestamp(&self, col: usize, row: RecordId) -> Result<Timestamp> {
        match self.column(col)? {
            ColumnData::Timestamp(v) => self.at(v, row),
            other => Err(self.type_err(col, "Timestamp", other)),
        }
    }

    /// Geographic point at (`col`, `row`).
    pub fn geo(&self, col: usize, row: RecordId) -> Result<GeoPoint> {
        match self.column(col)? {
            ColumnData::Geo(v) => self.at(v, row),
            other => Err(self.type_err(col, "Geo", other)),
        }
    }

    /// Token list at (`col`, `row`).
    pub fn text(&self, col: usize, row: RecordId) -> Result<&[TokenId]> {
        match self.column(col)? {
            ColumnData::Text(v) => v.doc(row as usize).ok_or_else(|| self.row_err(row)),
            other => Err(self.type_err(col, "Text", other)),
        }
    }

    /// Returns `true` when the document at (`col`, `row`) contains `token`.
    pub fn text_contains(&self, col: usize, row: RecordId, token: TokenId) -> Result<bool> {
        Ok(self.text(col, row)?.binary_search(&token).is_ok())
    }

    /// The full integer column at `col` as a typed slice (compiled execution binds
    /// columns once per query instead of re-matching the variant per row).
    pub fn int_slice(&self, col: usize) -> Result<&[i64]> {
        match self.column(col)? {
            ColumnData::Int(v) => Ok(v),
            other => Err(self.type_err(col, "Int", other)),
        }
    }

    /// The full float column at `col` as a typed slice.
    pub fn float_slice(&self, col: usize) -> Result<&[f64]> {
        match self.column(col)? {
            ColumnData::Float(v) => Ok(v),
            other => Err(self.type_err(col, "Float", other)),
        }
    }

    /// The full timestamp column at `col` as a typed slice.
    pub fn timestamp_slice(&self, col: usize) -> Result<&[Timestamp]> {
        match self.column(col)? {
            ColumnData::Timestamp(v) => Ok(v),
            other => Err(self.type_err(col, "Timestamp", other)),
        }
    }

    /// The full geo column at `col` as a typed slice.
    pub fn geo_slice(&self, col: usize) -> Result<&[GeoPoint]> {
        match self.column(col)? {
            ColumnData::Geo(v) => Ok(v),
            other => Err(self.type_err(col, "Geo", other)),
        }
    }

    /// The CSR-flattened text column at `col`.
    pub fn text_docs(&self, col: usize) -> Result<&TextColumn> {
        match self.column(col)? {
            ColumnData::Text(v) => Ok(v),
            other => Err(self.type_err(col, "Text", other)),
        }
    }

    /// Numeric view of an Int/Float/Timestamp value, used by generic numeric predicates.
    pub fn numeric(&self, col: usize, row: RecordId) -> Result<f64> {
        match self.column(col)? {
            ColumnData::Int(v) => Ok(self.at(v, row)? as f64),
            ColumnData::Float(v) => self.at(v, row),
            ColumnData::Timestamp(v) => Ok(self.at(v, row)? as f64),
            other => Err(self.type_err(col, "numeric", other)),
        }
    }

    /// Builds a new table (same schema, name and dictionary) containing only the
    /// rows in `keep`, in the given order. Token ids are copied, so a keyword
    /// resolves on the new table exactly as on this one; the dictionary's
    /// document frequencies still describe this table. What a sample stores.
    pub(crate) fn rows(&self, keep: &[RecordId]) -> Result<Table> {
        let columns = self.gather(keep, |docs| {
            let mut kept = TextColumn::new();
            for &r in keep {
                kept.push_doc(docs.doc(r as usize).unwrap_or_default());
            }
            Ok(kept)
        })?;
        Ok(self.with_rows(columns, self.dictionary.clone(), keep.len()))
    }

    /// Builds a new table (same schema and name) containing only the rows in `keep`,
    /// in the given order, with a fresh dictionary of the subset's own words, so
    /// per-document frequencies — and therefore the statistics derived from them —
    /// describe the subset, not the source table. Used by the sharded backend to
    /// spatially partition a loaded table into self-contained per-region tables.
    ///
    /// Each source token id maps to its subset id through a table indexed by the
    /// source id: a word is interned once, at its first occurrence (text columns
    /// in schema order, then rows in `keep` order, then each document's tokens
    /// in order), so the subset's ids follow first-seen order, and every later
    /// occurrence is one lookup. A remapped document is re-sorted, since the
    /// new ids need not keep the source ids' order.
    pub fn subset(&self, keep: &[RecordId]) -> Result<Table> {
        let mut dictionary = Dictionary::new();
        let mut remap: Vec<Option<TokenId>> = vec![None; self.dictionary.len()];
        let mut tokens: Vec<TokenId> = Vec::new();
        let columns = self.gather(keep, |docs| {
            let mut subset_docs = TextColumn::new();
            for &r in keep {
                tokens.clear();
                for &t in docs.doc(r as usize).unwrap_or_default() {
                    let id = match remap.get(t as usize).copied().flatten() {
                        Some(id) => id,
                        None => {
                            let word = self.dictionary.word(t).ok_or_else(|| {
                                Error::Internal(format!(
                                    "token {t} of table {} has no dictionary entry",
                                    self.name()
                                ))
                            })?;
                            let id = dictionary.intern(word);
                            remap[t as usize] = Some(id);
                            id
                        }
                    };
                    tokens.push(id);
                }
                tokens.sort_unstable();
                tokens.dedup();
                for &t in &tokens {
                    dictionary.bump_doc_freq(t);
                }
                subset_docs.push_doc(&tokens);
            }
            Ok(subset_docs)
        })?;
        Ok(self.with_rows(columns, dictionary, keep.len()))
    }

    /// Every column's values at the rows in `keep`, in order, with each text
    /// column's documents built by `text`; a row past the end is an error.
    fn gather(
        &self,
        keep: &[RecordId],
        mut text: impl FnMut(&TextColumn) -> Result<TextColumn>,
    ) -> Result<Vec<ColumnData>> {
        if let Some(&row) = keep.iter().find(|&&row| row as usize >= self.row_count) {
            return Err(self.row_err(row));
        }
        let pick = |r: &RecordId| *r as usize;
        self.columns
            .iter()
            .map(|col| {
                Ok(match col {
                    ColumnData::Int(v) => {
                        ColumnData::Int(keep.iter().map(|r| v[pick(r)]).collect())
                    }
                    ColumnData::Float(v) => {
                        ColumnData::Float(keep.iter().map(|r| v[pick(r)]).collect())
                    }
                    ColumnData::Timestamp(v) => {
                        ColumnData::Timestamp(keep.iter().map(|r| v[pick(r)]).collect())
                    }
                    ColumnData::Geo(v) => {
                        ColumnData::Geo(keep.iter().map(|r| v[pick(r)]).collect())
                    }
                    ColumnData::Text(docs) => ColumnData::Text(text(docs)?),
                })
            })
            .collect()
    }

    /// A table of this one's schema over `columns`.
    fn with_rows(&self, columns: Vec<ColumnData>, dictionary: Dictionary, rows: usize) -> Table {
        Table {
            schema: self.schema.clone(),
            columns,
            dictionary,
            row_count: rows,
        }
    }

    /// Row `row` of column slice `v`, or [`Error::RowOutOfRange`].
    fn at<T: Copy>(&self, v: &[T], row: RecordId) -> Result<T> {
        v.get(row as usize)
            .copied()
            .ok_or_else(|| self.row_err(row))
    }

    fn row_err(&self, row: RecordId) -> Error {
        Error::RowOutOfRange {
            table: self.name().to_string(),
            row,
        }
    }

    pub(crate) fn type_err(
        &self,
        col: usize,
        expected: &'static str,
        actual: &ColumnData,
    ) -> Error {
        Error::TypeMismatch {
            column: self
                .schema
                .column_name(col)
                .unwrap_or("<unknown>")
                .to_string(),
            expected,
            actual: actual.column_type().name(),
        }
    }
}

/// Writes one row during bulk loading. Obtained from [`TableBuilder::push_row`].
pub struct RowWriter<'a> {
    builder: &'a mut TableBuilder,
}

impl RowWriter<'_> {
    /// Sets an integer column by name.
    pub fn set_int(&mut self, column: &str, value: i64) {
        let idx = self.builder.column_index(column);
        if let ColumnData::Int(v) = &mut self.builder.columns[idx] {
            v.push(value);
        } else {
            panic!("column {column} is not an Int column");
        }
    }

    /// Sets a float column by name.
    pub fn set_float(&mut self, column: &str, value: f64) {
        let idx = self.builder.column_index(column);
        if let ColumnData::Float(v) = &mut self.builder.columns[idx] {
            v.push(value);
        } else {
            panic!("column {column} is not a Float column");
        }
    }

    /// Sets a timestamp column by name.
    pub fn set_timestamp(&mut self, column: &str, value: Timestamp) {
        let idx = self.builder.column_index(column);
        if let ColumnData::Timestamp(v) = &mut self.builder.columns[idx] {
            v.push(value);
        } else {
            panic!("column {column} is not a Timestamp column");
        }
    }

    /// Sets a geo column by name.
    pub fn set_geo(&mut self, column: &str, lon: f64, lat: f64) {
        let idx = self.builder.column_index(column);
        if let ColumnData::Geo(v) = &mut self.builder.columns[idx] {
            v.push(GeoPoint::new(lon, lat));
        } else {
            panic!("column {column} is not a Geo column");
        }
    }

    /// Sets a text column by name from a document's words. Words are interned
    /// in the table dictionary, in order; duplicate words within one document are
    /// deduplicated.
    pub fn set_text(&mut self, column: &str, words: &[&str]) {
        let mut doc = std::mem::take(&mut self.builder.doc);
        doc.clear();
        doc.extend(words.iter().map(|w| self.builder.dictionary.intern(w)));
        self.push_doc(column, doc);
    }

    /// Interns `word` in the table dictionary and returns its token id; a new
    /// word gets the next id. A loader that draws documents from a fixed
    /// vocabulary interns each word once and passes ids to
    /// [`RowWriter::set_tokens`], instead of hashing every occurrence.
    pub fn intern(&mut self, word: &str) -> TokenId {
        self.builder.dictionary.intern(word)
    }

    /// Sets a text column by name from a document's token ids, each returned by
    /// [`RowWriter::intern`] (in any order, duplicates allowed): the same document
    /// [`RowWriter::set_text`] stores for those ids' words.
    ///
    /// # Panics
    /// If the column is not a Text column, or a token is not in the dictionary.
    pub fn set_tokens(&mut self, column: &str, tokens: &[TokenId]) {
        let words = self.builder.dictionary.len();
        assert!(
            tokens.iter().all(|&t| (t as usize) < words),
            "a token of column {column} is not in the dictionary"
        );
        let mut doc = std::mem::take(&mut self.builder.doc);
        doc.clear();
        doc.extend_from_slice(tokens);
        self.push_doc(column, doc);
    }

    /// Sorts and deduplicates `doc`, counts its tokens' document frequencies and
    /// appends it to `column`, then keeps `doc`'s buffer for the next row.
    fn push_doc(&mut self, column: &str, mut doc: Vec<TokenId>) {
        let idx = self.builder.column_index(column);
        doc.sort_unstable();
        doc.dedup();
        for &t in &doc {
            self.builder.dictionary.bump_doc_freq(t);
        }
        if let ColumnData::Text(v) = &mut self.builder.columns[idx] {
            v.push_doc(&doc);
        } else {
            panic!("column {column} is not a Text column");
        }
        self.builder.doc = doc;
    }
}

/// Builds a [`Table`] row by row.
#[derive(Debug)]
pub struct TableBuilder {
    schema: TableSchema,
    columns: Vec<ColumnData>,
    dictionary: Dictionary,
    rows: usize,
    /// The text setters' token buffer, reused from row to row.
    doc: Vec<TokenId>,
}

impl TableBuilder {
    /// Starts building a table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|c| ColumnData::new(c.ty))
            .collect();
        Self {
            schema,
            columns,
            dictionary: Dictionary::new(),
            rows: 0,
            doc: Vec::new(),
        }
    }

    fn column_index(&self, name: &str) -> usize {
        self.schema
            .column_index(name)
            .unwrap_or_else(|_| panic!("unknown column {name} in table {}", self.schema.name))
    }

    /// Appends one row. The closure must set every column exactly once; this is checked
    /// by comparing column lengths after the closure runs.
    pub fn push_row(&mut self, f: impl FnOnce(&mut RowWriter<'_>)) {
        {
            let mut writer = RowWriter { builder: self };
            f(&mut writer);
        }
        self.rows += 1;
        for (i, col) in self.columns.iter().enumerate() {
            assert_eq!(
                col.len(),
                self.rows,
                "column {} of table {} was not set exactly once for row {}",
                self.schema.columns[i].name,
                self.schema.name,
                self.rows - 1
            );
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when no row has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Finalises the table.
    pub fn build(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
            dictionary: self.dictionary,
            row_count: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn sample_table() -> Table {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("followers", ColumnType::Float);
        let mut b = TableBuilder::new(schema);
        for i in 0..10i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", 1_600_000_000 + i * 3600);
                row.set_geo("coordinates", -120.0 + i as f64, 35.0 + i as f64 * 0.5);
                row.set_text(
                    "text",
                    &["covid", if i % 2 == 0 { "vaccine" } else { "mask" }],
                );
                row.set_float("followers", i as f64 * 10.0);
            });
        }
        b.build()
    }

    #[test]
    fn builder_counts_rows() {
        let t = sample_table();
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.name(), "tweets");
    }

    #[test]
    fn typed_accessors_return_values() {
        let t = sample_table();
        assert_eq!(t.int(0, 3).unwrap(), 3);
        assert_eq!(t.timestamp(1, 0).unwrap(), 1_600_000_000);
        assert!((t.geo(2, 1).unwrap().lon + 119.0).abs() < 1e-9);
        assert_eq!(t.float(4, 2).unwrap(), 20.0);
    }

    #[test]
    fn typed_accessors_reject_wrong_type() {
        let t = sample_table();
        assert!(t.int(1, 0).is_err());
        assert!(t.geo(0, 0).is_err());
        assert!(t.text(2, 0).is_err());
    }

    /// A row id at or past the row count — `u32::MAX` included — is a typed
    /// error naming the table and the row, from every row accessor.
    #[test]
    fn typed_accessors_reject_rows_out_of_range() {
        let t = sample_table();
        let covid = t.dictionary().lookup("covid").unwrap();
        for row in [10, 11, u32::MAX] {
            let out_of_range = Error::RowOutOfRange {
                table: "tweets".into(),
                row,
            };
            assert_eq!(t.int(0, row), Err(out_of_range.clone()));
            assert_eq!(t.timestamp(1, row), Err(out_of_range.clone()));
            assert_eq!(t.geo(2, row), Err(out_of_range.clone()));
            assert_eq!(t.text(3, row), Err(out_of_range.clone()));
            assert_eq!(t.text_contains(3, row, covid), Err(out_of_range.clone()));
            assert_eq!(t.float(4, row), Err(out_of_range.clone()));
            for col in [0, 1, 4] {
                assert_eq!(t.numeric(col, row), Err(out_of_range.clone()));
            }
            assert_eq!(t.rows(&[0, row]).err(), Some(out_of_range.clone()));
            assert_eq!(t.subset(&[0, row]).err(), Some(out_of_range));
        }
        let docs = t.text_docs(3).unwrap();
        assert_eq!(docs.doc(10), None);
        assert_eq!(docs.doc(u32::MAX as usize), None);
        assert_eq!(docs.doc(usize::MAX), None);
        assert!(!docs.doc_contains(u32::MAX as usize, covid));
        assert_eq!(t.subset(&[9, 0]).unwrap().row_count(), 2);
    }

    #[test]
    fn text_contains_uses_dictionary_tokens() {
        let t = sample_table();
        let covid = t.dictionary().lookup("covid").unwrap();
        let vaccine = t.dictionary().lookup("vaccine").unwrap();
        assert!(t.text_contains(3, 0, covid).unwrap());
        assert!(t.text_contains(3, 0, vaccine).unwrap());
        assert!(!t.text_contains(3, 1, vaccine).unwrap());
    }

    #[test]
    fn numeric_view_covers_int_float_timestamp() {
        let t = sample_table();
        assert_eq!(t.numeric(0, 5).unwrap(), 5.0);
        assert_eq!(t.numeric(4, 5).unwrap(), 50.0);
        assert_eq!(t.numeric(1, 0).unwrap(), 1_600_000_000.0);
        assert!(t.numeric(2, 0).is_err());
    }

    #[test]
    fn dictionary_doc_freqs_counted_per_document() {
        let t = sample_table();
        let covid = t.dictionary().lookup("covid").unwrap();
        assert_eq!(t.dictionary().doc_freq(covid), 10);
        let vaccine = t.dictionary().lookup("vaccine").unwrap();
        assert_eq!(t.dictionary().doc_freq(vaccine), 5);
    }

    #[test]
    #[should_panic(expected = "not set exactly once")]
    fn push_row_panics_when_column_missing() {
        let schema = TableSchema::new("t")
            .with_column("a", ColumnType::Int)
            .with_column("b", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        b.push_row(|row| {
            row.set_int("a", 1);
            // "b" intentionally not set.
        });
    }

    /// A token id the dictionary never handed out would leave a document no
    /// word resolves to, so the builder refuses it.
    #[test]
    #[should_panic(expected = "not in the dictionary")]
    fn set_tokens_rejects_a_token_outside_the_dictionary() {
        let schema = TableSchema::new("docs").with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        b.push_row(|row| {
            let a = row.intern("a");
            row.set_tokens("text", &[a, a + 1]);
        });
    }

    #[test]
    fn subset_keeps_selected_rows_and_reinterns_text() {
        let t = sample_table();
        let sub = t.subset(&[1, 5, 7]).unwrap();
        assert_eq!(sub.row_count(), 3);
        assert_eq!(sub.name(), "tweets");
        assert_eq!(sub.int(0, 0).unwrap(), 1);
        assert_eq!(sub.int(0, 2).unwrap(), 7);
        // All three kept rows are odd ids, so they carry "mask" but never "vaccine".
        let mask = sub.dictionary().lookup("mask").unwrap();
        assert!(sub.dictionary().lookup("vaccine").is_none());
        assert_eq!(sub.dictionary().doc_freq(mask), 3);
        assert!(sub.text_contains(3, 0, mask).unwrap());
        // Token lists stay sorted after re-interning.
        for row in 0..3 {
            let doc = sub.text(3, row).unwrap();
            assert!(doc.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The subset's dictionary is the one re-interning each kept document's
    /// words by string builds: first-seen order over the kept rows in `keep`
    /// order, with the subset's own document frequencies, and each document
    /// the sorted list of its words' new ids.
    #[test]
    fn subset_interns_words_in_first_seen_order() {
        let schema = TableSchema::new("docs").with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for words in [
            vec!["a", "b"],
            vec!["c"],
            vec!["d", "c", "a"],
            vec!["e", "b"],
        ] {
            b.push_row(|row| row.set_text("text", &words));
        }
        let t = b.build();
        let keep = [3, 2, 0];
        let sub = t.subset(&keep).unwrap();
        let mut reference = Dictionary::new();
        let mut docs = Vec::new();
        for &r in &keep {
            let mut doc: Vec<TokenId> = t
                .text(0, r)
                .unwrap()
                .iter()
                .map(|&tok| reference.intern(t.dictionary().word(tok).unwrap()))
                .collect();
            doc.sort_unstable();
            doc.iter().for_each(|&tok| reference.bump_doc_freq(tok));
            docs.push(doc);
        }
        let words = |d: &Dictionary| -> Vec<(String, u32)> {
            (0..d.len() as TokenId)
                .map(|id| (d.word(id).unwrap().to_string(), d.doc_freq(id)))
                .collect()
        };
        assert_eq!(words(sub.dictionary()), words(&reference));
        assert_eq!(sub.dictionary().word(0), Some("b"));
        for (row, doc) in docs.iter().enumerate() {
            assert_eq!(sub.text(0, row as RecordId).unwrap(), doc.as_slice());
        }
    }

    #[test]
    fn subset_of_nothing_is_an_empty_table() {
        let t = sample_table();
        let sub = t.subset(&[]).unwrap();
        assert_eq!(sub.row_count(), 0);
        assert!(sub.dictionary().is_empty());
    }

    /// `rows` copies token ids: every word resolves to the same token on the
    /// copy, one absent from the kept rows included, and documents match.
    #[test]
    fn rows_keep_the_dictionary() {
        let t = sample_table();
        let kept = t.rows(&[1, 5, 7]).unwrap();
        assert_eq!(kept.row_count(), 3);
        assert_eq!(kept.int(0, 1).unwrap(), 5);
        for word in ["covid", "mask", "vaccine"] {
            assert_eq!(kept.dictionary().lookup(word), t.dictionary().lookup(word));
        }
        for (row, rid) in [1, 5, 7].into_iter().enumerate() {
            assert_eq!(
                kept.text(3, row as RecordId).unwrap(),
                t.text(3, rid).unwrap()
            );
        }
        assert_eq!(t.rows(&[]).unwrap().row_count(), 0);
    }

    #[test]
    fn invalid_column_index_errors() {
        let t = sample_table();
        assert!(matches!(t.column(42), Err(Error::InvalidAttribute(42))));
    }
}
