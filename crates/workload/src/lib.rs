//! # maliva-workload — datasets and query workloads
//!
//! The paper evaluates Maliva on three datasets (Table 1): a 100M-row Twitter dataset,
//! a 500M-row NYC-Taxi dataset and a 300M-row TPC-H `lineitem` table, with randomly
//! generated visualization queries whose filtering conditions are derived from sampled
//! records at random zoom levels (§7.1).
//!
//! Real tweets and taxi trips are not redistributable, and tables of that size are not
//! appropriate for a reproducible in-process simulation, so this crate generates
//! *synthetic equivalents that preserve the properties the experiments depend on*:
//! Zipf-skewed text, spatially clustered coordinates, non-uniform temporal density and
//! correlated numeric attributes. Row counts are scaled down and the simulator's
//! per-row costs scaled up correspondingly, so absolute execution times still span the
//! paper's range (tens of milliseconds to several seconds).

pub mod nyctaxi;
pub mod querygen;
pub mod scale;
pub mod split;
pub mod text;
pub mod tpch;
pub mod twitter;

pub use nyctaxi::build_nyctaxi;
pub use querygen::{generate_queries, generate_workload, QueryGenConfig};
pub use scale::DatasetScale;
pub use split::{split_workload, WorkloadSplit};
pub use text::TextCorpus;
pub use tpch::build_tpch;
pub use twitter::build_twitter;

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vizdb::types::{GeoPoint, GeoRect};
use vizdb::Database;

/// A seed record sampled from the base table; query conditions are derived from it
/// exactly as in the paper ("we first randomly sampled a set of tweets from the base
/// table; for each tweet, we generated a query as follows ...").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeedRecord {
    /// The record's timestamp.
    pub timestamp: i64,
    /// The record's location.
    pub point: GeoPoint,
    /// A randomly chosen non-stop word from the record's text, when the dataset has a
    /// text attribute.
    pub keyword: Option<String>,
    /// Values of the dataset's numeric filtering attributes, in schema order.
    pub numerics: Vec<f64>,
}

/// How a filtering condition on one attribute is generated from a seed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterKind {
    /// Keyword-containment condition on a text column (keyword taken from the seed).
    Keyword,
    /// Temporal range whose left boundary is the seed record's timestamp.
    Time,
    /// Temporal range whose left boundary is `seed.numerics[i]` interpreted as a
    /// timestamp (used for TPC-H's second date attribute).
    TimeFromNumeric(usize),
    /// Spatial bounding box centred at the seed record's location.
    Spatial,
    /// Numeric range centred at `seed.numerics[i]`.
    Numeric(usize),
}

/// One filterable attribute of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterAttr {
    /// Column index in the fact-table schema.
    pub attr: usize,
    /// How conditions on this attribute are generated.
    pub kind: FilterKind,
}

/// Column roles of a generated dataset, describing which schema columns queries filter
/// on and output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Id column index.
    pub id_attr: usize,
    /// Timestamp column index used for temporal range conditions.
    pub time_attr: usize,
    /// Geo column index used for spatial range conditions and visual output.
    pub geo_attr: usize,
    /// Text column index used for keyword conditions (None for NYC-Taxi / TPC-H).
    pub text_attr: Option<usize>,
    /// Additional numeric filtering attributes (used by the 4- and 5-attribute
    /// workloads and by NYC-Taxi / TPC-H).
    pub numeric_attrs: Vec<usize>,
    /// The dataset's filterable attributes in the order the query generator uses them
    /// (the first `k` are used for a `k`-condition workload).
    pub filter_attrs: Vec<FilterAttr>,
    /// Foreign-key column joining to the dimension table, if any.
    pub join_key_attr: Option<usize>,
    /// Dimension table name, if any.
    pub dim_table: Option<String>,
    /// Numeric filtering attribute on the dimension table, if any.
    pub dim_numeric_attr: Option<usize>,
}

/// A generated dataset: the populated database plus everything the query generator
/// needs.
pub struct Dataset {
    /// The simulated database with tables, indexes and sample tables built.
    pub db: Arc<Database>,
    /// Dataset display name ("Twitter", "NYC Taxi", "TPC-H").
    pub name: String,
    /// Fact table name.
    pub table: String,
    /// Column roles.
    pub spec: DatasetSpec,
    /// Sampled seed records for query generation.
    pub seeds: Vec<SeedRecord>,
    /// Minimum and maximum timestamp in the fact table.
    pub time_extent: (i64, i64),
    /// Bounding box of the fact table's locations.
    pub geo_extent: GeoRect,
}

impl Dataset {
    /// Number of rows in the fact table.
    pub fn row_count(&self) -> usize {
        self.db.row_count(&self.table).unwrap_or(0)
    }
}
