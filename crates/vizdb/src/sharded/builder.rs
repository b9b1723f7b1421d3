//! [`ShardedBackendBuilder`]: the [`Database`] loading API (`register_table`
//! / `build_index` / `build_sample`) shard-wise, and the `mirror*` helpers
//! that replay an already-loaded database into it. Each table is partitioned
//! once, at registration; the built backend keeps that layout for life.

use std::collections::HashMap;
use std::sync::Arc;

use super::tiles::{TablePartition, GRID_DIM};
use super::ShardedBackend;
use crate::backend::QueryBackend;
use crate::db::{Database, DbConfig};
use crate::error::{Error, Result};
use crate::schema::{ColumnType, TableSchema};
use crate::stats::TableStats;
use crate::storage::Table;

/// Builds a [`ShardedBackend`], mirroring the [`Database`] loading API
/// (`register_table` / `build_index` / `build_sample`) shard-wise.
pub struct ShardedBackendBuilder {
    grid_dim: u32,
    shards: Vec<Database>,
    partitions: HashMap<String, TablePartition>,
    schemas: HashMap<String, TableSchema>,
    global_stats: HashMap<String, TableStats>,
}

impl ShardedBackendBuilder {
    /// Starts building a backend of `shards` per-region databases, each with the
    /// given configuration (same simulated cost model and seed, so per-shard
    /// planning is as deterministic as the single database's).
    pub fn new(config: DbConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            grid_dim: GRID_DIM,
            shards: (0..shards).map(|_| Database::new(config.clone())).collect(),
            partitions: HashMap::new(),
            schemas: HashMap::new(),
            global_stats: HashMap::new(),
        }
    }

    /// Overrides the tiles per axis of the partition grid (default 64, so
    /// 4,096 tiles). Must be set **before** any [`Self::register_table`] call
    /// — tables are partitioned at registration time.
    pub fn with_grid_dim(mut self, grid_dim: u32) -> Self {
        self.grid_dim = grid_dim.max(1);
        self
    }

    /// Number of shards being built.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard databases as loaded so far, in shard order.
    pub fn shards(&self) -> &[Database] {
        &self.shards
    }

    /// Registers a table: geo tables are partitioned into balanced tile runs
    /// derived from their statistics (see [`super::tiles`]), geo-less tables are
    /// replicated into every shard.
    pub fn register_table(&mut self, table: &Table) -> Result<()> {
        let stats = TableStats::analyze(table)?;
        let name = table.name().to_string();
        let n = self.shards.len();
        let geo_attr = table
            .schema()
            .columns
            .iter()
            .position(|c| c.ty == ColumnType::Geo)
            .filter(|_| n > 1);

        let partition = match geo_attr {
            Some(attr) => {
                // Geo extent from the (freshly analyzed) table statistics —
                // the same statistics a coordinator node would have.
                let bounds = match stats.column(attr) {
                    Some(crate::stats::ColumnStats::Geo(geo)) => geo.bounds,
                    _ => {
                        return Err(Error::Internal(format!(
                            "geo column {attr} of table {name} has no geo statistics"
                        )))
                    }
                };
                let (part, assignment) =
                    TablePartition::partitioned(table, attr, bounds, n, self.grid_dim)?;
                for (shard, keep) in self.shards.iter_mut().zip(&assignment) {
                    shard.register_table(table.subset(keep)?)?;
                }
                part
            }
            None => {
                for shard in &mut self.shards {
                    shard.register_table(table.clone())?;
                }
                TablePartition::replicated(table.row_count(), n)
            }
        };
        self.partitions.insert(name.clone(), partition);
        self.schemas.insert(name.clone(), table.schema().clone());
        self.global_stats.insert(name, stats);
        Ok(())
    }

    /// Builds the index on `table.column` in every shard.
    pub fn build_index(&mut self, table: &str, column: &str) -> Result<()> {
        for shard in &mut self.shards {
            shard.build_index(table, column)?;
        }
        Ok(())
    }

    /// Builds indexes on every column of `table` in every shard.
    pub fn build_all_indexes(&mut self, table: &str) -> Result<()> {
        let columns: Vec<String> = self
            .schemas
            .get(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))?
            .columns
            .iter()
            .map(|c| c.name.clone())
            .collect();
        for column in &columns {
            self.build_index(table, column)?;
        }
        Ok(())
    }

    /// Builds a `fraction_pct`% sample of `table` in every shard (each shard
    /// samples its own rows, so the union is a stratified sample of the whole
    /// table).
    pub fn build_sample(&mut self, table: &str, fraction_pct: u32) -> Result<()> {
        for shard in &mut self.shards {
            shard.build_sample(table, fraction_pct)?;
        }
        Ok(())
    }

    /// Finalises the backend.
    pub fn build(self) -> ShardedBackend {
        self.build_wrapped(|_, shard| shard)
    }

    /// Finalises the backend with each shard wrapped by `wrap(shard_index,
    /// shard)`, so a test decorator (one that records or fails a shard's
    /// calls) sits between the fan-out and the per-shard databases without
    /// the backend knowing.
    pub fn build_wrapped(
        self,
        wrap: impl Fn(usize, Arc<dyn QueryBackend>) -> Arc<dyn QueryBackend>,
    ) -> ShardedBackend {
        let shards: Vec<Arc<dyn QueryBackend>> = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, db)| wrap(i, Arc::new(db) as Arc<dyn QueryBackend>))
            .collect();
        ShardedBackend {
            shards,
            partitions: self.partitions,
            schemas: self.schemas,
            global_stats: self.global_stats,
        }
    }

    /// A builder mirroring an already-loaded [`Database`]: same configuration,
    /// tables, indexes and sample fractions — ready for a wrapped build or for
    /// reading its shards. More shards than the grid's tiles (a shard beyond
    /// them would own none) is an [`Error::Internal`], returned before any
    /// shard database is allocated.
    pub fn mirror_builder(db: &Database, shards: usize) -> Result<Self> {
        let tiles = (GRID_DIM as usize).pow(2);
        if shards > tiles {
            return Err(Error::Internal(format!(
                "{shards} shards exceed the {tiles} tiles of the partition grid"
            )));
        }
        let mut builder = Self::new(db.config().clone(), shards);
        for name in db.table_names() {
            builder.register_table(db.table(&name)?)?;
        }
        for name in db.table_names() {
            let schema = db.table(&name)?.schema().clone();
            for col in db.indexed_columns(&name)? {
                builder.build_index(&name, schema.column_name(col)?)?;
            }
            for pct in db.sample_fractions(&name)? {
                builder.build_sample(&name, pct)?;
            }
        }
        Ok(builder)
    }

    /// Builds a sharded backend mirroring an already-loaded [`Database`]: same
    /// configuration, tables, indexes and sample fractions. This is the
    /// migration path from a single backend to `shards` per-region ones.
    pub fn mirror(db: &Database, shards: usize) -> Result<ShardedBackend> {
        Ok(Self::mirror_builder(db, shards)?.build())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_table, single_db, viewport};
    use super::*;
    use crate::hints::RewriteOption;
    use crate::types::GeoRect;

    #[test]
    fn mirror_reproduces_tables_indexes_and_samples() {
        let table = build_table(900);
        let db = single_db(&table);
        let backend = ShardedBackendBuilder::mirror(&db, 3).unwrap();
        assert_eq!(backend.shard_count(), 3);
        assert_eq!(backend.table_names(), vec!["events".to_string()]);
        assert_eq!(
            backend.indexed_columns("events").unwrap(),
            db.indexed_columns("events").unwrap()
        );
        let q = viewport(GeoRect::new(-125.0, 25.0, -66.0, 49.0), 8, 8);
        let ro = RewriteOption::original();
        assert_eq!(
            db.run(&q, &ro).unwrap().result,
            backend.run(&q, &ro).unwrap().result
        );
        // Stratified per-shard samples cover about as many rows as the single
        // backend's sample.
        let single_len = db.sample("events", 20).unwrap().len();
        let sharded_len = backend.sample_len("events", 20).unwrap();
        assert!((single_len as i64 - sharded_len as i64).abs() <= 3);
    }

    /// A shard count beyond the grid's 4,096 tiles is refused before any shard
    /// database is allocated (`usize::MAX` would overflow the shard vector).
    #[test]
    fn mirror_refuses_more_shards_than_tiles() {
        let db = single_db(&build_table(200));
        for shards in [usize::MAX, 4_097] {
            let err = ShardedBackendBuilder::mirror(&db, shards).err();
            assert!(matches!(err, Some(Error::Internal(_))), "{shards}: {err:?}");
        }
        assert_eq!(
            ShardedBackendBuilder::mirror(&db, 4).unwrap().shard_count(),
            4
        );
    }
}
