//! Per-shard and per-tile work accounting, feeding hot-shard splitting.
//!
//! Every successful shard execution charges its **simulated** milliseconds to
//! the shard and — proportionally by row count — to the tiles of that shard
//! the query window overlapped. The ledger is therefore as deterministic as
//! the simulated clock: the same request sequence produces the same ledger on
//! every run, and [`super::ShardedBackend::rebalance`] makes the same
//! migration decision.

use std::collections::HashMap;

/// Cumulative simulated-work accounting since build (or the last rebalance).
#[derive(Debug, Clone)]
pub(crate) struct WorkLedger {
    /// Simulated ms of shard executions, per shard.
    pub shard_ms: Vec<f64>,
    /// Shard executions recorded, per shard.
    pub shard_requests: Vec<u64>,
    /// Simulated ms attributed per tile, per partitioned table.
    pub tile_ms: HashMap<String, Vec<f64>>,
}

impl WorkLedger {
    pub fn new(shards: usize) -> Self {
        Self {
            shard_ms: vec![0.0; shards],
            shard_requests: vec![0; shards],
            tile_ms: HashMap::new(),
        }
    }

    /// Forgets all recorded work (called after a rebalance: the migration
    /// changed what each shard's work *will* be, so the old attribution no
    /// longer describes the new layout).
    pub fn reset(&mut self) {
        self.shard_ms.iter_mut().for_each(|w| *w = 0.0);
        self.shard_requests.iter_mut().for_each(|r| *r = 0);
        self.tile_ms.clear();
    }

    /// Charges `time_ms` of simulated work on `shard` to the overlapped
    /// `tiles` (`(tile, rows)` pairs): proportionally to row counts, or evenly
    /// when every overlapped tile is empty.
    pub fn record(
        &mut self,
        table: &str,
        tile_count: usize,
        shard: usize,
        tiles: &[(usize, usize)],
        time_ms: f64,
    ) {
        self.shard_ms[shard] += time_ms;
        self.shard_requests[shard] += 1;
        if tiles.is_empty() {
            return;
        }
        // Look up before inserting: `entry` would allocate the table name on
        // every served request, under the backend-wide ledger lock.
        match self.tile_ms.get_mut(table) {
            Some(per_tile) => charge_tiles(per_tile, tiles, time_ms),
            None => {
                let mut per_tile = vec![0.0; tile_count];
                charge_tiles(&mut per_tile, tiles, time_ms);
                self.tile_ms.insert(table.to_string(), per_tile);
            }
        }
    }

    /// Per-tile work recorded for `table` (zeroes when none).
    pub fn tile_work(&self, table: &str, tile_count: usize) -> Vec<f64> {
        self.tile_ms
            .get(table)
            .cloned()
            .unwrap_or_else(|| vec![0.0; tile_count])
    }
}

/// Splits `time_ms` over the overlapped `tiles` (`(tile, rows)` pairs):
/// proportionally to row counts, or evenly when every one is empty.
fn charge_tiles(per_tile: &mut [f64], tiles: &[(usize, usize)], time_ms: f64) {
    let total_rows: usize = tiles.iter().map(|&(_, r)| r).sum();
    if total_rows == 0 {
        let share = time_ms / tiles.len() as f64;
        for &(tile, _) in tiles {
            per_tile[tile] += share;
        }
    } else {
        for &(tile, rows) in tiles {
            per_tile[tile] += time_ms * rows as f64 / total_rows as f64;
        }
    }
}

/// What one [`super::ShardedBackend::rebalance`] call migrated.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceReport {
    /// The hottest shard (tiles migrated away from it).
    pub from_shard: usize,
    /// The coldest shard (tiles migrated onto it).
    pub to_shard: usize,
    /// Tiles moved across all partitioned tables.
    pub moved_tiles: usize,
    /// Rows moved across all partitioned tables.
    pub moved_rows: usize,
    /// Recorded simulated work attributed to the moved tiles.
    pub moved_work_ms: f64,
    /// Tables whose hot/cold shards were rebuilt.
    pub tables: Vec<String>,
}
