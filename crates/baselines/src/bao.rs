//! A Bao-style learned hint steerer (paper §1.1 / §7.1 comparator).
//!
//! Bao keeps the backend's optimizer in the loop: for every candidate hint set it
//! builds the corresponding plan, featurises it using the optimizer's *own* cardinality
//! estimates, and predicts its runtime with a learned model trained via Thompson
//! sampling. Online, Bao enumerates every hint set, predicts each one and picks the
//! argmin; the per-prediction cost is assumed negligible (which is exactly the
//! assumption the paper challenges for sub-second visualization budgets).
//!
//! This re-implementation captures both properties the paper's comparison relies on:
//!
//! 1. the features inherit the backend's estimation errors on keyword / spatial
//!    predicates (so Bao mis-ranks plans where PostgreSQL's estimates are bad, e.g. the
//!    Twitter and NYC-Taxi workloads, while doing well on TPC-H);
//! 2. the online phase enumerates the full hint-set space at a small fixed
//!    per-prediction cost instead of adaptively deciding what to estimate.
//!
//! The Thompson-sampling training loop is approximated by a bootstrap ensemble of
//! linear models (each member fitted on a resampled training set); predictions average
//! the ensemble.

use std::sync::Arc;

use maliva::{QueryRewriter, RewriteDecision, RewriteSpace};
use maliva_qte::features::plan_features;
use maliva_qte::regression::LinearModel;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vizdb::error::{Error, Result};
use vizdb::query::Query;
use vizdb::QueryBackend;

/// Configuration of the Bao-style rewriter.
#[derive(Debug, Clone, Copy)]
pub struct BaoConfig {
    /// Number of bootstrap ensemble members (Thompson-sampling approximation).
    pub ensemble_size: usize,
    /// Ridge penalty of each ensemble member.
    pub ridge_lambda: f64,
    /// Simulated cost charged per online runtime prediction, in milliseconds (Bao
    /// treats prediction as almost free; the default mirrors that).
    pub per_prediction_ms: f64,
    /// Fixed per-query planning overhead (plan generation for all hint sets).
    pub overhead_ms: f64,
    /// Randomness seed for the bootstrap resampling.
    pub seed: u64,
}

impl Default for BaoConfig {
    fn default() -> Self {
        Self {
            ensemble_size: 5,
            ridge_lambda: 1.0,
            per_prediction_ms: 1.0,
            overhead_ms: 5.0,
            seed: 17,
        }
    }
}

/// The Bao-style learned rewriter.
pub struct BaoRewriter {
    db: Arc<dyn QueryBackend>,
    config: BaoConfig,
    ensemble: Vec<LinearModel>,
}

impl BaoRewriter {
    /// Trains the Bao-style model on a workload of training queries, using the
    /// hint-only rewrite space.
    pub fn train(db: Arc<dyn QueryBackend>, training: &[Query], config: BaoConfig) -> Result<Self> {
        if training.is_empty() {
            return Err(Error::EmptyWorkload);
        }
        // Collect (features, true runtime) samples for every (query, hint set) pair.
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for query in training {
            let space = RewriteSpace::hints_only(query);
            for ro in space.options() {
                xs.push(Self::featurise(&*db, query, ro)?);
                ys.push(db.execution_time_ms(query, ro)?);
            }
        }

        // Bootstrap ensemble (Thompson-sampling approximation).
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut ensemble = Vec::with_capacity(config.ensemble_size.max(1));
        for _ in 0..config.ensemble_size.max(1) {
            if xs.is_empty() {
                ensemble.push(LinearModel::default());
                continue;
            }
            let mut bx = Vec::with_capacity(xs.len());
            let mut by = Vec::with_capacity(ys.len());
            for _ in 0..xs.len() {
                let i = rng.gen_range(0..xs.len());
                bx.push(xs[i].clone());
                by.push(ys[i]);
            }
            ensemble.push(LinearModel::fit(&bx, &by, config.ridge_lambda));
        }

        Ok(Self {
            db,
            config,
            ensemble,
        })
    }

    /// Builds Bao's plan features for one candidate: the analytical operation counts
    /// computed from the backend's *estimated* selectivities (this is where the
    /// backend's estimation errors leak into Bao's model).
    fn featurise(
        db: &dyn QueryBackend,
        query: &Query,
        ro: &vizdb::hints::RewriteOption,
    ) -> Result<Vec<f64>> {
        let mut selectivities = Vec::with_capacity(query.predicate_count());
        for pred in &query.predicates {
            selectivities.push(db.estimated_selectivity(&query.table, pred)?);
        }
        let right_selectivity = match &query.join {
            Some(spec) => {
                let mut s = 1.0;
                for pred in &spec.right_predicates {
                    s *= db.estimated_selectivity(&spec.right_table, pred)?;
                }
                s
            }
            None => 1.0,
        };
        let row_count = db.row_count(&query.table)?;
        let right_rows = match &query.join {
            Some(spec) => db.row_count(&spec.right_table).unwrap_or(0),
            None => 0,
        };
        Ok(plan_features(
            query,
            ro,
            &selectivities,
            right_selectivity,
            row_count,
            right_rows,
        ))
    }

    /// Mean prediction of the ensemble.
    fn predict(&self, features: &[f64]) -> f64 {
        if self.ensemble.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.ensemble.iter().map(|m| m.predict(features)).sum();
        (sum / self.ensemble.len() as f64).max(0.0)
    }
}

impl QueryRewriter for BaoRewriter {
    fn name(&self) -> String {
        "Bao".to_string()
    }

    fn rewrite(&self, query: &Query) -> Result<RewriteDecision> {
        let space = RewriteSpace::hints_only(query);
        let mut best: Option<(usize, f64)> = None;
        for (i, ro) in space.options().iter().enumerate() {
            let features = Self::featurise(&*self.db, query, ro)?;
            let predicted = self.predict(&features);
            if best.map(|(_, b)| predicted < b).unwrap_or(true) {
                best = Some((i, predicted));
            }
        }
        let chosen = best.map(|(i, _)| i).unwrap_or(0);
        let planning_ms =
            self.config.overhead_ms + self.config.per_prediction_ms * space.len() as f64;
        Ok(RewriteDecision {
            rewrite: space.get(chosen).clone(),
            planning_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::query::{OutputKind, Predicate};
    use vizdb::schema::{ColumnType, TableSchema};
    use vizdb::storage::TableBuilder;
    use vizdb::types::GeoRect;
    use vizdb::{Database, DbConfig};

    /// A table where numeric estimates are accurate but spatial estimates are not.
    fn build_db() -> Arc<Database> {
        let schema = TableSchema::new("trips")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp)
            .with_column("where", ColumnType::Geo)
            .with_column("distance", ColumnType::Float);
        let mut b = TableBuilder::new(schema);
        for i in 0..5000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i * 10);
                let lon = if i % 10 < 9 { -74.0 } else { -120.0 };
                row.set_geo("where", lon + (i % 7) as f64 * 0.01, 40.7);
                row.set_float("distance", (i % 50) as f64 * 0.5);
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        db.build_all_indexes("trips").unwrap();
        Arc::new(db)
    }

    fn make_query(i: u64) -> Query {
        Query::select("trips")
            .filter(Predicate::time_range(
                1,
                (i as i64 * 931) % 40_000,
                (i as i64 * 931) % 40_000 + 5_000,
            ))
            .filter(Predicate::numeric_range(3, 0.0, 2.0 + (i % 5) as f64))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-74.2, 40.0, -73.8, 41.0),
            ))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            })
    }

    #[test]
    fn bao_trains_and_chooses_a_hinted_plan() {
        let db = build_db();
        let training: Vec<Query> = (0..10).map(make_query).collect();
        let bao = BaoRewriter::train(db.clone(), &training, BaoConfig::default()).unwrap();
        let decision = bao.rewrite(&make_query(20)).unwrap();
        assert_eq!(bao.name(), "Bao");
        // Planning cost: overhead + one prediction per hint set (8 for 3 predicates).
        assert!((decision.planning_ms - (5.0 + 8.0)).abs() < 1e-9);
        // Chosen option must be a member of the space.
        let space = RewriteSpace::hints_only(&make_query(20));
        assert!(space.options().contains(&decision.rewrite));
    }

    #[test]
    fn bao_predictions_are_nonnegative() {
        let db = build_db();
        let training: Vec<Query> = (0..6).map(make_query).collect();
        let bao = BaoRewriter::train(db.clone(), &training, BaoConfig::default()).unwrap();
        let q = make_query(3);
        let space = RewriteSpace::hints_only(&q);
        for ro in space.options() {
            let f = BaoRewriter::featurise(&*db, &q, ro).unwrap();
            assert!(bao.predict(&f) >= 0.0);
        }
    }

    #[test]
    fn bao_beats_random_choice_when_estimates_are_good() {
        // On queries whose predicates are numeric/temporal only (accurate estimates,
        // like TPC-H), Bao should pick plans close to the best.
        let db = build_db();
        let make_numeric_query = |i: u64| {
            Query::select("trips")
                .filter(Predicate::time_range(
                    1,
                    (i as i64 * 731) % 40_000,
                    (i as i64 * 731) % 40_000 + 2_000,
                ))
                .filter(Predicate::numeric_range(3, 0.0, 1.0 + (i % 4) as f64))
                .output(OutputKind::Count)
        };
        let training: Vec<Query> = (0..12).map(make_numeric_query).collect();
        let bao = BaoRewriter::train(db.clone(), &training, BaoConfig::default()).unwrap();
        let mut regret = 0.0;
        let mut worst_regret = 0.0;
        for i in 20..26 {
            let q = make_numeric_query(i);
            let decision = bao.rewrite(&q).unwrap();
            let chosen = db.execution_time_ms(&q, &decision.rewrite).unwrap();
            let space = RewriteSpace::hints_only(&q);
            let times: Vec<f64> = space
                .options()
                .iter()
                .map(|ro| db.execution_time_ms(&q, ro).unwrap())
                .collect();
            let best = times.iter().copied().fold(f64::INFINITY, f64::min);
            let worst = times.iter().copied().fold(0.0f64, f64::max);
            regret += chosen - best;
            worst_regret += worst - best;
        }
        assert!(
            regret < worst_regret * 0.5,
            "Bao regret {regret} should be well below the worst-case {worst_regret}"
        );
    }

    #[test]
    fn ensemble_size_is_respected() {
        let db = build_db();
        let training: Vec<Query> = (0..4).map(make_query).collect();
        let config = BaoConfig {
            ensemble_size: 3,
            ..Default::default()
        };
        let bao = BaoRewriter::train(db, &training, config).unwrap();
        assert_eq!(bao.ensemble.len(), 3);
    }

    #[test]
    fn empty_training_workload_is_an_error() {
        let trained = BaoRewriter::train(build_db(), &[], BaoConfig::default());
        assert_eq!(trained.err(), Some(Error::EmptyWorkload));
    }
}
