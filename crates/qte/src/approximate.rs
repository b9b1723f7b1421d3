//! The sampling-based Approximate-QTE (paper §4.2).
//!
//! To estimate a rewritten query, the estimator first measures the selectivity of each
//! filtering condition the plan relies on by running a `count(*)` probe over a small
//! pre-built sample table, then feeds the measured selectivities into an analytical
//! cost model (a linear regression over predicted operation counts) fitted offline on
//! the training workload. Each probe is charged to the simulated clock in proportion
//! to the sample size (`per_row_probe_ms` × sample rows), which is exactly the
//! estimation cost the MDP agent must budget for. In process the probe no longer
//! scans the sample: the backend answers it from the sample's own indexes
//! (`Database::sample_selectivity`), so its wall time is an index count while its
//! simulated charge is unchanged.

use std::sync::Arc;

use vizdb::error::Result;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::context::{EstimationContext, Side};
use crate::features::plan_features;
use crate::regression::LinearModel;
use crate::traits::{needed_slots, EstimateReport, QueryTimeEstimator};

/// Configuration of the sampling-based estimator.
#[derive(Debug, Clone, Copy)]
pub struct ApproximateQteConfig {
    /// Which pre-built sample table (% of the base table) the probes run on.
    pub sample_pct: u32,
    /// Simulated cost of scanning one sample row during a probe, in milliseconds.
    pub per_row_probe_ms: f64,
    /// Fixed overhead per estimation call (feature extraction + model inference).
    pub overhead_ms: f64,
    /// Ridge penalty used when fitting the cost model.
    pub ridge_lambda: f64,
}

impl Default for ApproximateQteConfig {
    fn default() -> Self {
        Self {
            sample_pct: 1,
            per_row_probe_ms: 0.005,
            overhead_ms: 2.0,
            ridge_lambda: 1.0,
        }
    }
}

/// Sampling-based query-time estimator with a learned linear cost model.
pub struct ApproximateQte {
    db: Arc<dyn QueryBackend>,
    config: ApproximateQteConfig,
    model: LinearModel,
}

impl ApproximateQte {
    /// Creates an *untrained* estimator (predictions are 0 until [`Self::fit`] runs).
    pub fn new(db: Arc<dyn QueryBackend>, config: ApproximateQteConfig) -> Self {
        Self {
            db,
            config,
            model: LinearModel::default(),
        }
    }

    /// Creates and fits the estimator on a training workload: every `(query, rewrite
    /// option)` pair contributes one regression sample whose target is the true
    /// execution time.
    pub fn fit(
        db: Arc<dyn QueryBackend>,
        config: ApproximateQteConfig,
        training: &[(Query, Vec<RewriteOption>)],
    ) -> Result<Self> {
        let mut qte = Self::new(db, config);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for (query, ros) in training {
            let mut ctx = EstimationContext::new();
            for ro in ros {
                let features = qte.features_for(query, ro, &mut ctx)?;
                let target = qte.db.execution_time_ms(query, ro)?;
                xs.push(features);
                ys.push(target);
            }
        }
        qte.model = LinearModel::fit(&xs, &ys, qte.config.ridge_lambda);
        Ok(qte)
    }

    /// The learned cost model.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &ApproximateQteConfig {
        &self.config
    }

    /// Rows scanned by one selectivity probe (the size of the probe sample table).
    fn probe_rows(&self, table: &str) -> usize {
        self.db
            .sample_len(table, self.config.sample_pct)
            .unwrap_or(0)
    }

    /// Collects (via sample probes) any missing selectivities needed for `ro` and
    /// returns the feature vector for the model.
    fn features_for(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &mut EstimationContext,
    ) -> Result<Vec<f64>> {
        let n = query.predicate_count();
        for slot in needed_slots(query, ro) {
            if ctx.is_collected(slot) {
                continue;
            }
            let sel = if slot < n {
                self.db
                    .sample_selectivity(
                        &query.table,
                        &query.predicates[slot],
                        self.config.sample_pct,
                    )?
                    .0
            } else {
                match &query.join {
                    Some(spec) => {
                        let mut s = 1.0;
                        for (j, pred) in spec.right_predicates.iter().enumerate() {
                            // Dimension tables are small; probe them directly via the
                            // engine's estimate when no sample exists.
                            s *= match self.db.sample_selectivity(
                                &spec.right_table,
                                pred,
                                self.config.sample_pct,
                            ) {
                                Ok((sel, _)) => sel,
                                Err(_) => ctx.estimated_selectivity(Side::Dimension, j, || {
                                    self.db.estimated_selectivity(&spec.right_table, pred)
                                })?,
                            };
                        }
                        s
                    }
                    None => 1.0,
                }
            };
            ctx.record(slot, sel);
        }

        // Selectivity vector: measured where available, engine estimate otherwise.
        let mut selectivities = Vec::with_capacity(n);
        for (i, pred) in query.predicates.iter().enumerate() {
            let sel = match ctx.selectivity(i) {
                Some(s) => s,
                None => ctx.estimated_selectivity(Side::Fact, i, || {
                    self.db.estimated_selectivity(&query.table, pred)
                })?,
            };
            selectivities.push(sel);
        }
        let right_selectivity = match (&query.join, ctx.selectivity(n)) {
            (_, Some(s)) => s,
            (Some(spec), None) => {
                let mut s = 1.0;
                for (j, pred) in spec.right_predicates.iter().enumerate() {
                    s *= ctx.estimated_selectivity(Side::Dimension, j, || {
                        self.db.estimated_selectivity(&spec.right_table, pred)
                    })?;
                }
                s
            }
            (None, None) => 1.0,
        };
        let row_count = ctx.row_count(Side::Fact, || self.db.row_count(&query.table))?;
        let right_rows = ctx.row_count(Side::Dimension, || {
            Ok(match &query.join {
                Some(spec) => self.db.row_count(&spec.right_table).unwrap_or(0),
                None => 0,
            })
        })?;
        Ok(plan_features(
            query,
            ro,
            &selectivities,
            right_selectivity,
            row_count,
            right_rows,
        ))
    }
}

impl QueryTimeEstimator for ApproximateQte {
    fn name(&self) -> &'static str {
        "approximate"
    }

    /// The overhead plus one probe per needed, uncollected slot. Each table's probe
    /// sample size is read from the backend once per context, so this walks the
    /// hint mask and calls no backend after the first time.
    fn estimation_cost(&self, query: &Query, ro: &RewriteOption, ctx: &EstimationContext) -> f64 {
        let n = query.predicate_count();
        let mut cost = self.config.overhead_ms;
        for slot in needed_slots(query, ro) {
            if ctx.is_collected(slot) {
                continue;
            }
            let pct = self.config.sample_pct;
            let rows = if slot < n {
                ctx.probe_rows(Side::Fact, pct, || self.probe_rows(&query.table))
            } else {
                ctx.probe_rows(Side::Dimension, pct, || {
                    query
                        .join
                        .as_ref()
                        .map(|spec| self.probe_rows(&spec.right_table))
                        .unwrap_or(0)
                })
            };
            cost += rows as f64 * self.config.per_row_probe_ms;
        }
        cost
    }

    fn estimate(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &mut EstimationContext,
    ) -> Result<EstimateReport> {
        let cost_ms = self.estimation_cost(query, ro, ctx);
        let features = self.features_for(query, ro, ctx)?;
        let estimated_ms = self.model.predict(&features).max(0.0);
        Ok(EstimateReport {
            estimated_ms,
            cost_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::hints::{enumerate_hint_sets, HintSet};
    use vizdb::query::{OutputKind, Predicate};
    use vizdb::schema::{ColumnType, TableSchema};
    use vizdb::storage::TableBuilder;
    use vizdb::types::GeoRect;
    use vizdb::{Database, DbConfig};

    fn build_db(profile_commercial: bool) -> Arc<Database> {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..4000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", i);
                let lon = if i % 10 < 8 { -118.0 } else { -80.0 };
                row.set_geo("coordinates", lon + (i % 13) as f64 * 0.01, 34.0);
                row.set_text(
                    "text",
                    if i % 5 == 0 {
                        &["covid", "x"]
                    } else {
                        &["news", "x"]
                    },
                );
            });
        }
        let config = if profile_commercial {
            DbConfig::commercial()
        } else {
            DbConfig::default()
        };
        let mut db = Database::new(config);
        db.register_table(b.build()).unwrap();
        db.build_all_indexes("tweets").unwrap();
        db.build_sample("tweets", 1).unwrap();
        db.build_sample("tweets", 20).unwrap();
        Arc::new(db)
    }

    fn make_query(seed: i64) -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(
                3,
                if seed % 2 == 0 { "covid" } else { "news" },
            ))
            .filter(Predicate::time_range(
                1,
                seed * 37 % 2000,
                seed * 37 % 2000 + 500 + seed * 13 % 1000,
            ))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-119.0, 33.0, -118.0 + (seed % 5) as f64 * 0.2, 35.0),
            ))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            })
    }

    fn training_set(db: &Arc<Database>, n: usize) -> Vec<(Query, Vec<RewriteOption>)> {
        let _ = db;
        (0..n as i64)
            .map(|i| {
                let q = make_query(i);
                let ros = enumerate_hint_sets(&q)
                    .into_iter()
                    .map(RewriteOption::hinted)
                    .collect();
                (q, ros)
            })
            .collect()
    }

    #[test]
    fn fitted_model_tracks_true_times_on_postgres_profile() {
        let db = build_db(false);
        let training = training_set(&db, 12);
        let qte =
            ApproximateQte::fit(db.clone(), ApproximateQteConfig::default(), &training).unwrap();

        // Evaluate on fresh queries.
        let mut total_err = 0.0;
        let mut total_truth = 0.0;
        let mut count = 0;
        for i in 20..26 {
            let q = make_query(i);
            let mut ctx = EstimationContext::new();
            for hints in enumerate_hint_sets(&q) {
                let ro = RewriteOption::hinted(hints);
                let est = qte.estimate(&q, &ro, &mut ctx).unwrap().estimated_ms;
                let truth = db.execution_time_ms(&q, &ro).unwrap();
                total_err += (est - truth).abs();
                total_truth += truth;
                count += 1;
            }
        }
        let rel_err = total_err / total_truth.max(1.0);
        assert!(count > 0);
        assert!(
            rel_err < 0.5,
            "approximate QTE should be reasonably accurate, relative error {rel_err}"
        );
    }

    #[test]
    fn accuracy_degrades_on_commercial_profile() {
        let pg = build_db(false);
        let com = build_db(true);
        let cfg = ApproximateQteConfig::default();
        let qte_pg = ApproximateQte::fit(pg.clone(), cfg, &training_set(&pg, 10)).unwrap();
        let qte_com = ApproximateQte::fit(com.clone(), cfg, &training_set(&com, 10)).unwrap();

        let rel_err = |qte: &ApproximateQte, db: &Arc<Database>| -> f64 {
            let mut err = 0.0;
            let mut truth_sum = 0.0;
            for i in 30..36 {
                let q = make_query(i);
                let mut ctx = EstimationContext::new();
                for hints in enumerate_hint_sets(&q) {
                    let ro = RewriteOption::hinted(hints);
                    let est = qte.estimate(&q, &ro, &mut ctx).unwrap().estimated_ms;
                    let truth = db.execution_time_ms(&q, &ro).unwrap();
                    err += (est - truth).abs();
                    truth_sum += truth;
                }
            }
            err / truth_sum.max(1.0)
        };
        let e_pg = rel_err(&qte_pg, &pg);
        let e_com = rel_err(&qte_com, &com);
        assert!(
            e_com > e_pg,
            "commercial profile should degrade accuracy: pg {e_pg}, commercial {e_com}"
        );
    }

    #[test]
    fn estimation_cost_proportional_to_probe_sample_size() {
        let db = build_db(false);
        let cfg = ApproximateQteConfig {
            sample_pct: 20,
            ..Default::default()
        };
        let qte_big = ApproximateQte::new(db.clone(), cfg);
        let qte_small = ApproximateQte::new(db, ApproximateQteConfig::default());
        let q = make_query(1);
        let ro = RewriteOption::hinted(HintSet::with_mask(0b111));
        let ctx = EstimationContext::new();
        assert!(qte_big.estimation_cost(&q, &ro, &ctx) > qte_small.estimation_cost(&q, &ro, &ctx));
    }

    #[test]
    fn shared_slots_reduce_costs_between_estimates() {
        let db = build_db(false);
        let qte = ApproximateQte::new(db, ApproximateQteConfig::default());
        let q = make_query(2);
        let mut ctx = EstimationContext::new();
        let ro1 = RewriteOption::hinted(HintSet::with_mask(0b001));
        let ro2 = RewriteOption::hinted(HintSet::with_mask(0b011));
        let cost_before = qte.estimation_cost(&q, &ro2, &ctx);
        let _ = qte.estimate(&q, &ro1, &mut ctx).unwrap();
        let cost_after = qte.estimation_cost(&q, &ro2, &ctx);
        assert!(cost_after < cost_before);
    }

    #[test]
    fn untrained_model_predicts_zero_but_does_not_fail() {
        let db = build_db(false);
        let qte = ApproximateQte::new(db, ApproximateQteConfig::default());
        let q = make_query(3);
        let mut ctx = EstimationContext::new();
        let report = qte
            .estimate(
                &q,
                &RewriteOption::hinted(HintSet::with_mask(0b1)),
                &mut ctx,
            )
            .unwrap();
        assert_eq!(report.estimated_ms, 0.0);
        assert!(report.cost_ms > 0.0);
    }
}
