//! Every charged cost and estimate is a function of the query, the option and the
//! collected slots alone: reading the catalog once per context changes no bit.
//!
//! The reference below restates both estimators' formulas with direct backend
//! calls and a plain map of collected slots. Each hint option of a 3-predicate
//! query and of a join query (with and without a sample of the dimension table)
//! is costed and estimated under every subset of collected slots, on a context
//! whose catalog memo earlier options have already filled.

use std::collections::HashMap;
use std::sync::Arc;

use maliva_qte::approximate::ApproximateQteConfig;
use maliva_qte::features::plan_features;
use maliva_qte::{AccurateQte, ApproximateQte, EstimationContext, QueryTimeEstimator};
use vizdb::error::Result;
use vizdb::hints::{enumerate_hint_sets, RewriteOption};
use vizdb::query::{JoinSpec, OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::TableBuilder;
use vizdb::types::GeoRect;
use vizdb::{Database, DbConfig, QueryBackend};

fn build_db(dimension_sample: bool) -> Arc<Database> {
    let schema = TableSchema::new("tweets")
        .with_column("id", ColumnType::Int)
        .with_column("created_at", ColumnType::Timestamp)
        .with_column("coordinates", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("user_id", ColumnType::Int);
    let mut b = TableBuilder::new(schema);
    for i in 0..3000i64 {
        b.push_row(|row| {
            row.set_int("id", i);
            row.set_timestamp("created_at", i * 30);
            let lon = if i % 10 < 8 { -118.0 } else { -80.0 };
            row.set_geo("coordinates", lon + (i % 13) as f64 * 0.01, 34.0);
            row.set_text("text", if i % 5 == 0 { &["covid"] } else { &["news"] });
            row.set_int("user_id", i % 300);
        });
    }
    let mut users = TableBuilder::new(
        TableSchema::new("users")
            .with_column("id", ColumnType::Int)
            .with_column("tweet_count", ColumnType::Int),
    );
    for i in 0..300i64 {
        users.push_row(|row| {
            row.set_int("id", i);
            row.set_int("tweet_count", (i * 13) % 500);
        });
    }
    let mut db = Database::new(DbConfig::default());
    db.register_table(b.build()).unwrap();
    db.register_table(users.build()).unwrap();
    db.build_all_indexes("tweets").unwrap();
    db.build_all_indexes("users").unwrap();
    db.build_sample("tweets", 1).unwrap();
    if dimension_sample {
        db.build_sample("users", 1).unwrap();
    }
    Arc::new(db)
}

fn plain_query(seed: i64) -> Query {
    Query::select("tweets")
        .filter(Predicate::keyword(
            3,
            if seed % 2 == 0 { "covid" } else { "news" },
        ))
        .filter(Predicate::time_range(1, seed * 900, seed * 900 + 30_000))
        .filter(Predicate::spatial_range(
            2,
            GeoRect::new(-119.0, 33.0, -117.5 + seed as f64 * 0.1, 35.0),
        ))
        .output(OutputKind::Points {
            id_attr: 0,
            point_attr: 2,
        })
}

fn join_query(seed: i64) -> Query {
    plain_query(seed).join_with(JoinSpec {
        right_table: "users".into(),
        left_attr: 4,
        right_attr: 0,
        right_predicates: vec![
            Predicate::numeric_range(1, 0.0, 250.0),
            Predicate::numeric_range(0, 10.0, 200.0),
        ],
    })
}

fn options(query: &Query) -> Vec<RewriteOption> {
    enumerate_hint_sets(query)
        .into_iter()
        .map(RewriteOption::hinted)
        .collect()
}

/// The slots an estimate for `ro` needs: the fact predicates whose index it uses,
/// then the dimension slot `n` when it hints a join with dimension predicates.
fn needed_slots(query: &Query, ro: &RewriteOption) -> Vec<usize> {
    let n = query.predicate_count();
    let mut slots: Vec<usize> = (0..n).filter(|&i| ro.hints.uses_index(i)).collect();
    if ro.hints.join_method.is_some()
        && query
            .join
            .as_ref()
            .map(|j| !j.right_predicates.is_empty())
            .unwrap_or(false)
    {
        slots.push(n);
    }
    slots
}

/// The Approximate-QTE's formulas as the estimator states them, reading every
/// catalog value from the backend on every use.
struct ApproximateReference<'a> {
    db: &'a dyn QueryBackend,
    config: ApproximateQteConfig,
}

impl ApproximateReference<'_> {
    fn probe_rows(&self, table: &str) -> usize {
        self.db
            .sample_len(table, self.config.sample_pct)
            .unwrap_or(0)
    }

    fn cost(&self, query: &Query, ro: &RewriteOption, collected: &HashMap<usize, f64>) -> f64 {
        let n = query.predicate_count();
        let mut cost = self.config.overhead_ms;
        for slot in needed_slots(query, ro) {
            if collected.contains_key(&slot) {
                continue;
            }
            let rows = if slot < n {
                self.probe_rows(&query.table)
            } else {
                query
                    .join
                    .as_ref()
                    .map(|spec| self.probe_rows(&spec.right_table))
                    .unwrap_or(0)
            };
            cost += rows as f64 * self.config.per_row_probe_ms;
        }
        cost
    }

    fn features(
        &self,
        query: &Query,
        ro: &RewriteOption,
        collected: &mut HashMap<usize, f64>,
    ) -> Result<Vec<f64>> {
        let db = self.db;
        let pct = self.config.sample_pct;
        let n = query.predicate_count();
        for slot in needed_slots(query, ro) {
            if collected.contains_key(&slot) {
                continue;
            }
            let sel = if slot < n {
                db.sample_selectivity(&query.table, &query.predicates[slot], pct)?
                    .0
            } else {
                match &query.join {
                    Some(spec) => {
                        let mut s = 1.0;
                        for pred in &spec.right_predicates {
                            s *= match db.sample_selectivity(&spec.right_table, pred, pct) {
                                Ok((sel, _)) => sel,
                                Err(_) => db.estimated_selectivity(&spec.right_table, pred)?,
                            };
                        }
                        s
                    }
                    None => 1.0,
                }
            };
            collected.insert(slot, sel.clamp(0.0, 1.0));
        }
        let mut selectivities = Vec::with_capacity(n);
        for (i, pred) in query.predicates.iter().enumerate() {
            selectivities.push(match collected.get(&i) {
                Some(&s) => s,
                None => db.estimated_selectivity(&query.table, pred)?,
            });
        }
        let right_selectivity = match (&query.join, collected.get(&n)) {
            (_, Some(&s)) => s,
            (Some(spec), None) => {
                let mut s = 1.0;
                for pred in &spec.right_predicates {
                    s *= db.estimated_selectivity(&spec.right_table, pred)?;
                }
                s
            }
            (None, None) => 1.0,
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
}

/// The Accurate-QTE's cost: 2 ms plus the unit cost per uncollected needed slot.
fn accurate_cost(query: &Query, ro: &RewriteOption, collected: &HashMap<usize, f64>) -> f64 {
    let new_slots = needed_slots(query, ro)
        .into_iter()
        .filter(|slot| !collected.contains_key(slot))
        .count();
    2.0 + AccurateQte::DEFAULT_UNIT_COST_MS * new_slots as f64
}

/// A stand-in collected selectivity for `slot`, distinct per slot.
fn collected_value(slot: usize) -> f64 {
    0.05 + 0.1 * slot as f64
}

/// Checks both estimators on every option of `query` under every subset of its
/// `n + 1` slots.
fn check_query(db: &Arc<Database>, query: &Query, approximate: &ApproximateQte) {
    let backend: &dyn QueryBackend = db.as_ref();
    let accurate = AccurateQte::new(db.clone());
    let reference = ApproximateReference {
        db: backend,
        config: *approximate.config(),
    };
    let slots = query.predicate_count() + 1;
    for subset in 0u32..(1 << slots) {
        let mut ctx = EstimationContext::new();
        let mut collected = HashMap::new();
        for slot in (0..slots).filter(|&s| subset & (1 << s) != 0) {
            ctx.record(slot, collected_value(slot));
            collected.insert(slot, collected_value(slot));
        }
        for ro in options(query) {
            let context = format!("{ro:?}, collected {subset:#b}");
            // `ctx` keeps what every earlier option read from the catalog.
            let charged = approximate.estimation_cost(query, &ro, &ctx);
            let want = reference.cost(query, &ro, &collected);
            assert_eq!(
                charged.to_bits(),
                want.to_bits(),
                "approximate cost, {context}"
            );
            let charged = accurate.estimation_cost(query, &ro, &ctx);
            let want = accurate_cost(query, &ro, &collected);
            assert_eq!(
                charged.to_bits(),
                want.to_bits(),
                "accurate cost, {context}"
            );

            let mut after = ctx.clone();
            let report = approximate.estimate(query, &ro, &mut after).unwrap();
            let mut want_collected = collected.clone();
            let want_cost = reference.cost(query, &ro, &want_collected);
            let features = reference.features(query, &ro, &mut want_collected).unwrap();
            let want_ms = approximate.model().predict(&features).max(0.0);
            assert_eq!(report.cost_ms.to_bits(), want_cost.to_bits(), "{context}");
            assert_eq!(
                report.estimated_ms.to_bits(),
                want_ms.to_bits(),
                "{context}"
            );
            for slot in 0..slots {
                assert_eq!(
                    after.selectivity(slot).map(f64::to_bits),
                    want_collected.get(&slot).map(|s| s.to_bits()),
                    "approximate slot {slot}, {context}"
                );
            }

            let mut after = ctx.clone();
            let report = accurate.estimate(query, &ro, &mut after).unwrap();
            let want_ms = db.execution_time_ms(query, &ro).unwrap();
            let want_cost = accurate_cost(query, &ro, &collected);
            assert_eq!(report.cost_ms.to_bits(), want_cost.to_bits(), "{context}");
            assert_eq!(
                report.estimated_ms.to_bits(),
                want_ms.to_bits(),
                "{context}"
            );
        }
    }
}

#[test]
fn charged_costs_and_estimates_match_the_formulas_bit_for_bit() {
    for dimension_sample in [true, false] {
        let db = build_db(dimension_sample);
        let training: Vec<(Query, Vec<RewriteOption>)> = (0..6)
            .flat_map(|seed| [plain_query(seed), join_query(seed)])
            .map(|q| {
                let ros = options(&q);
                (q, ros)
            })
            .collect();
        let approximate =
            ApproximateQte::fit(db.clone(), ApproximateQteConfig::default(), &training).unwrap();
        assert!(
            approximate.model().predict(&[1.0; 13]) != 0.0,
            "the fitted model predicts something"
        );
        check_query(&db, &plain_query(8), &approximate);
        check_query(&db, &join_query(9), &approximate);
    }
}
