//! Online query rewriting with a trained agent (paper Algorithm 2).

use maliva_qte::QueryTimeEstimator;
use vizdb::error::{Error, Result};
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::agent::{QAgent, QScratch};
use crate::mdp::{Decision, PlanningEnv, RewardSpec};
use crate::space::RewriteSpace;

/// The outcome of planning one query online.
#[derive(Debug, Clone)]
pub struct PlanningOutcome {
    /// The rewrite option Maliva decided to send to the database.
    pub rewrite: RewriteOption,
    /// Index of the chosen option in the rewrite space.
    pub chosen_index: usize,
    /// Planning time spent (all QTE costs), in milliseconds.
    pub planning_ms: f64,
    /// Execution time of the chosen rewritten query, in milliseconds.
    pub exec_ms: f64,
    /// Total response time (planning + execution).
    pub total_ms: f64,
    /// Whether the total response time met the budget.
    pub viable: bool,
    /// Indices of the rewrite options explored, in exploration order.
    pub explored: Vec<usize>,
    /// Why planning terminated.
    pub decision: Decision,
}

/// What online planning decided for one query, before anything is executed.
#[derive(Debug, Clone)]
pub struct OnlineDecision {
    /// The rewrite option Maliva decided to send to the database.
    pub rewrite: RewriteOption,
    /// Index of the chosen option in the rewrite space.
    pub chosen_index: usize,
    /// Planning time spent (all QTE costs), in milliseconds.
    pub planning_ms: f64,
    /// Indices of the rewrite options explored, in exploration order.
    pub explored: Vec<usize>,
    /// Why planning terminated.
    pub decision: Decision,
}

/// Decides which rewrite of `query` to send to the database (paper Algorithm 2):
/// repeatedly pick the remaining rewrite option with the highest Q-value, estimate
/// it, and stop as soon as a predicted-viable option is found, the budget is
/// exhausted, or no options remain. Nothing is executed — the caller sends the
/// chosen rewrite to the database, once. `initial_elapsed_ms` is planning time
/// already spent (non-zero for the second stage of the quality-aware rewriter).
pub fn decide_online(
    agent: &QAgent,
    db: &dyn QueryBackend,
    qte: &dyn QueryTimeEstimator,
    query: &Query,
    space: &RewriteSpace,
    tau_ms: f64,
    initial_elapsed_ms: f64,
) -> Result<OnlineDecision> {
    // Online planning serves live requests, so misconfiguration (an empty space, a
    // deserialized agent whose network does not fit its action count, an agent for
    // another space size) must surface as an error to the middleware instead of
    // taking the serving thread down in the forward pass.
    if space.is_empty() {
        return Err(Error::InvalidQuery(
            "rewrite space is empty: no rewrite option to plan over".into(),
        ));
    }
    agent
        .check_shape()
        .map_err(|err| Error::Internal(err.to_string()))?;
    if agent.n_actions() != space.len() {
        return Err(Error::Internal(format!(
            "agent was trained for a different rewrite-space size ({} actions, space has {})",
            agent.n_actions(),
            space.len()
        )));
    }
    let mut env = PlanningEnv::with_initial_elapsed(
        db,
        qte,
        query,
        space,
        tau_ms,
        RewardSpec::efficiency_only(),
        initial_elapsed_ms,
    );
    let mut explored = Vec::new();
    let mut scratch = QScratch::default();
    let decision = loop {
        let action = agent
            .best_action(env.state(), env.remaining(), &mut scratch)
            .ok_or_else(|| Error::Internal("planning not done but no actions remain".into()))?;
        explored.push(action);
        if let Some(decision) = env.advance(action)? {
            break decision;
        }
    };
    let chosen_index = decision.chosen();
    Ok(OnlineDecision {
        rewrite: space.get(chosen_index).clone(),
        chosen_index,
        planning_ms: env.state().elapsed_ms,
        explored,
        decision,
    })
}

/// Plans `query` online with a trained agent and measures the outcome:
/// [`decide_online`], then the true execution time of the chosen rewrite.
pub fn plan_online(
    agent: &QAgent,
    db: &dyn QueryBackend,
    qte: &dyn QueryTimeEstimator,
    query: &Query,
    space: &RewriteSpace,
    tau_ms: f64,
) -> Result<PlanningOutcome> {
    plan_online_from(agent, db, qte, query, space, tau_ms, 0.0)
}

/// Like [`plan_online`] but starting from a non-zero elapsed planning time (used by the
/// second stage of the two-stage quality-aware rewriter).
pub fn plan_online_from(
    agent: &QAgent,
    db: &dyn QueryBackend,
    qte: &dyn QueryTimeEstimator,
    query: &Query,
    space: &RewriteSpace,
    tau_ms: f64,
    initial_elapsed_ms: f64,
) -> Result<PlanningOutcome> {
    let decided = decide_online(agent, db, qte, query, space, tau_ms, initial_elapsed_ms)?;
    let exec_ms = db.execution_time_ms(query, &decided.rewrite)?;
    let total_ms = decided.planning_ms + exec_ms;
    Ok(PlanningOutcome {
        rewrite: decided.rewrite,
        chosen_index: decided.chosen_index,
        planning_ms: decided.planning_ms,
        exec_ms,
        total_ms,
        viable: total_ms <= tau_ms,
        explored: decided.explored,
        decision: decided.decision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MalivaConfig;
    use crate::testutil::{make_query, tiny_db, workload};
    use crate::train::train_agent;
    use maliva_qte::AccurateQte;
    use std::sync::Arc;

    #[test]
    fn online_planning_terminates_and_reports_times() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let queries = workload(10);
        let trained = train_agent(
            &db,
            &qte,
            &queries,
            &RewriteSpace::hints_only,
            crate::mdp::RewardSpec::efficiency_only(),
            &MalivaConfig::fast(),
        )
        .unwrap();
        let q = make_query(20);
        let space = RewriteSpace::hints_only(&q);
        let outcome = plan_online(&trained.agent, &db, &qte, &q, &space, 500.0).unwrap();
        assert!(outcome.planning_ms > 0.0);
        assert!(outcome.exec_ms > 0.0);
        assert!((outcome.total_ms - outcome.planning_ms - outcome.exec_ms).abs() < 1e-9);
        assert!(!outcome.explored.is_empty());
        assert!(outcome.chosen_index < space.len());
    }

    #[test]
    fn online_planning_explores_distinct_options() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let queries = workload(8);
        let trained = train_agent(
            &db,
            &qte,
            &queries,
            &RewriteSpace::hints_only,
            crate::mdp::RewardSpec::efficiency_only(),
            &MalivaConfig::fast(),
        )
        .unwrap();
        // A hard query: common keyword over the whole country.
        let q = make_query(5);
        let space = RewriteSpace::hints_only(&q);
        let outcome = plan_online(&trained.agent, &db, &qte, &q, &space, 400.0).unwrap();
        let mut seen = outcome.explored.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), outcome.explored.len(), "no action repeats");
    }

    /// The whole planning loop is backend-agnostic: an agent trained against the
    /// single database plans over the per-region sharded mirror of the same data,
    /// and the decisions stay well-defined (weighted selectivity composition) with
    /// byte-identical query results.
    #[test]
    fn online_planning_works_over_a_sharded_backend() {
        use crate::testutil::tiny_sharded_backend;
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let queries = workload(8);
        let trained = train_agent(
            &db,
            &qte,
            &queries,
            &RewriteSpace::hints_only,
            crate::mdp::RewardSpec::efficiency_only(),
            &MalivaConfig::fast(),
        )
        .unwrap();
        let sharded = tiny_sharded_backend(4);
        let sharded_qte = AccurateQte::new(sharded.clone());
        for i in [3u64, 9, 20] {
            let q = make_query(i);
            let space = RewriteSpace::hints_only(&q);
            let outcome = plan_online(
                &trained.agent,
                sharded.as_ref(),
                &sharded_qte,
                &q,
                &space,
                500.0,
            )
            .unwrap();
            assert!(outcome.chosen_index < space.len());
            assert!(outcome.planning_ms > 0.0);
            // Whatever rewrite the agent picked, the sharded backend materialises
            // the same result as the single database (exact rewrites only).
            assert_eq!(
                sharded.run(&q, &outcome.rewrite).unwrap().result,
                db.run(&q, &outcome.rewrite).unwrap().result,
                "sharded result diverged for query {i}"
            );
        }
    }

    /// `plan_online` is the decision plus one measurement, and both equal what
    /// the training-side `step` loop (deciding and settling in one call) reports
    /// for the same episode — on both backends, under both QTEs, from a zero and
    /// a non-zero starting elapsed time.
    #[test]
    fn plan_online_is_decide_online_plus_one_execution_time() {
        use crate::testutil::tiny_sharded_backend;
        use maliva_qte::ApproximateQte;
        let backends: [Arc<dyn QueryBackend>; 2] = [tiny_db(), tiny_sharded_backend(4)];
        for db in backends {
            let training: Vec<_> = workload(6)
                .into_iter()
                .map(|q| {
                    let options = RewriteSpace::hints_only(&q).options().to_vec();
                    (q, options)
                })
                .collect();
            let qtes: [Box<dyn QueryTimeEstimator>; 2] = [
                Box::new(AccurateQte::new(db.clone())),
                Box::new(ApproximateQte::fit(db.clone(), Default::default(), &training).unwrap()),
            ];
            for qte in &qtes {
                for (i, tau_ms, start_ms) in
                    [(5u64, 400.0, 0.0), (20, 500.0, 120.0), (3, 1.0e7, 0.0)]
                {
                    let q = make_query(i);
                    let space = RewriteSpace::hints_only(&q);
                    let agent = QAgent::new(space.len(), tau_ms, 11);
                    let (db, qte) = (db.as_ref(), qte.as_ref());
                    let planned =
                        plan_online_from(&agent, db, qte, &q, &space, tau_ms, start_ms).unwrap();
                    let decided =
                        decide_online(&agent, db, qte, &q, &space, tau_ms, start_ms).unwrap();
                    let exec_ms = db.execution_time_ms(&q, &decided.rewrite).unwrap();

                    let reward = RewardSpec::efficiency_only();
                    let mut env = PlanningEnv::with_initial_elapsed(
                        db, qte, &q, &space, tau_ms, reward, start_ms,
                    );
                    let mut stepped = Vec::new();
                    let mut scratch = QScratch::default();
                    while !env.is_done() {
                        let action = agent
                            .best_action(env.state(), env.remaining(), &mut scratch)
                            .unwrap();
                        stepped.push(action);
                        env.step(action).unwrap();
                    }
                    let settled = env.final_outcome().unwrap();

                    let context = format!("{} qte, query {i}, tau {tau_ms}", qte.name());
                    let planned_fields = (
                        planned.chosen_index,
                        &planned.rewrite,
                        planned.planning_ms,
                        &planned.explored,
                        planned.decision,
                        planned.exec_ms,
                        planned.total_ms,
                    );
                    let decided_fields = (
                        decided.chosen_index,
                        &decided.rewrite,
                        decided.planning_ms,
                        &decided.explored,
                        decided.decision,
                        exec_ms,
                        decided.planning_ms + exec_ms,
                    );
                    let settled_fields = (
                        settled.chosen,
                        &settled.rewrite,
                        settled.planning_ms,
                        &stepped,
                        settled.decision,
                        settled.exec_ms,
                        settled.total_ms,
                    );
                    assert_eq!(planned_fields, decided_fields, "{context}");
                    assert_eq!(planned_fields, settled_fields, "{context}");
                    assert_eq!(planned.viable, settled.viable, "{context}");
                    assert!(planned.planning_ms >= start_ms, "{context}");
                    assert_eq!(planned.viable, planned.total_ms <= tau_ms, "{context}");
                }
            }
        }
    }

    #[test]
    fn mismatched_space_size_is_an_error() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let agent = QAgent::new(4, 500.0, 0);
        let q = make_query(0);
        let space = RewriteSpace::hints_only(&q); // size 8
        let err = plan_online(&agent, &db, &qte, &q, &space, 500.0).unwrap_err();
        assert!(
            err.to_string().contains("different rewrite-space size"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn empty_space_is_an_error_not_a_hang() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let agent = QAgent::new(4, 500.0, 0);
        let q = make_query(0);
        // `RewriteSpace::new` rejects empty spaces, but deserialization bypasses the
        // constructor; planning must fail cleanly rather than panic or spin.
        let space: RewriteSpace = serde_json::from_str(r#"{"options":[]}"#).unwrap();
        let err = plan_online(&agent, &db, &qte, &q, &space, 500.0).unwrap_err();
        assert!(
            err.to_string().contains("rewrite space is empty"),
            "unexpected error: {err}"
        );
    }

    /// Forwards to a backend and counts the catalog reads an estimator makes
    /// (`sample_len`, `row_count`, `estimated_selectivity`) by what they read.
    struct CountingBackend {
        inner: Arc<dyn QueryBackend>,
        reads: std::sync::Mutex<std::collections::BTreeMap<String, usize>>,
    }

    impl CountingBackend {
        fn count(&self, key: String) {
            *self.reads.lock().unwrap().entry(key).or_default() += 1;
        }

        fn take(&self) -> std::collections::BTreeMap<String, usize> {
            std::mem::take(&mut *self.reads.lock().unwrap())
        }
    }

    impl QueryBackend for CountingBackend {
        fn table_names(&self) -> Vec<String> {
            self.inner.table_names()
        }
        fn row_count(&self, table: &str) -> Result<usize> {
            self.count(format!("row_count {table}"));
            self.inner.row_count(table)
        }
        fn schema(&self, table: &str) -> Result<vizdb::schema::TableSchema> {
            self.inner.schema(table)
        }
        fn stats(&self, table: &str) -> Result<vizdb::stats::TableStats> {
            self.inner.stats(table)
        }
        fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
            self.inner.indexed_columns(table)
        }
        fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
            self.count(format!("sample_len {table} {fraction_pct}%"));
            self.inner.sample_len(table, fraction_pct)
        }
        fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<vizdb::plan::PhysicalPlan> {
            self.inner.plan(query, ro)
        }
        fn run(&self, query: &Query, ro: &RewriteOption) -> Result<vizdb::RunOutcome> {
            self.inner.run(query, ro)
        }
        fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
            self.inner.execution_time_ms(query, ro)
        }
        fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
            self.inner.estimated_cardinality(query)
        }
        fn estimated_selectivity(
            &self,
            table: &str,
            pred: &vizdb::query::Predicate,
        ) -> Result<f64> {
            self.count(format!("estimated_selectivity {table} {pred:?}"));
            self.inner.estimated_selectivity(table, pred)
        }
        fn true_selectivity(&self, table: &str, pred: &vizdb::query::Predicate) -> Result<f64> {
            self.inner.true_selectivity(table, pred)
        }
        fn sample_selectivity(
            &self,
            table: &str,
            pred: &vizdb::query::Predicate,
            fraction_pct: u32,
        ) -> Result<(f64, usize)> {
            self.inner.sample_selectivity(table, pred, fraction_pct)
        }
        fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
            self.inner.render_sql(query, ro)
        }
        fn generation(&self) -> u64 {
            self.inner.generation()
        }
        fn clear_caches(&self) {
            self.inner.clear_caches()
        }
        fn cache_entry_counts(&self) -> (usize, usize) {
            self.inner.cache_entry_counts()
        }
    }

    /// Over a 4-shard mirror each catalog read is a fan-out to every shard, so
    /// an Approximate-QTE episode reads each probe sample size, row count and
    /// fallback selectivity once, however many estimation costs it charges.
    /// The values live in the episode's context: a second episode of the same
    /// query reads them all again.
    #[test]
    fn an_episode_reads_each_catalog_value_once() {
        use crate::testutil::{make_join_query, tiny_sharded_backend};
        use maliva_qte::ApproximateQte;
        let backend = Arc::new(CountingBackend {
            inner: tiny_sharded_backend(4),
            reads: Default::default(),
        });
        let training: Vec<_> = workload(6)
            .into_iter()
            .map(|q| {
                let options = RewriteSpace::hints_only(&q).options().to_vec();
                (q, options)
            })
            .collect();
        let qte = ApproximateQte::fit(backend.clone(), Default::default(), &training).unwrap();
        for q in [make_query(5), make_join_query(5)] {
            let space = RewriteSpace::hints_only(&q);
            let agent = QAgent::new(space.len(), 6.0, 11);
            backend.take();
            let episodes: Vec<_> = (0..2)
                .map(|_| {
                    let decided =
                        decide_online(&agent, backend.as_ref(), &qte, &q, &space, 6.0, 0.0)
                            .unwrap();
                    assert!(decided.explored.len() >= 2, "{:?}", decided.explored);
                    backend.take()
                })
                .collect();
            let tables = if q.is_join() { 2 } else { 1 };
            let reads = |what: &str| episodes[0].keys().filter(|k| k.starts_with(what)).count();
            assert_eq!(reads("sample_len"), tables, "{:?}", episodes[0]);
            assert_eq!(reads("row_count"), tables, "{:?}", episodes[0]);
            assert!(reads("estimated_selectivity") > 0, "{:?}", episodes[0]);
            for (key, &count) in &episodes[0] {
                assert_eq!(count, 1, "{key} read {count} times in one episode");
            }
            assert_eq!(episodes[0], episodes[1], "the second episode reads afresh");
        }
    }

    /// The agent's JSON serialised by `to_json`, edited.
    fn edited_agent_json(agent: &QAgent, edit: impl FnOnce(&mut serde_json::Value)) -> String {
        fn field<'v>(value: &'v mut serde_json::Value, key: &str) -> &'v mut serde_json::Value {
            match value {
                serde_json::Value::Object(entries) => {
                    &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1
                }
                other => panic!("not an object: {}", other.kind()),
            }
        }
        let mut value = serde_json::to_value(agent).unwrap();
        let layers = field(field(&mut value, "network"), "layers");
        edit(layers);
        serde_json::to_string(&value).unwrap()
    }

    /// A deserialized agent whose network does not fit its action count, or does
    /// not run at all, is an error from `from_json` and from `decide_online`
    /// (where serde bypassed `from_json`), never a panic in the forward pass.
    #[test]
    fn malformed_agents_are_errors_not_panics() {
        use crate::agent::AgentError;
        use serde_json::Value;
        let agent = QAgent::new(4, 500.0, 0);
        let json = agent.to_json().unwrap();
        let wide = json.replace("\"n_actions\":4", "\"n_actions\":8");
        assert_ne!(wide, json, "the edit applies");
        let truncated = edited_agent_json(&agent, |layers| {
            if let Value::Array(layers) = layers {
                let weights = match &mut layers[1] {
                    Value::Object(entries) => entries.iter_mut().find(|(k, _)| k == "weights"),
                    _ => None,
                };
                if let Some((_, Value::Array(weights))) = weights {
                    weights.pop();
                }
            }
        });
        let empty = edited_agent_json(&agent, |layers| *layers = Value::Array(Vec::new()));

        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let q = make_query(0);
        let space = RewriteSpace::hints_only(&q); // size 8
        for (json, what) in [
            (&wide, "maps 9 inputs to 4 outputs"),
            (&truncated, "layer 1 is"),
            (&empty, "no layers"),
        ] {
            let err = QAgent::from_json(json).unwrap_err();
            assert!(
                matches!(err, AgentError::Dimensions { .. } | AgentError::Network(_)),
                "{err:?}"
            );
            assert!(err.to_string().contains(what), "{err}");
            let bypassed: QAgent = serde_json::from_str(json).unwrap();
            let err = decide_online(&bypassed, &db, &qte, &q, &space, 500.0, 0.0).unwrap_err();
            assert!(err.to_string().contains(what), "{err}");
        }
        assert!(matches!(
            QAgent::from_json("{\"n_actions\": 4"),
            Err(AgentError::Json(_))
        ));
    }
}
