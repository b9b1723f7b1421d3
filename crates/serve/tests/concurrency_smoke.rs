//! Concurrency smoke test: N worker threads share one `Arc<Database>` and one
//! trained agent, plan + run a mixed workload, and must produce responses and
//! cached times identical to the single-threaded run. Determinism under
//! concurrency is the repro's core invariant — the simulated clock, the planner
//! and both database caches are all deterministic functions of their inputs, so
//! thread interleaving must never show through.

use std::collections::BTreeMap;
use std::sync::Arc;

use maliva::{train_agent, MalivaConfig, QAgent, RewardSpec, RewriteSpace};
use maliva_qte::AccurateQte;
use maliva_serve::{MalivaServer, ServeConfig, ServeRequest};
use maliva_workload::{build_twitter, generate_workload, DatasetScale};
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::Database;

const TAU_MS: f64 = 500.0;

fn trained_agent(db: &Arc<Database>, train: &[Query]) -> QAgent {
    let qte = AccurateQte::new(db.clone());
    train_agent(
        db,
        &qte,
        train,
        &RewriteSpace::hints_only,
        RewardSpec::efficiency_only(),
        &MalivaConfig::fast(),
    )
    .expect("training on a generated workload")
    .agent
}

fn server(db: Arc<Database>, agent: Arc<QAgent>, workers: usize) -> MalivaServer {
    let qte = Arc::new(AccurateQte::new(db.clone()));
    MalivaServer::new(
        db,
        agent,
        qte,
        Arc::new(RewriteSpace::hints_only),
        ServeConfig {
            workers,
            default_tau_ms: TAU_MS,
            ..ServeConfig::default()
        },
    )
}

#[test]
fn multi_threaded_serving_matches_single_threaded_run() {
    let dataset = build_twitter(DatasetScale::tiny(), 23);
    let db = dataset.db.clone();
    let queries = generate_workload(&dataset, 28, 41);
    let (train, serve_queries) = queries.split_at(8);
    let agent = Arc::new(trained_agent(&db, train));

    // A mixed workload with repeats, so the decision cache sees hits.
    let requests: Vec<ServeRequest> = serve_queries
        .iter()
        .chain(serve_queries.iter().take(10))
        .map(|q| ServeRequest::new(q.clone()))
        .collect();

    // Reference: single worker on pristine caches.
    db.clear_caches();
    let reference = server(db.clone(), agent.clone(), 1)
        .serve_batch(&requests)
        .expect("single-threaded serving");
    let reference_cache_counts = db.cache_entry_counts();

    // Record the canonical cached execution time of every served rewrite.
    let cached_times: BTreeMap<usize, f64> = reference
        .iter()
        .map(|r| {
            let t = db
                .execution_time_ms(&requests[r.request_index].query, &r.rewrite)
                .expect("cached time");
            (r.request_index, t)
        })
        .collect();

    for workers in [2, 4, 8] {
        db.clear_caches();
        let concurrent = server(db.clone(), agent.clone(), workers)
            .serve_batch(&requests)
            .expect("concurrent serving");
        assert_eq!(concurrent.len(), reference.len());
        for (single, multi) in reference.iter().zip(&concurrent) {
            assert_eq!(
                single.deterministic_view(),
                multi.deterministic_view(),
                "responses diverged at {workers} workers"
            );
        }
        // The database caches must converge to the same state and values.
        assert_eq!(
            db.cache_entry_counts(),
            reference_cache_counts,
            "cache entry counts diverged at {workers} workers"
        );
        for (&i, &expected) in &cached_times {
            let observed = db
                .execution_time_ms(&requests[i].query, &reference[i].rewrite)
                .expect("cached time");
            assert_eq!(observed, expected, "cached time diverged for request {i}");
        }
    }
}

#[test]
fn raw_scoped_threads_share_database_and_agent() {
    // The layer below the server: threads calling plan_online + run directly
    // against shared handles (no decision cache involved).
    let dataset = build_twitter(DatasetScale::tiny(), 29);
    let db = dataset.db.clone();
    let queries = generate_workload(&dataset, 16, 47);
    let (train, rest) = queries.split_at(6);
    let agent = trained_agent(&db, train);
    let qte = AccurateQte::new(db.clone());

    // Single-threaded reference.
    db.clear_caches();
    let mut expected: Vec<(usize, RewriteOption, f64)> = Vec::new();
    for q in rest {
        let space = RewriteSpace::hints_only(q);
        let outcome = maliva::plan_online(&agent, &db, &qte, q, &space, TAU_MS).expect("plan");
        expected.push((outcome.chosen_index, outcome.rewrite, outcome.exec_ms));
    }

    db.clear_caches();
    let results: Vec<vizdb::sync::Mutex<Option<(usize, RewriteOption, f64)>>> =
        rest.iter().map(|_| vizdb::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for chunk in 0..4usize {
            let (agent, qte, db) = (&agent, &qte, &db);
            let results = &results;
            scope.spawn(move || {
                for (i, q) in rest.iter().enumerate() {
                    if i % 4 != chunk {
                        continue;
                    }
                    let space = RewriteSpace::hints_only(q);
                    let outcome =
                        maliva::plan_online(agent, db, qte, q, &space, TAU_MS).expect("plan");
                    *results[i].lock() =
                        Some((outcome.chosen_index, outcome.rewrite, outcome.exec_ms));
                }
            });
        }
    });
    for (i, slot) in results.into_iter().enumerate() {
        let observed = slot.into_inner().expect("every query planned");
        assert_eq!(
            observed, expected[i],
            "plan_online diverged under threads for query {i}"
        );
    }
}
