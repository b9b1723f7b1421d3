//! Cross-crate consistency tests of the database substrate against the generated
//! workloads: every hinted rewrite of a generated query must return the same exact
//! result, and the difficulty metric must be stable.

use maliva::RewriteSpace;
use maliva_workload::{
    build_nyctaxi, build_tpch, build_twitter, generate_queries, generate_workload, DatasetScale,
    QueryGenConfig,
};
use vizdb::hints::RewriteOption;
use vizdb::{Database, QueryBackend};

/// `f` over every option on caches cleared first, so the pass computes its
/// own simulated times instead of reading back an earlier pass's.
fn fresh_pass<T>(
    db: &Database,
    options: &[RewriteOption],
    f: impl Fn(&RewriteOption) -> T,
) -> Vec<T> {
    db.clear_caches();
    options.iter().map(f).collect()
}

/// Every hinted rewrite returns the original query's result, and each one
/// agrees across the three ways the database answers it: the production
/// pipeline (`run`) matches the reference interpreter (`run_reference`) in
/// result, work profile and simulated time by bits, and the priced time
/// (`execution_time_ms`: one lattice pass per query, the other hint sets read
/// back from the time cache) equals the executed one by bits. The inputs are
/// scatterplot workloads on all three datasets plus heatmap viewports on
/// Twitter and NYC Taxi, at 5,000 rows (two 4,096-row chunks), and Twitter's
/// join workload (tweets ⋈ users), whose hint sets choose the join method.
#[test]
fn all_exact_rewrites_return_identical_results() {
    let heatmaps = QueryGenConfig {
        binned_output: true,
        ..QueryGenConfig::default()
    };
    for (dataset, heatmap_count, join_count) in [
        (build_twitter(DatasetScale::tiny(), 31), 16, 6),
        (build_nyctaxi(DatasetScale::tiny(), 31), 16, 0),
        (build_tpch(DatasetScale::tiny(), 31), 0, 0),
    ] {
        let db = &dataset.db;
        let mut queries = generate_workload(&dataset, 8, 3);
        queries.extend(generate_queries(&dataset, heatmap_count, &heatmaps, 5));
        if join_count > 0 {
            let joins = QueryGenConfig::join();
            queries.extend(generate_queries(&dataset, join_count, &joins, 44));
        }
        for query in &queries {
            let reference = db.run(query, &RewriteOption::original()).unwrap().result;
            let space = RewriteSpace::hints_only(query);
            let options = space.options();
            let interpreted = fresh_pass(db, options, |ro| db.run_reference(query, ro).unwrap());
            let executed = fresh_pass(db, options, |ro| db.run(query, ro).unwrap());
            let priced = fresh_pass(db, options, |ro| db.execution_time_ms(query, ro).unwrap());
            for (((ro, interpreted), executed), priced) in
                options.iter().zip(&interpreted).zip(&executed).zip(&priced)
            {
                let at = format!("{} {:?} {ro:?}", dataset.name, query.output);
                assert_eq!(
                    executed.result, reference,
                    "hinted rewrite changed the result on {at}"
                );
                assert_eq!(interpreted.result, executed.result, "{at}");
                assert_eq!(interpreted.work, executed.work, "{at}");
                assert_eq!(
                    interpreted.time_ms.to_bits(),
                    executed.time_ms.to_bits(),
                    "interpreted vs executed time on {at}"
                );
                assert_eq!(
                    priced.to_bits(),
                    executed.time_ms.to_bits(),
                    "priced vs executed time on {at}"
                );
            }
        }
    }
}

#[test]
fn viable_plan_counts_are_deterministic_and_bounded() {
    let dataset = build_tpch(DatasetScale::tiny(), 99);
    let queries = generate_workload(&dataset, 12, 11);
    for query in &queries {
        let a = dataset.db.viable_plan_count(query, 500.0).unwrap();
        let b = dataset.db.viable_plan_count(query, 500.0).unwrap();
        assert_eq!(a, b);
        assert!(a <= 8);
        let generous = dataset.db.viable_plan_count(query, 1e12).unwrap();
        assert_eq!(
            generous, 8,
            "every plan is viable under an unlimited budget"
        );
    }
}

#[test]
fn join_workload_runs_and_respects_join_semantics() {
    let dataset = build_twitter(DatasetScale::tiny(), 8);
    let config = maliva_workload::QueryGenConfig::join();
    let queries = maliva_workload::generate_queries(&dataset, 6, &config, 44);
    for query in &queries {
        assert!(query.is_join());
        let unjoined = {
            let mut q = query.clone();
            q.join = None;
            dataset
                .db
                .run(&q, &RewriteOption::original())
                .unwrap()
                .result
                .total_rows()
        };
        let joined = dataset
            .db
            .run(query, &RewriteOption::original())
            .unwrap()
            .result
            .total_rows();
        assert!(
            joined <= unjoined,
            "an FK join with a dimension filter can only reduce the result"
        );
    }
}
