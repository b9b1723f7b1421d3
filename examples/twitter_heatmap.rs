//! The paper's motivating scenario (Fig. 1): a heatmap of tweets containing a keyword
//! on a given day in a given region, answered within 500 ms.
//!
//! The example shows how an original query that the backend executes with a bad plan
//! becomes viable once Maliva adds an index hint — and prints the heatmap bins.
//!
//! ```text
//! cargo run --release --example twitter_heatmap
//! ```

use std::sync::Arc;

use maliva::{train_agent, MalivaConfig, MalivaRewriter, QueryRewriter, RewardSpec, RewriteSpace};
use maliva_qte::AccurateQte;
use maliva_workload::{build_twitter, generate_workload, split_workload, DatasetScale};
use vizdb::exec::QueryResult;
use vizdb::hints::RewriteOption;
use vizdb::query::{BinGrid, OutputKind, Predicate, Query};
use vizdb::types::GeoRect;
use vizdb::QueryBackend;

fn main() {
    let tau_ms = 500.0;
    let dataset = build_twitter(DatasetScale::tiny(), 7);
    let db = dataset.db.clone();

    // Train a small agent on a generated workload so the middleware has a policy.
    let workload = generate_workload(&dataset, 100, 3);
    let split = split_workload(&workload, 3);
    let qte = Arc::new(AccurateQte::new(db.clone()));
    let trained = train_agent(
        &*db,
        qte.as_ref(),
        &split.train,
        &RewriteSpace::hints_only,
        RewardSpec::efficiency_only(),
        &MalivaConfig::with_budget(tau_ms),
    )
    .expect("training");
    let rewriter = MalivaRewriter::new(
        "Maliva",
        db.clone(),
        qte,
        trained.agent,
        Box::new(RewriteSpace::hints_only),
        tau_ms,
    );

    // The motivating request: heatmap of tweets containing a common keyword over a
    // popular region on one day (keyword chosen from the corpus's frequent words so the
    // backend's estimate is most likely to be wrong).
    let day_start = dataset.time_extent.0 + 200 * 86_400;
    let query = Query::select("tweets")
        .filter(Predicate::keyword(3, "word3"))
        .filter(Predicate::time_range(1, day_start, day_start + 86_400))
        .filter(Predicate::spatial_range(
            2,
            GeoRect::new(-124.4, 32.5, -114.1, 42.0),
        ))
        .output(OutputKind::BinnedCounts {
            point_attr: 2,
            grid: BinGrid::new(GeoRect::new(-125.0, 25.0, -66.0, 49.0), 32, 16),
        });

    println!("--- traditional middleware (no rewriting) ---");
    let original = db.run(&query, &RewriteOption::original()).expect("run");
    println!("{}", db.render_sql(&query, &RewriteOption::original()));
    println!(
        "plan:\n{}\nexecution time: {:.0} ms (budget {:.0} ms) -> {}",
        original.plan.explain(&query),
        original.time_ms,
        tau_ms,
        if original.time_ms <= tau_ms {
            "OK"
        } else {
            "TOO SLOW"
        }
    );

    println!("\n--- Maliva middleware ---");
    let decision = rewriter.rewrite(&query).expect("rewrite");
    let rewritten = db.run(&query, &decision.rewrite).expect("run");
    println!("{}", db.render_sql(&query, &decision.rewrite));
    println!(
        "plan:\n{}\nplanning {:.0} ms + execution {:.0} ms = {:.0} ms -> {}",
        rewritten.plan.explain(&query),
        decision.planning_ms,
        rewritten.time_ms,
        decision.planning_ms + rewritten.time_ms,
        if decision.planning_ms + rewritten.time_ms <= tau_ms {
            "OK"
        } else {
            "TOO SLOW"
        }
    );

    // Render the heatmap as ASCII for fun.
    if let QueryResult::Bins(bins) = &rewritten.result {
        println!("\nheatmap ({} non-empty bins):", bins.len());
        let max = bins.iter().map(|(_, c)| *c).max().unwrap_or(1);
        let mut grid = vec![vec![' '; 32]; 16];
        for (bin, count) in bins {
            let row = (bin / 32) as usize;
            let col = (bin % 32) as usize;
            let intensity = (count * 8 / max.max(1)) as usize;
            grid[row][col] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'][intensity.min(8)];
        }
        for row in grid.iter().rev() {
            println!("|{}|", row.iter().collect::<String>());
        }
    }
}
