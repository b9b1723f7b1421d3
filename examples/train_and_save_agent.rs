//! Train an MDP agent offline, save it to disk as JSON, reload it and verify the
//! reloaded agent makes identical decisions — the offline/online split a production
//! middleware deployment would use.
//!
//! ```text
//! cargo run --release --example train_and_save_agent
//! ```

use std::sync::Arc;

use maliva::{plan_online, train_agent, MalivaConfig, QAgent, RewardSpec, RewriteSpace};
use maliva_qte::AccurateQte;
use maliva_workload::{build_twitter, generate_workload, split_workload, DatasetScale};

fn main() {
    let tau_ms = 500.0;
    let dataset = build_twitter(DatasetScale::tiny(), 21);
    let db = dataset.db.clone();
    let workload = generate_workload(&dataset, 100, 9);
    let split = split_workload(&workload, 9);
    let qte = Arc::new(AccurateQte::new(db.clone()));

    println!("training ...");
    let trained = train_agent(
        &*db,
        qte.as_ref(),
        &split.train,
        &RewriteSpace::hints_only,
        RewardSpec::efficiency_only(),
        &MalivaConfig::with_budget(tau_ms),
    )
    .expect("training");
    println!(
        "trained agent: {} rewrite options, {} epochs, final training VQP {:.1}%",
        trained.space_size,
        trained.report.epochs,
        trained.report.final_vqp()
    );

    // Save to disk.
    let path = std::env::temp_dir().join("maliva_agent.json");
    let json = trained.agent.to_json().expect("serialise agent");
    std::fs::write(&path, json).expect("write agent");
    println!(
        "agent saved to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).unwrap().len()
    );

    // Reload and check the decisions match.
    let reloaded = QAgent::from_json(&std::fs::read_to_string(&path).expect("read"))
        .expect("deserialise agent");
    let mut matching = 0;
    let sample: Vec<_> = split.eval.iter().take(20).collect();
    for query in &sample {
        let space = RewriteSpace::hints_only(query);
        let a = plan_online(&trained.agent, &*db, qte.as_ref(), query, &space, tau_ms).unwrap();
        let b = plan_online(&reloaded, &*db, qte.as_ref(), query, &space, tau_ms).unwrap();
        if a.chosen_index == b.chosen_index {
            matching += 1;
        }
    }
    println!(
        "reloaded agent reproduced {}/{} online decisions exactly",
        matching,
        sample.len()
    );
    assert_eq!(
        matching,
        sample.len(),
        "reloaded agent must behave identically"
    );
}
