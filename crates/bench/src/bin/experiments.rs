//! Experiment runner: regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p maliva-bench --release --bin experiments -- all
//! cargo run -p maliva-bench --release --bin experiments -- fig12 fig20
//! cargo run -p maliva-bench --release --bin experiments -- --list
//! cargo run -p maliva-bench --release --bin experiments -- pins
//! MALIVA_SCALE=small MALIVA_QUERIES=400 cargo run -p maliva-bench --release --bin experiments -- all
//! ```

use maliva_bench::experiments::{all_experiment_ids, experiment_descriptions, run_experiment};
use maliva_bench::harness::save_json;
use maliva_bench::pins::check_pins;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, description) in experiment_descriptions() {
            println!("{id:10} {description}");
        }
        return;
    }
    if args == ["pins"] {
        if ["MALIVA_SCALE", "MALIVA_QUERIES"]
            .iter()
            .any(|v| std::env::var_os(v).is_some())
        {
            eprintln!(
                "error: pins are taken at the default scale; unset MALIVA_SCALE and MALIVA_QUERIES"
            );
            std::process::exit(2);
        }
        let moved = check_pins();
        for cell in &moved {
            eprintln!("[pins] moved: {cell}");
        }
        if !moved.is_empty() {
            eprintln!(
                "[pins] {} difference(s) from the pins; to re-pin on purpose, copy \
                 target/experiments/pins.json over crates/bench/pins.json",
                moved.len()
            );
            std::process::exit(1);
        }
        eprintln!("[pins] every pinned table repeated");
        return;
    }

    let ids: Vec<String> = if args.iter().any(|a| a == "all") {
        // Figure pairs are generated together; deduplicate to avoid double work.
        let mut ids = Vec::new();
        for id in all_experiment_ids() {
            if matches!(id, "fig13" | "fig15" | "fig17") {
                continue;
            }
            ids.push(id.to_string());
        }
        ids
    } else {
        args
    };

    // Reject unknown ids up front with a clean error instead of panicking mid-run.
    let known = all_experiment_ids();
    if let Some(bad) = ids.iter().find(|id| !known.contains(&id.as_str())) {
        eprintln!("error: unknown experiment id `{bad}`");
        eprintln!("valid ids: {}", known.join(", "));
        std::process::exit(2);
    }

    let started = std::time::Instant::now();
    for id in &ids {
        let run_started = std::time::Instant::now();
        eprintln!("[experiments] running {id} ...");
        let outputs = run_experiment(id);
        for output in &outputs {
            output.print();
            save_json(output, serde_json::json!({}));
        }
        eprintln!(
            "[experiments] {id} finished in {:.1}s",
            run_started.elapsed().as_secs_f64()
        );
    }
    eprintln!(
        "[experiments] completed {} experiment group(s) in {:.1}s",
        ids.len(),
        started.elapsed().as_secs_f64()
    );
}

fn print_usage() {
    println!(
        "Usage: experiments [--list] <experiment id>... | all | pins\n\n\
         Experiment ids: {}\n\n\
         `pins` runs the paper's tables (table1-3, fig12-21, ablation) at the default\n\
         scale, writes target/experiments/pins.json and exits 1 naming every cell that\n\
         moved from crates/bench/pins.json.\n\n\
         Environment:\n  MALIVA_SCALE=tiny|small|large   dataset size (default tiny)\n  \
         MALIVA_QUERIES=<n>              generated queries per workload (default 240)",
        all_experiment_ids().join(", ")
    );
}
