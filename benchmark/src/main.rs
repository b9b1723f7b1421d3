//! End-to-end, layer-attributed benchmark of the Maliva serving path.
//!
//! ```text
//! maliva-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! maliva-benchmark run --all [--seed N] [--seconds S] [--out DIR]
//! maliva-benchmark compare <a.json> <b.json>
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and what each layer
//! metric is expected to move.

mod compare;
mod hostspeed;
mod phase;
mod replay;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use run::RunArgs;
use spec::BenchmarkSpec;

const USAGE: &str = "usage:
  maliva-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  maliva-benchmark run --all [--seed N] [--seconds S] [--out DIR]
  maliva-benchmark compare <a.json> <b.json>";

struct RunCommand {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String], default_seconds: u64) -> Result<RunCommand, String> {
    let mut command = RunCommand {
        workload: None,
        all: false,
        seed: spec::DEFAULT_SEED,
        seconds: default_seconds,
        trace: false,
        out: PathBuf::from("benchmark/results"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, not `{text}`"))
        };
        match flag.as_str() {
            "--all" => command.all = true,
            "--workload" => command.workload = Some(value()?),
            "--seed" => command.seed = number(value()?)?,
            "--seconds" => command.seconds = number(value()?)?,
            "--trace" => command.trace = number(value()?)? != 0,
            "--out" => command.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if command.seconds == 0 || command.seconds > 60 {
        return Err("`--seconds` must be between 1 and 60".into());
    }
    if command.all == command.workload.is_some() {
        return Err("give exactly one of `--workload <name>` and `--all`".into());
    }
    Ok(command)
}

fn run_one(
    command: &RunCommand,
    workload: String,
    contract: &BenchmarkSpec,
) -> Result<bool, String> {
    let args = RunArgs {
        workload,
        seed: command.seed,
        seconds: command.seconds,
        trace: command.trace,
        out: command.out.clone(),
    };
    let result = run::run(&args, contract)?;
    run::write_result_file(
        &args.out.join(format!("{}.json", result.workload)),
        run::envelope(args.seed, args.seconds),
        vec![result.to_json(contract)?],
    )?;
    println!("{}", result.contract_line(contract, args.trace)?);
    Ok(result.correct)
}

/// Each workload in its own child process, traced, so that set-up time and peak
/// memory are the workload's own; the children's result files are merged.
fn run_all(command: &RunCommand, contract: &BenchmarkSpec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut merged = Vec::new();
    let mut all_correct = true;
    for workload in &contract.workloads {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", workload, "--trace", "1"])
            .args(["--seed", &command.seed.to_string()])
            .args(["--seconds", &command.seconds.to_string()])
            .arg("--out")
            .arg(&command.out)
            .status()
            .map_err(|e| format!("starting the {workload} run: {e}"))?;
        all_correct &= status.success();
        let path = command.out.join(format!("{workload}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let file: Value =
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        merged.extend(
            file.get("workloads")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{} has no workloads", path.display()))?
                .iter()
                .cloned(),
        );
    }
    let path = command.out.join("all.json");
    run::write_result_file(&path, run::envelope(command.seed, command.seconds), merged)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let contract = spec::benchmark_spec();
    match args.first().map(String::as_str) {
        Some("run") => {
            let command = parse_run(&args[1..], contract.run_seconds)?;
            match command.workload.clone() {
                Some(workload) => run_one(&command, workload, &contract),
                None => run_all(&command, &contract),
            }
        }
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2], &contract),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
