//! The paper suite's pins: the printed rows of every table of §7, committed in
//! `crates/bench/pins.json` and checked by `experiments -- pins`.
//!
//! A pin stores each table verbatim, so re-pinning on purpose (copying
//! `target/experiments/pins.json` over the committed file) is a readable diff.
//! Columns that hold wall-clock readings are left out: they differ between two
//! runs of the same code.

use crate::experiments::{experiment_groups, run_experiment};
use crate::harness::ExperimentOutput;

/// `(table id, column header)` of every column that is wall clock, not a result.
const UNPINNED_COLUMNS: &[(&str, &str)] = &[("fig21c", "Training time (s)")];

/// The committed pins.
const COMMITTED: &str = include_str!("../pins.json");

/// `output` without its wall-clock columns.
fn pin(output: &ExperimentOutput) -> ExperimentOutput {
    let keep: Vec<bool> = output
        .headers
        .iter()
        .map(|h| !UNPINNED_COLUMNS.contains(&(output.id.as_str(), h.as_str())))
        .collect();
    let kept = |cells: &[String]| -> Vec<String> {
        cells
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(c, _)| c.clone())
            .collect()
    };
    ExperimentOutput {
        id: output.id.clone(),
        title: output.title.clone(),
        headers: kept(&output.headers),
        rows: output.rows.iter().map(|r| kept(r)).collect(),
    }
}

/// Names every pinned table, row and cell that `current` does not repeat, and
/// every table of `current` that has no pin. Empty when nothing moved.
fn moved_cells(pinned: &[ExperimentOutput], current: &[ExperimentOutput]) -> Vec<String> {
    let current: Vec<ExperimentOutput> = current.iter().map(pin).collect();
    let mut moved = Vec::new();
    for p in pinned {
        let Some(c) = current.iter().find(|c| c.id == p.id) else {
            moved.push(format!("{}: table missing", p.id));
            continue;
        };
        if c.title != p.title {
            moved.push(format!(
                "{}: title `{}` is now `{}`",
                p.id, p.title, c.title
            ));
        }
        if c.headers != p.headers {
            moved.push(format!(
                "{}: headers {:?} are now {:?}",
                p.id, p.headers, c.headers
            ));
            continue;
        }
        if c.rows.len() != p.rows.len() {
            moved.push(format!(
                "{}: {} rows pinned, {} now",
                p.id,
                p.rows.len(),
                c.rows.len()
            ));
        }
        for (pr, cr) in p.rows.iter().zip(&c.rows) {
            let label = pr.first().map_or("", String::as_str);
            for (i, header) in p.headers.iter().enumerate() {
                let cell = |row: &[String]| row.get(i).map_or("-", String::as_str).to_string();
                let (pinned_cell, now) = (cell(pr), cell(cr));
                if pinned_cell != now {
                    moved.push(format!(
                        "{} row `{label}` column `{header}`: pinned `{pinned_cell}`, now `{now}`",
                        p.id
                    ));
                }
            }
        }
    }
    for c in &current {
        if !pinned.iter().any(|p| p.id == c.id) {
            moved.push(format!("{}: table not pinned", c.id));
        }
    }
    moved
}

/// Renders pins as JSON with one table row per line.
fn render(pins: &[ExperimentOutput]) -> String {
    let mut out = String::from("[\n");
    for (t, table) in pins.iter().enumerate() {
        out.push_str(&format!(
            "  {{\n    \"id\": {},\n    \"title\": {},\n    \"headers\": {},\n    \"rows\": [\n",
            json(&table.id),
            json(&table.title),
            json(&table.headers)
        ));
        for (r, row) in table.rows.iter().enumerate() {
            let sep = if r + 1 < table.rows.len() { "," } else { "" };
            out.push_str(&format!("      {}{sep}\n", json(row)));
        }
        let sep = if t + 1 < pins.len() { "," } else { "" };
        out.push_str(&format!("    ]\n  }}{sep}\n"));
    }
    out.push_str("]\n");
    out
}

fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Runs every pinned experiment, writes its pins to
/// `target/experiments/pins.json` and compares them with the committed pins.
/// Returns one line per moved table, row or cell (empty when every pin repeated).
pub fn check_pins() -> Vec<String> {
    let mut outputs = Vec::new();
    for id in experiment_groups() {
        eprintln!("[pins] running {id} ...");
        outputs.extend(run_experiment(id));
    }
    let pins: Vec<ExperimentOutput> = outputs.iter().map(pin).collect();
    let dir = std::path::Path::new("target").join("experiments");
    let path = dir.join("pins.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, render(&pins)))
    {
        eprintln!("[pins] cannot write {}: {e}", path.display());
    }
    match serde_json::from_str::<Vec<ExperimentOutput>>(COMMITTED) {
        Ok(committed) => moved_cells(&committed, &outputs),
        Err(e) => vec![format!("crates/bench/pins.json does not parse: {e}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cells: [&str; 4]) -> ExperimentOutput {
        let s = |v: &[&str]| v.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        ExperimentOutput {
            id: "fig21c".into(),
            title: "Training time by number of training queries".into(),
            headers: s(&[
                "Rewrite options",
                "# training queries",
                "Training time (s)",
                "Epochs",
            ]),
            rows: vec![
                s(&["8 options", "10", "0.3", "5"]),
                s(&[cells[0], cells[1], cells[2], cells[3]]),
            ],
        }
    }

    #[test]
    fn checker_names_only_the_moved_cell() {
        let pinned = [pin(&table(["16 options", "25", "1.4", "5"]))];
        assert!(moved_cells(&pinned, &[table(["16 options", "25", "9.9", "5"])]).is_empty());
        let moved = moved_cells(&pinned, &[table(["16 options", "25", "9.9", "4"])]);
        assert_eq!(
            moved,
            ["fig21c row `16 options` column `Epochs`: pinned `5`, now `4`"]
        );
    }

    #[test]
    fn checker_names_missing_and_unpinned_tables() {
        let pinned = [pin(&table(["16 options", "25", "1.4", "5"]))];
        let mut other = table(["16 options", "25", "1.4", "5"]);
        other.id = "fig21d".into();
        assert_eq!(
            moved_cells(&pinned, &[other]),
            ["fig21c: table missing", "fig21d: table not pinned"]
        );
    }

    /// The paper's headline figure repeats its committed pins under `cargo test`
    /// (≈ 4 s in a debug build), not only in the release suite's `pins` run.
    /// Like `pins`, it is taken at the default scale.
    #[test]
    fn fig12_and_fig13_repeat_their_pins() {
        let committed: Vec<ExperimentOutput> = serde_json::from_str(COMMITTED).unwrap();
        let current = run_experiment("fig12");
        let pinned: Vec<ExperimentOutput> = committed
            .into_iter()
            .filter(|p| current.iter().any(|c| c.id == p.id))
            .collect();
        assert_eq!(pinned.len(), 6, "fig12a-c and fig13a-c are pinned");
        assert_eq!(moved_cells(&pinned, &current), Vec::<String>::new());
    }

    #[test]
    fn committed_pins_parse_and_cover_every_pinned_group() {
        let committed: Vec<ExperimentOutput> = serde_json::from_str(COMMITTED).unwrap();
        for prefix in crate::experiments::all_experiment_ids() {
            assert!(
                committed.iter().any(|t| t.id.starts_with(prefix)),
                "no pinned table for {prefix}"
            );
        }
    }
}
