//! Model-check suite for `vizdb::sched`'s claim-cursor crew — the protocol
//! behind `MalivaServer::serve_batch`: the claim cursor, the poison flag, the
//! worker drain loop and the in-order merge.
//!
//! Production gets its workers from `std::thread::scope`, which loomlite
//! cannot schedule; everything they share ([`MorselRun`]), the loop they run
//! ([`drain_worker`]) and the merge ([`merge_ordered`]) are the production
//! items, driven here from loomlite-controlled `sync::thread::spawn` workers.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`; see
//! `model_sync.rs` for the mechanics.

#![cfg(maliva_model_check)]

use std::sync::Arc;

use loomlite::{explore, Config};
use vizdb::sched::{drain_worker, merge_ordered, MorselResult, MorselRun};
use vizdb::sync::thread;

/// Collects both workers' `(index, outcome)` parts after joining.
fn drain_with_two_workers(
    total: usize,
    f: fn(usize) -> usize,
) -> (Arc<MorselRun>, Vec<(usize, MorselResult<usize>)>) {
    let run = Arc::new(MorselRun::new());
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let r = run.clone();
            thread::spawn(move || drain_worker(&r, total, &f))
        })
        .collect();
    let mut parts = Vec::new();
    for h in handles {
        parts.extend(h.join().unwrap());
    }
    (run, parts)
}

/// Every morsel index is dispatched to exactly one worker under any
/// interleaving — the `fetch_add` cursor never duplicates or skips work.
#[test]
fn every_morsel_dispatched_exactly_once() {
    let report = explore(Config::random(11, 1000), || {
        let (run, parts) = drain_with_two_workers(4, |m| m * 10);
        let mut idxs: Vec<usize> = parts.iter().map(|&(i, _)| i).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 1, 2, 3], "dispatch must be exactly-once");
        assert!(!run.is_poisoned());
        assert_eq!(run.claim(4), None, "an exhausted run hands out nothing");
    });
    report.assert_ok();
}

/// The production merge puts the parts back in sequential left-to-right order
/// regardless of which worker claimed what.
#[test]
fn merge_restores_sequential_order() {
    let report = explore(Config::random(23, 1000), || {
        let (_, parts) = drain_with_two_workers(5, |m| m * 7);
        assert_eq!(merge_ordered(parts), vec![0, 7, 14, 21, 28]);
    });
    report.assert_ok();
}

/// A panicking morsel poisons the run: the other worker stops claiming new
/// morsels (in-flight ones complete), both workers join, and the claimed
/// indices always form a gapless prefix with the panic recorded at its own
/// morsel index — so the merge can re-raise the earliest panic exactly as a
/// sequential pass would surface it.
#[test]
fn panic_poisons_the_run_and_both_workers_survive_to_join() {
    // The panicking morsel fires on every schedule; silence the default hook
    // so a thousand *expected* panics do not flood the output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = explore(Config::random(37, 1000), || {
        let (run, parts) = drain_with_two_workers(6, |m| {
            if m == 1 {
                std::panic::panic_any("boom");
            }
            m
        });
        assert!(run.is_poisoned(), "a panicking morsel must poison the run");
        assert_eq!(run.claim(6), None, "a poisoned run refuses new claims");
        let mut idxs: Vec<usize> = parts.iter().map(|&(i, _)| i).collect();
        idxs.sort_unstable();
        // The cursor is monotonic, so whatever was claimed is a gapless prefix.
        assert_eq!(idxs, (0..parts.len()).collect::<Vec<_>>());
        let errs: Vec<usize> = parts
            .iter()
            .filter(|(_, r)| r.is_err())
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(errs, vec![1], "the panic is recorded at its morsel index");
        let raised =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| merge_ordered(parts)))
                .expect_err("the merge re-raises the panic");
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"boom"));
    });
    std::panic::set_hook(hook);
    report.assert_ok();
}

/// Exhaustive exploration of the two-worker dispatch on a small run: every
/// interleaving of claims and poison checks, not just a random sample.
#[test]
fn dispatch_is_exactly_once_exhaustively() {
    let report = explore(Config::exhaustive(2, 20_000), || {
        let (run, parts) = drain_with_two_workers(3, |m| m);
        let mut idxs: Vec<usize> = parts.iter().map(|&(i, _)| i).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 1, 2]);
        assert!(!run.is_poisoned());
    });
    report.assert_ok();
}
