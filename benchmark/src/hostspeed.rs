//! How fast the host is running right now, from a reference kernel the
//! benchmark owns.
//!
//! The reference box is a small VM on a shared host. Its speed moves with what
//! the neighbours do, by a quarter and more over minutes: their hyper-thread
//! siblings take issue slots from arithmetic-heavy code (a port-bound loop
//! swings by ±25% between runs while a dependent chain hardly moves), and their
//! memory traffic slows anything that streams. No statistic over one run
//! removes that, because a whole run sits inside one such episode.
//!
//! So every wall-clock and CPU metric is reported at reference speed: while a
//! phase runs, the load threads stop every [`PROBE_EVERY`] — no request in
//! flight, the program's own threads parked — and each times one pass of
//! [`Probe::sample`], half port-bound integer arithmetic and half a stream over
//! memory outside L2, which is roughly what a query engine does. The phase's
//! *slowdown* is the median sample over [`REFERENCE_NS`]; times are divided by
//! it and rates multiplied. Measured over 48 runs that spread 21–28% between
//! quartiles, this left 4–6% on the unsharded workload and 8–12% on the
//! sharded ones (whose cross-thread wake-ups the kernel does not model).
//!
//! The kernel calls nothing of the program, so an optimisation of the program
//! cannot move it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How often a phase pauses for a probe.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);
/// One [`Probe::sample`] on the quiet reference box (2 vCPUs of a 2.1 GHz
/// Xeon). It only sets the scale: a slowdown of 1 means "as fast as that".
pub const REFERENCE_NS: f64 = 150_000.0;

/// Words of the shared stream buffer: 16 MiB, eight times the L2 of a core.
const BUFFER_WORDS: usize = 2 << 20;
/// Words one sample streams: 1 MiB.
const WINDOW_WORDS: usize = 128 << 10;
/// Rounds of the arithmetic half, sized to take about as long as the stream.
const ARITHMETIC_ROUNDS: u64 = 12_000;

fn buffer() -> &'static [u64] {
    static BUFFER: OnceLock<Vec<u64>> = OnceLock::new();
    BUFFER.get_or_init(|| (0..BUFFER_WORDS as u64).collect())
}

/// Eight independent multiply–xorshift chains: enough parallel work to fill the
/// core's issue ports, so it slows when a sibling thread competes for them.
fn arithmetic(rounds: u64) -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..rounds {
        for (j, x) in lanes.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i ^ j as u64);
            *x ^= *x >> 29;
        }
    }
    lanes.iter().fold(0, |acc, x| acc ^ x)
}

fn stream(window: &[u64]) -> u64 {
    window.iter().fold(0u64, |acc, x| acc.wrapping_add(*x))
}

/// One thread's cursor into the stream buffer: successive samples read
/// successive windows, so none finds its window still in L2.
pub struct Probe {
    window: usize,
}

impl Probe {
    /// `lane` staggers the threads' cursors.
    pub fn new(lane: usize) -> Self {
        Self {
            window: lane * (BUFFER_WORDS / WINDOW_WORDS / 2),
        }
    }

    /// Runs the reference kernel once and returns its wall nanoseconds.
    pub fn sample(&mut self) -> u64 {
        // Built on first use, before the clock starts.
        let words = buffer();
        let at = self.window % (BUFFER_WORDS / WINDOW_WORDS) * WINDOW_WORDS;
        self.window += 1;
        let started = Instant::now();
        let a = arithmetic(ARITHMETIC_ROUNDS);
        let b = stream(&words[at..at + WINDOW_WORDS]);
        std::hint::black_box((a, b));
        started.elapsed().as_nanos() as u64
    }

    /// `n` samples back to back (between two set-up steps).
    pub fn burst(&mut self, n: usize, into: &mut Vec<u64>) {
        into.extend((0..n).map(|_| self.sample()));
    }
}

/// Median sample over the reference: 1.25 means the host ran a quarter slower
/// than the quiet reference box. A phase too short to have been probed counts
/// as reference speed.
pub fn slowdown(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 1.0;
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2] as f64 / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_not_optimised_away() {
        assert_eq!(arithmetic(1_000), arithmetic(1_000));
        assert_ne!(arithmetic(1_000), arithmetic(1_001));
        let words = buffer();
        assert_eq!(stream(&words[..4]), 6);
        let mut probe = Probe::new(1);
        assert!(probe.sample() > 1_000, "a sample takes microseconds");
    }

    #[test]
    fn probes_walk_the_whole_buffer() {
        let mut probe = Probe::new(0);
        let windows = BUFFER_WORDS / WINDOW_WORDS;
        for _ in 0..2 * windows + 1 {
            probe.sample();
        }
        assert_eq!(probe.window, 2 * windows + 1);
        assert_ne!(Probe::new(1).window, Probe::new(0).window);
    }

    #[test]
    fn slowdown_is_the_median_over_the_reference() {
        let r = REFERENCE_NS as u64;
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[r]), 1.0);
        // One preempted sample does not move it.
        assert_eq!(slowdown(&[r, 40 * r, r + r / 4, r + r / 4, r]), 1.25);
    }
}
