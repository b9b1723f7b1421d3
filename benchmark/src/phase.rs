//! The serving loops (closed and open) and what they log, with tracing off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use maliva_serve::{MalivaServer, ServeOutcome, ServeRequest, ServeResponse};
use vizdb::exec::QueryResult;

use crate::hostspeed::{self, Probe, PROBE_EVERY};
use crate::stats::{self, Digest};
use crate::workloads::{frame_due_ns, CLIENTS};

/// Leading request positions whose results are kept for the correctness check.
pub const KEPT_RESULTS: usize = 256;
/// Equal time slices of a phase; per-slice statistics are reported as medians
/// over the slices, so one host hiccup moves one slice, not the result.
const SLICES: usize = 10;
/// Idle time the open loop wants before its next frame to fit a probe in.
const PROBE_ROOM: Duration = Duration::from_millis(1);

/// What serving one request produced (all simulated, so seed-deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub viable: bool,
    pub total_ms: f64,
    pub chosen_index: usize,
    pub result_hash: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    /// When the operation was due: its start for a closed loop, its slot on the
    /// frame grid for the open loop.
    pub due_ns: u64,
    pub begin_ns: u64,
    pub end_ns: u64,
}

/// Log of one phase. Vectors are indexed by position in the schedule; `None`
/// marks a request that failed (error, shed, degraded) or was never reached.
#[derive(Default)]
pub struct PhaseLog {
    pub op_size: usize,
    pub ops: Vec<Option<OpTiming>>,
    pub answers: Vec<Option<Answer>>,
    pub kept: Vec<(usize, QueryResult)>,
    pub failed: u64,
    pub cpu_s: f64,
    /// Host-speed samples taken while the phase ran (see [`hostspeed`]).
    pub probe_ns: Vec<u64>,
    /// Wall seconds the probe pauses took out of each load thread's serving
    /// time (0 in the open loop, whose probes fit into idle gaps) …
    pub pause_wall_s: f64,
    /// … and the CPU seconds they burnt, over all threads.
    pub pause_cpu_s: f64,
}

pub fn hash_result(result: &QueryResult) -> u64 {
    let mut digest = Digest::default();
    match result {
        QueryResult::Points(points) => {
            for (id, point) in points {
                digest.write(*id as u64);
                digest.write(point.lon.to_bits());
                digest.write(point.lat.to_bits());
            }
        }
        QueryResult::Bins(bins) => {
            for (bin, count) in bins {
                digest.write(u64::from(*bin));
                digest.write(*count);
            }
        }
        QueryResult::Count(count) => digest.write(*count),
    }
    digest.value()
}

/// A degraded answer is a miss, like an error or a shed request.
pub fn answer_of(response: &ServeResponse) -> Option<Answer> {
    (!response.is_degraded()).then(|| Answer {
        viable: response.viable,
        total_ms: response.total_ms,
        chosen_index: response.chosen_index,
        result_hash: hash_result(&response.result),
    })
}

/// Process CPU seconds (user + system) from `/proc/self/stat`; ticks are 1/100 s
/// on every Linux this runs on.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct ClientLog {
    ops: Vec<(usize, OpTiming)>,
    answers: Vec<(usize, Answer)>,
    kept: Vec<(usize, QueryResult)>,
    failed: u64,
    probe_ns: Vec<u64>,
    paused: Duration,
}

/// Where the clients of a closed loop meet before a probe, so that it runs
/// with no request in flight: `reached[k]` is how many probes client `k` has
/// come to, `u64::MAX` once it has run out of work.
struct Rendezvous {
    reached: Vec<AtomicU64>,
}

impl Rendezvous {
    fn new(clients: usize) -> Self {
        Self {
            reached: (0..clients).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Holds client `k` until every client has come to probe `round` or left.
    fn meet(&self, k: usize, round: u64) {
        self.reached[k].store(round, Ordering::Release);
        while self
            .reached
            .iter()
            .any(|r| r.load(Ordering::Acquire) < round)
        {
            std::thread::yield_now();
        }
    }

    fn leave(&self, k: usize) {
        self.reached[k].store(u64::MAX, Ordering::Release);
    }
}

/// Closed loop: `CLIENTS` threads, client `k` serving schedule positions
/// `≡ k (mod CLIENTS)` one `serve_one` at a time. A client stops early once the
/// phase has run for `cap`. With `probing`, the clients pause together every
/// [`PROBE_EVERY`] and each takes one host-speed sample.
pub fn closed_loop(
    server: &MalivaServer,
    pool: &[ServeRequest],
    slots: &[u32],
    cap: Duration,
    probing: bool,
) -> PhaseLog {
    let rendezvous = Rendezvous::new(CLIENTS);
    let rendezvous = &rendezvous;
    let cpu_before = process_cpu_s();
    let epoch = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || {
                    let mut log = ClientLog {
                        ops: Vec::with_capacity(slots.len() / CLIENTS + 1),
                        answers: Vec::with_capacity(slots.len() / CLIENTS + 1),
                        kept: Vec::new(),
                        failed: 0,
                        probe_ns: Vec::new(),
                        paused: Duration::ZERO,
                    };
                    let mut probe = probing.then(|| Probe::new(k));
                    let (mut next_probe, mut round) = (Duration::ZERO, 0);
                    for pos in (k..slots.len()).step_by(CLIENTS) {
                        let mut begin = epoch.elapsed();
                        if begin > cap {
                            break;
                        }
                        if let Some(probe) = probe.as_mut().filter(|_| begin >= next_probe) {
                            round += 1;
                            rendezvous.meet(k, round);
                            log.probe_ns.push(probe.sample());
                            let resumed = epoch.elapsed();
                            log.paused += resumed - begin;
                            next_probe = resumed + PROBE_EVERY;
                            begin = resumed;
                        }
                        let served = server.serve_one(pos, &pool[slots[pos] as usize]);
                        let end = epoch.elapsed();
                        let begin_ns = begin.as_nanos() as u64;
                        log.ops.push((
                            pos,
                            OpTiming {
                                due_ns: begin_ns,
                                begin_ns,
                                end_ns: end.as_nanos() as u64,
                            },
                        ));
                        match served.ok().and_then(|r| Some((answer_of(&r)?, r))) {
                            Some((answer, response)) => {
                                log.answers.push((pos, answer));
                                if pos < KEPT_RESULTS {
                                    log.kept.push((pos, response.result));
                                }
                            }
                            None => log.failed += 1,
                        }
                    }
                    rendezvous.leave(k);
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    let mut phase = PhaseLog {
        op_size: 1,
        ops: vec![None; slots.len()],
        answers: vec![None; slots.len()],
        cpu_s: process_cpu_s() - cpu_before,
        ..PhaseLog::default()
    };
    for log in logs {
        for (pos, op) in log.ops {
            phase.ops[pos] = Some(op);
        }
        for (pos, answer) in log.answers {
            phase.answers[pos] = Some(answer);
        }
        phase.kept.extend(log.kept);
        phase.failed += log.failed;
        phase.probe_ns.extend(log.probe_ns);
        phase.pause_wall_s += log.paused.as_secs_f64() / CLIENTS as f64;
        // A paused client spins at the rendezvous or runs the kernel.
        phase.pause_cpu_s += log.paused.as_secs_f64();
    }
    phase.kept.sort_by_key(|(pos, _)| *pos);
    phase
}

/// Open loop: this thread submits frame `k` through `serve_queued` when it is
/// due, whether or not the system kept up; a frame is timed from its due
/// instant, so a stall is charged to every frame it delays. Every
/// [`PROBE_EVERY`] it takes a host-speed sample in the idle gap after a frame,
/// if the gap has room for one.
pub fn open_loop(
    server: &MalivaServer,
    pool: &[ServeRequest],
    slots: &[u32],
    op_size: usize,
    cap: Duration,
) -> PhaseLog {
    let frames = slots.len() / op_size;
    let mut phase = PhaseLog {
        op_size,
        ops: vec![None; frames],
        answers: vec![None; slots.len()],
        ..PhaseLog::default()
    };
    let mut probe = Probe::new(0);
    let mut next_probe = Duration::ZERO;
    let cpu_before = process_cpu_s();
    let epoch = Instant::now();
    for k in 0..frames {
        let due = Duration::from_nanos(frame_due_ns(k));
        if due > cap {
            break;
        }
        if let Some(wait) = due.checked_sub(epoch.elapsed()) {
            std::thread::sleep(wait);
        }
        let frame: Vec<ServeRequest> = slots[k * op_size..(k + 1) * op_size]
            .iter()
            .map(|&i| pool[i as usize].clone())
            .collect();
        let begin = epoch.elapsed();
        let outcomes = server.serve_queued(&frame);
        let end = epoch.elapsed();
        phase.ops[k] = Some(OpTiming {
            due_ns: due.as_nanos() as u64,
            begin_ns: begin.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        let outcomes = outcomes.unwrap_or_default();
        phase.failed += (op_size - outcomes.len()) as u64;
        for (j, outcome) in outcomes.into_iter().enumerate() {
            let pos = k * op_size + j;
            match outcome {
                ServeOutcome::Served(response) => {
                    phase.answers[pos] = answer_of(&response);
                    if pos < KEPT_RESULTS {
                        phase.kept.push((pos, response.result));
                    }
                }
                ServeOutcome::Degraded(_) | ServeOutcome::Rejected { .. } => phase.failed += 1,
            }
        }
        let now = epoch.elapsed();
        if now >= next_probe && now + PROBE_ROOM <= Duration::from_nanos(frame_due_ns(k + 1)) {
            let sample_ns = probe.sample();
            phase.probe_ns.push(sample_ns);
            phase.pause_cpu_s += sample_ns as f64 / 1e9;
            next_probe = now + PROBE_EVERY;
        }
    }
    phase.cpu_s = process_cpu_s() - cpu_before;
    phase
}

/// The user-visible numbers of a phase, as the clock read them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    /// How much slower than the reference box the host ran during the phase.
    pub slowdown: f64,
    pub lat_p50_ms: f64,
    pub lat_p95_ms: f64,
    pub lat_p99_ms: f64,
    pub lag_p95_ms: f64,
    pub throughput_rps: f64,
    pub cpu_ms_per_req: f64,
    pub vqp: f64,
    pub sim_resp_mean_ms: f64,
}

impl PhaseLog {
    pub fn summary(&self) -> Summary {
        let done: Vec<&OpTiming> = self.ops.iter().flatten().collect();
        let attempted = (done.len() * self.op_size) as u64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut latencies: Vec<f64> = done.iter().map(|op| ms(op.end_ns - op.due_ns)).collect();
        let mut lags: Vec<f64> = done.iter().map(|op| ms(op.begin_ns - op.due_ns)).collect();
        stats::sort(&mut latencies);
        stats::sort(&mut lags);

        let phase_end = done.iter().map(|op| op.end_ns).max().unwrap_or(0).max(1);
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for op in &done {
            let slice = (op.end_ns as u128 * SLICES as u128 / phase_end as u128) as usize;
            slices[slice.min(SLICES - 1)].push(ms(op.end_ns - op.due_ns));
        }
        // Probe pauses are spread evenly over the phase: every slice lost the
        // same share of its serving time to them.
        let phase_s = phase_end as f64 / 1e9;
        let slice_s = (phase_s - self.pause_wall_s).max(phase_s / 2.0) / SLICES as f64;
        let throughputs = slices
            .iter()
            .map(|s| (s.len() * self.op_size) as f64 / slice_s)
            .collect();
        let p95s = slices
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(|s| {
                stats::sort(s);
                stats::percentile(s, 95.0)
            })
            .collect();

        let answered: Vec<&Answer> = self.answers.iter().flatten().collect();
        let viable = answered.iter().filter(|a| a.viable).count();
        Summary {
            attempted,
            failed: self.failed,
            slowdown: hostspeed::slowdown(&self.probe_ns),
            lat_p50_ms: stats::percentile(&latencies, 50.0),
            lat_p95_ms: stats::median(p95s),
            lat_p99_ms: stats::percentile(&latencies, 99.0),
            lag_p95_ms: stats::percentile(&lags, 95.0),
            throughput_rps: stats::median(throughputs),
            cpu_ms_per_req: (self.cpu_s - self.pause_cpu_s).max(0.0) * 1e3
                / attempted.max(1) as f64,
            vqp: viable as f64 / attempted.max(1) as f64,
            sim_resp_mean_ms: stats::mean(
                &answered.iter().map(|a| a.total_ms).collect::<Vec<f64>>(),
            ),
        }
    }

}

impl Summary {
    /// The same numbers at reference speed: wall and CPU times divided by the
    /// phase's slowdown, and a closed loop's rate multiplied by it (an open
    /// loop's rate is the offered one whatever the host does). Counts and
    /// simulated-clock numbers do not depend on the host and stay.
    pub fn at_reference_speed(self, closed_loop: bool) -> Self {
        let rate_scale = if closed_loop { self.slowdown } else { 1.0 };
        Self {
            lat_p50_ms: self.lat_p50_ms / self.slowdown,
            lat_p95_ms: self.lat_p95_ms / self.slowdown,
            lat_p99_ms: self.lat_p99_ms / self.slowdown,
            lag_p95_ms: self.lag_p95_ms / self.slowdown,
            throughput_rps: self.throughput_rps * rate_scale,
            cpu_ms_per_req: self.cpu_ms_per_req / self.slowdown,
            ..self
        }
    }
}

impl PhaseLog {
    /// `(decision_digest, result_digest)` over the answered requests in schedule order.
    pub fn digests(&self) -> (String, String) {
        let (mut decisions, mut results) = (Digest::default(), Digest::default());
        for answer in self.answers.iter().flatten() {
            decisions.write(answer.chosen_index as u64);
            results.write(answer.result_hash);
        }
        (decisions.hex(), results.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(latencies_ms: &[u64]) -> PhaseLog {
        // Back-to-back operations on one client.
        let mut t = 0;
        let ops = latencies_ms
            .iter()
            .map(|&l| {
                let op = OpTiming {
                    due_ns: t,
                    begin_ns: t,
                    end_ns: t + l * 1_000_000,
                };
                t = op.end_ns;
                Some(op)
            })
            .collect();
        PhaseLog {
            op_size: 1,
            ops,
            answers: latencies_ms
                .iter()
                .map(|&l| {
                    Some(Answer {
                        viable: l <= 2,
                        total_ms: l as f64,
                        chosen_index: 0,
                        result_hash: l,
                    })
                })
                .collect(),
            cpu_s: 0.5,
            ..PhaseLog::default()
        }
    }

    #[test]
    fn summary_counts_and_percentiles() {
        let log = log_of(&[1; 1000]);
        let s = log.summary();
        assert_eq!(s.attempted, 1000);
        assert_eq!(s.lat_p50_ms, 1.0);
        assert_eq!(s.lat_p95_ms, 1.0);
        assert!(
            (s.throughput_rps - 1000.0).abs() < 1e-6,
            "{}",
            s.throughput_rps
        );
        assert_eq!(s.vqp, 1.0);
        assert_eq!(s.sim_resp_mean_ms, 1.0);
        assert!((s.cpu_ms_per_req - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_stall_moves_one_slice_only() {
        let mut latencies = vec![1u64; 1000];
        latencies[500] = 200;
        let s = log_of(&latencies).summary();
        assert_eq!(s.lat_p50_ms, 1.0);
        assert_eq!(
            s.lat_p95_ms, 1.0,
            "median of per-slice p95s ignores the stall"
        );
        assert!(s.throughput_rps > 800.0);
    }

    #[test]
    fn reference_speed_scales_times_down_and_a_closed_rate_up() {
        let mut log = log_of(&[2; 1000]);
        log.probe_ns = vec![(hostspeed::REFERENCE_NS * 1.25) as u64; 9];
        let clocked = log.summary();
        assert_eq!(clocked.slowdown, 1.25);
        assert_eq!(clocked.lat_p50_ms, 2.0);
        let closed = clocked.at_reference_speed(true);
        assert_eq!(closed.lat_p50_ms, 1.6);
        assert_eq!(closed.lat_p95_ms, 1.6);
        assert!((closed.throughput_rps - 1.25 * clocked.throughput_rps).abs() < 1e-9);
        assert!((closed.cpu_ms_per_req - clocked.cpu_ms_per_req / 1.25).abs() < 1e-12);
        assert_eq!(closed.vqp, clocked.vqp);
        assert_eq!(closed.sim_resp_mean_ms, clocked.sim_resp_mean_ms);
        // An open loop serves what is offered, however fast the host is.
        let open = clocked.at_reference_speed(false);
        assert_eq!(open.throughput_rps, clocked.throughput_rps);
        assert_eq!(open.lat_p50_ms, 1.6);
    }

    #[test]
    fn probe_pauses_are_taken_out_of_the_rate_and_the_cpu_time() {
        // One second of back-to-back 1 ms operations, of which 0.2 s was pause.
        let mut log = log_of(&[1; 1000]);
        log.pause_wall_s = 0.2;
        log.pause_cpu_s = 0.1;
        let s = log.summary();
        assert!((s.throughput_rps - 1250.0).abs() < 1e-6, "{}", s.throughput_rps);
        assert!((s.cpu_ms_per_req - 0.4).abs() < 1e-12);
        assert_eq!(s.slowdown, 1.0, "an unprobed phase counts as reference speed");
    }

    #[test]
    fn rendezvous_releases_once_all_have_come_or_left() {
        let rendezvous = Rendezvous::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                rendezvous.meet(0, 1);
                // Client 1 never comes to probe 2: its leaving releases this one.
                rendezvous.meet(0, 2);
            });
            scope.spawn(|| {
                rendezvous.meet(1, 1);
                rendezvous.leave(1);
            });
        });
        assert_eq!(rendezvous.reached[0].load(Ordering::Acquire), 2);
    }

    #[test]
    fn unanswered_requests_count_against_vqp() {
        let mut log = log_of(&[1, 1, 1, 1]);
        log.answers[3] = None;
        log.failed = 1;
        let s = log.summary();
        assert_eq!(s.attempted, 4);
        assert_eq!(s.vqp, 0.75);
        assert_eq!(s.failed, 1);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_instant() {
        let log = PhaseLog {
            op_size: 8,
            ops: vec![Some(OpTiming {
                due_ns: 5_000_000,
                begin_ns: 7_000_000,
                end_ns: 9_000_000,
            })],
            ..PhaseLog::default()
        };
        let s = log.summary();
        assert_eq!(s.attempted, 8);
        assert_eq!(s.lat_p50_ms, 4.0);
        assert_eq!(s.lag_p95_ms, 2.0);
    }
}
