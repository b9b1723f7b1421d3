//! The four workloads: what each one serves, and how its stage (dataset,
//! backend, agent, QTE, server) and its traffic are built from a seed.
//!
//! Every load constant lives here and is committed; none is derived at run time
//! from measured capacity, so a parent commit and a change see identical load.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use maliva::{train_agent, MalivaConfig, QAgent, RewardSpec, RewriteSpace};
use maliva_qte::{AccurateQte, ApproximateQte, QueryTimeEstimator};
use maliva_serve::{MalivaServer, ServeConfig, ServeRequest};
use maliva_workload::{
    build_nyctaxi, build_twitter, generate_queries, Dataset, DatasetScale, QueryGenConfig,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vizdb::fingerprint::query_fingerprint;
use vizdb::query::Query;
use vizdb::{Database, QueryBackend, ShardedBackend, ShardedBackendBuilder};

use crate::hostspeed::{self, Probe};
use crate::stats::Digest;

/// Seed of everything that is not traffic: dataset rows, agent training, QTE fit.
pub const FIXED_SEED: u64 = 42;
/// Closed-loop client threads (the reference box has two cores).
pub const CLIENTS: usize = 2;
/// Shards of the Twitter serving backend.
pub const SHARDS: usize = 4;
/// Viewports a user pans back to; fits the 4096-entry decision cache.
pub const REVISIT_POOL: usize = 2_000;
/// Revisits in one user session, and how far the next session's ranking is
/// rotated along the pool (coprime to the pool size, so every entry gets its
/// turn at rank 0 before any has a second).
pub const SESSION_DRAWS: usize = 100;
pub const SESSION_SHIFT: usize = 37;
/// Offered frame rate of the open-loop workload: a quarter of what the serve
/// workers sustain on the reference box. At twice this rate, a host episode
/// half as fast again saturated the loop, and two such runs in ten put every
/// frame of both behind a backlog (p50 of 350 ms against 2 ms).
pub const FRAMES_PER_SECOND: usize = 100;
/// Linked views per dashboard frame: this many new viewports …
pub const FRAME_NEW: usize = 4;
/// … and this many revisits of pooled ones.
pub const FRAME_REVISITS: usize = 4;
/// Queries the agent is trained (and the Approximate-QTE fitted) on.
const TRAIN_QUERIES: usize = 200;
/// Requests per generator call while collecting distinct viewports.
const GENERATOR_BATCH: usize = 20_000;
/// Host-speed samples taken after each set-up step.
const SETUP_PROBES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    Twitter,
    NycTaxi,
}

/// How a workload's operations are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop over all-distinct viewports, `per_second × --seconds` of them.
    Distinct { per_second: usize },
    /// Closed loop of Zipf(1) draws from the warmed revisit pool.
    Revisit { per_second: usize },
    /// Open loop: one `serve_queued` frame every `1 / FRAMES_PER_SECOND` s.
    Frames,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: DatasetKind,
    /// The paper's budget for the dataset (Twitter 500 ms, NYC Taxi 1000 ms).
    pub tau_ms: f64,
    /// Serve through a 4-shard mirror (otherwise the bare `Database`).
    pub sharded: bool,
    /// Approximate-QTE (sample probes) or the Accurate-QTE oracle.
    pub approximate_qte: bool,
    pub max_zoom: u32,
    pub shape: Shape,
    /// Distinct viewports served untimed before measuring (beyond the pool).
    pub warmup: usize,
    /// Operations replayed through the tracing decorators.
    pub replay_ops: usize,
}

/// Closed-loop request counts are `per_second × --seconds`, with `per_second`
/// about 85% of what the two-core reference box sustains, so a phase lasts about
/// `--seconds` there and ends on its own before the time cap.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "first_visit",
        dataset: DatasetKind::Twitter,
        tau_ms: 500.0,
        sharded: true,
        approximate_qte: true,
        max_zoom: 9,
        shape: Shape::Distinct { per_second: 3_100 },
        // Fills the 4096-entry decision cache, so the measured phase evicts.
        warmup: 4_500,
        replay_ops: 2_000,
    },
    Spec {
        name: "revisit",
        dataset: DatasetKind::Twitter,
        tau_ms: 500.0,
        sharded: true,
        approximate_qte: true,
        max_zoom: 9,
        shape: Shape::Revisit { per_second: 4_900 },
        warmup: 0,
        replay_ops: 2_000,
    },
    Spec {
        name: "taxi_scan",
        dataset: DatasetKind::NycTaxi,
        tau_ms: 1_000.0,
        sharded: false,
        approximate_qte: false,
        max_zoom: 3,
        shape: Shape::Distinct { per_second: 165 },
        warmup: 200,
        replay_ops: 500,
    },
    Spec {
        name: "dashboard_frames",
        dataset: DatasetKind::Twitter,
        tau_ms: 500.0,
        sharded: true,
        approximate_qte: true,
        max_zoom: 9,
        shape: Shape::Frames,
        warmup: 500,
        replay_ops: 250,
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Requests in one operation: a frame is eight linked views.
    pub fn op_size(&self) -> usize {
        match self.shape {
            Shape::Frames => FRAME_NEW + FRAME_REVISITS,
            _ => 1,
        }
    }

    /// Operations per second the phase is sized for.
    pub fn ops_per_second(&self) -> usize {
        match self.shape {
            Shape::Distinct { per_second } | Shape::Revisit { per_second } => per_second,
            Shape::Frames => FRAMES_PER_SECOND,
        }
    }

    /// Operations the measured phase issues for a `seconds`-long run; never
    /// fewer than 2,000 so the percentiles have enough samples.
    pub fn measured_ops(&self, seconds: u64) -> usize {
        (self.ops_per_second() * seconds as usize).max(2_000)
    }
}

/// Everything the seed decides. `pool` holds the distinct requests; `warmup` and
/// `schedule` index into it. Operation `k` of the measured phase is
/// `schedule[k * op_size .. (k + 1) * op_size]`.
pub struct Traffic {
    pub pool: Vec<ServeRequest>,
    pub warmup: Vec<u32>,
    pub schedule: Vec<u32>,
    pub op_size: usize,
}

impl Traffic {
    pub fn ops(&self) -> usize {
        self.schedule.len() / self.op_size
    }
}

/// Wall seconds of each set-up step, and the host-speed samples taken between
/// the steps.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub mirror_s: f64,
    pub qte_fit_s: f64,
    pub train_s: f64,
    pub requests_s: f64,
    pub warmup_s: f64,
    pub probe_ns: Vec<u64>,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.dataset_s
            + self.mirror_s
            + self.qte_fit_s
            + self.train_s
            + self.requests_s
            + self.warmup_s
    }

    /// [`Self::total_s`] at reference speed.
    pub fn total_at_reference_speed_s(&self) -> f64 {
        self.total_s() / hostspeed::slowdown(&self.probe_ns)
    }
}

/// A built workload, ready to be measured.
pub struct Stage {
    pub spec: &'static Spec,
    /// The unsharded database: the correctness reference and the exec layer's
    /// own entry point.
    pub reference: Arc<Database>,
    /// What the server serves from: `reference` itself, or its 4-shard mirror.
    pub backend: Arc<dyn QueryBackend>,
    pub sharded: Option<Arc<ShardedBackend>>,
    pub agent: Arc<QAgent>,
    pub qte: Arc<dyn QueryTimeEstimator>,
    training: Vec<Query>,
    pub rows: usize,
    pub traffic: Traffic,
    pub input_digest: String,
    pub times: SetupTimes,
}

impl Stage {
    /// A QTE of this workload's kind over `backend` (the traced replay builds one
    /// over its `TimedBackend`). Fitting is seeded, so every instance agrees.
    pub fn build_qte(&self, backend: Arc<dyn QueryBackend>) -> Arc<dyn QueryTimeEstimator> {
        build_qte(self.spec, backend, &self.training)
    }

    /// A server with the defaults a user gets, apart from the two serve workers
    /// the two-core box has room for.
    pub fn build_server(
        &self,
        backend: Arc<dyn QueryBackend>,
        qte: Arc<dyn QueryTimeEstimator>,
    ) -> MalivaServer {
        MalivaServer::new(
            backend,
            self.agent.clone(),
            qte,
            Arc::new(RewriteSpace::hints_only),
            ServeConfig {
                workers: CLIENTS,
                shards: if self.spec.sharded { SHARDS } else { 1 },
                default_tau_ms: self.spec.tau_ms,
                ..ServeConfig::default()
            },
        )
    }
}

fn build_qte(
    spec: &Spec,
    backend: Arc<dyn QueryBackend>,
    training: &[Query],
) -> Arc<dyn QueryTimeEstimator> {
    if !spec.approximate_qte {
        return Arc::new(AccurateQte::new(backend));
    }
    let samples: Vec<_> = training
        .iter()
        .map(|q| (q.clone(), RewriteSpace::hints_only(q).options().to_vec()))
        .collect();
    Arc::new(
        ApproximateQte::fit(backend, Default::default(), &samples)
            .expect("fitting on generated queries over a built dataset cannot fail"),
    )
}

/// Times one set-up step into `slot`, then probes the host.
pub fn timed<T>(slot: &mut f64, probe_ns: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed().as_secs_f64();
    Probe::new(0).burst(SETUP_PROBES, probe_ns);
    out
}

/// Builds dataset, backend, QTE, agent and traffic. Warm-up is the caller's step
/// (it needs the serving loop); its time is added to `times` there.
pub fn build_stage(spec: &'static Spec, seed: u64, seconds: u64) -> Result<Stage, String> {
    let mut times = SetupTimes::default();
    let scale = DatasetScale::large();
    let dataset = timed(&mut times.dataset_s, &mut times.probe_ns, || match spec.dataset {
        DatasetKind::Twitter => build_twitter(scale, FIXED_SEED),
        DatasetKind::NycTaxi => build_nyctaxi(scale, FIXED_SEED),
    });
    let reference = dataset.db.clone();
    let sharded = if spec.sharded {
        Some(
            timed(&mut times.mirror_s, &mut times.probe_ns, || {
                ShardedBackendBuilder::mirror(&reference, SHARDS).map(Arc::new)
            })
            .map_err(|e| format!("mirroring into {SHARDS} shards: {e}"))?,
        )
    } else {
        None
    };
    let backend: Arc<dyn QueryBackend> = match &sharded {
        Some(s) => s.clone(),
        None => reference.clone(),
    };

    let gen = QueryGenConfig {
        binned_output: true,
        max_zoom: spec.max_zoom,
        ..QueryGenConfig::default()
    };
    let training = generate_queries(&dataset, TRAIN_QUERIES, &gen, FIXED_SEED);
    let qte = timed(&mut times.qte_fit_s, &mut times.probe_ns, || {
        build_qte(spec, backend.clone(), &training)
    });
    let agent = timed(&mut times.train_s, &mut times.probe_ns, || {
        train_agent(
            backend.as_ref(),
            qte.as_ref(),
            &training,
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &MalivaConfig {
                tau_ms: spec.tau_ms,
                max_epochs: 6,
                epsilon_decay_episodes: 400,
                seed: FIXED_SEED,
                ..MalivaConfig::default()
            },
        )
    })
    .map_err(|e| format!("training the agent: {e}"))?
    .agent;

    let traffic = timed(&mut times.requests_s, &mut times.probe_ns, || {
        build_traffic(spec, &dataset, &gen, seed, spec.measured_ops(seconds))
    })?;
    let rows = dataset.row_count();
    let input_digest = input_digest(&traffic, rows, spec.tau_ms);
    Ok(Stage {
        spec,
        reference,
        backend,
        sharded,
        agent: Arc::new(agent),
        qte,
        training,
        rows,
        traffic,
        input_digest,
        times,
    })
}

/// The first `n` distinct (by `query_fingerprint`) queries the generator yields
/// for `seed`, shuffled. The generator draws from ~1,500 seed records × a few
/// zoom levels, so raw output repeats itself; a repeat would hit the decision
/// cache. It favours wide viewports, so the narrow (cheap) ones turn up late
/// among the first occurrences: unshuffled, a phase speeds up by half from its
/// first second to its last, and its numbers depend on when the host was busy.
fn distinct_queries(
    dataset: &Dataset,
    gen: &QueryGenConfig,
    seed: u64,
    n: usize,
) -> Result<Vec<Query>, String> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for round in 0..64u64 {
        let batch_seed = seed.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for query in generate_queries(dataset, GENERATOR_BATCH, gen, batch_seed) {
            if seen.insert(query_fingerprint(&query)) {
                out.push(query);
                if out.len() == n {
                    out.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x5AFE));
                    return Ok(out);
                }
            }
        }
    }
    Err(format!(
        "the generator yielded only {} of {n} distinct viewports",
        out.len()
    ))
}

/// Cumulative Zipf(s = 1) distribution over ranks `0..n`.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

pub fn zipf_draw(cdf: &[f64], rng: &mut impl Rng) -> u32 {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32
}

/// `draws` revisits of the pool's first `REVISIT_POOL` entries, in sessions of
/// [`SESSION_DRAWS`]. Within a session the draws are Zipf(1) over ranks, and
/// session `j` maps rank `r` to entry `(r + j × SESSION_SHIFT) mod REVISIT_POOL`:
/// every user pans back to a few favourite viewports, and users differ in
/// which. With one ranking for the whole phase, ten viewports would take a
/// third of the draws, and every metric would follow what those ten cost.
pub fn revisit_draws(draws: usize, rng: &mut impl Rng) -> Vec<u32> {
    let cdf = zipf_cdf(REVISIT_POOL);
    (0..draws)
        .map(|k| {
            let shift = k / SESSION_DRAWS * SESSION_SHIFT;
            ((zipf_draw(&cdf, rng) as usize + shift) % REVISIT_POOL) as u32
        })
        .collect()
}

/// `frames × 8` pool indices: per frame, the next four unseen viewports
/// (`first_new` onwards) then four [`revisit_draws`].
pub fn frame_schedule(frames: usize, first_new: u32, seed: u64) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF4A3);
    let revisits = revisit_draws(frames * FRAME_REVISITS, &mut rng);
    let mut schedule = Vec::with_capacity(frames * (FRAME_NEW + FRAME_REVISITS));
    let mut next_new = first_new;
    for frame_revisits in revisits.chunks(FRAME_REVISITS) {
        for _ in 0..FRAME_NEW {
            schedule.push(next_new);
            next_new += 1;
        }
        schedule.extend_from_slice(frame_revisits);
    }
    schedule
}

/// Nanoseconds after the phase start at which frame `k` is due.
pub fn frame_due_ns(k: usize) -> u64 {
    k as u64 * 1_000_000_000 / FRAMES_PER_SECOND as u64
}

fn build_traffic(
    spec: &Spec,
    dataset: &Dataset,
    gen: &QueryGenConfig,
    seed: u64,
    ops: usize,
) -> Result<Traffic, String> {
    let indices = |range: std::ops::Range<usize>| range.map(|i| i as u32).collect::<Vec<u32>>();
    let (distinct, warmup, schedule) = match spec.shape {
        Shape::Distinct { .. } => (
            spec.warmup + ops,
            indices(0..spec.warmup),
            indices(spec.warmup..spec.warmup + ops),
        ),
        Shape::Revisit { .. } => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x21BF);
            (
                REVISIT_POOL,
                indices(0..REVISIT_POOL),
                revisit_draws(ops, &mut rng),
            )
        }
        Shape::Frames => {
            let warm = REVISIT_POOL + spec.warmup;
            (
                warm + ops * FRAME_NEW,
                indices(0..warm),
                frame_schedule(ops, warm as u32, seed),
            )
        }
    };
    let pool = distinct_queries(dataset, gen, seed, distinct)?
        .into_iter()
        .map(ServeRequest::new)
        .collect();
    Ok(Traffic {
        pool,
        warmup,
        schedule,
        op_size: spec.op_size(),
    })
}

/// Folds what the program is about to be fed: table size, budget, every pool
/// entry's fingerprint, and the warm-up and measured schedules.
fn input_digest(traffic: &Traffic, rows: usize, tau_ms: f64) -> String {
    let mut digest = Digest::default();
    digest.write(rows as u64);
    digest.write(tau_ms.to_bits());
    for request in &traffic.pool {
        digest.write(query_fingerprint(&request.query));
    }
    for &slot in traffic.warmup.iter().chain(&traffic.schedule) {
        digest.write(u64::from(slot));
    }
    digest.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let cdf = zipf_cdf(REVISIT_POOL);
        assert!((cdf[REVISIT_POOL - 1] - 1.0).abs() < 1e-12);
        let draw = |seed: u64| -> Vec<u32> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..10_000).map(|_| zipf_draw(&cdf, &mut rng)).collect()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let draws = draw(3);
        assert!(draws.iter().all(|&d| (d as usize) < REVISIT_POOL));
        // Rank 0 carries 1/H(2000) ≈ 12% of the mass.
        let top = draws.iter().filter(|&&d| d == 0).count();
        assert!((900..1_500).contains(&top), "{top}");
    }

    #[test]
    fn revisit_sessions_rotate_the_favourites() {
        let draw = |seed: u64| revisit_draws(100_000, &mut ChaCha8Rng::seed_from_u64(seed));
        let draws = draw(5);
        assert_eq!(draws, draw(5));
        assert_eq!(
            draws[..1_000],
            draw(5)[..1_000],
            "a longer phase extends a shorter one"
        );
        // The first session is plain Zipf: rank 0 is entry 0, about 12% of it.
        let first = draws[..SESSION_DRAWS].iter().filter(|&&d| d == 0).count();
        assert!((4..25).contains(&first), "{first}");
        // Over many sessions no entry stays the favourite.
        let mut counts = vec![0usize; REVISIT_POOL];
        draws.iter().for_each(|&d| counts[d as usize] += 1);
        assert!(counts.iter().all(|&c| c > 0));
        assert!(
            *counts.iter().max().unwrap() < 300,
            "{:?}",
            counts.iter().max()
        );
    }

    #[test]
    fn frame_schedule_is_deterministic_and_well_formed() {
        let a = frame_schedule(100, 2_500, 9);
        assert_eq!(a, frame_schedule(100, 2_500, 9));
        assert_ne!(a, frame_schedule(100, 2_500, 10));
        assert_eq!(a.len(), 800);
        for (k, frame) in a.chunks(8).enumerate() {
            let new: Vec<u32> = (0..4).map(|j| 2_500 + (k * 4 + j) as u32).collect();
            assert_eq!(&frame[..4], &new[..]);
            assert!(frame[4..].iter().all(|&i| (i as usize) < REVISIT_POOL));
        }
        // A longer schedule extends a shorter one.
        assert_eq!(a[..], frame_schedule(200, 2_500, 9)[..800]);
    }

    #[test]
    fn frames_are_due_on_a_fixed_grid() {
        assert_eq!(frame_due_ns(0), 0);
        assert_eq!(frame_due_ns(1), 10_000_000);
        assert_eq!(frame_due_ns(FRAMES_PER_SECOND), 1_000_000_000);
    }

    #[test]
    fn every_workload_times_at_least_two_thousand_operations() {
        for spec in &SPECS {
            assert!(spec.measured_ops(1) >= 2_000, "{}", spec.name);
            assert!(spec.replay_ops * spec.op_size() <= 2_000);
        }
    }
}
