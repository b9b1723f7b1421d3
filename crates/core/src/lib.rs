//! # maliva — ML-based query rewriting for interactive visualization
//!
//! This crate is the reproduction of the paper's primary contribution: a middleware
//! that, given a visualization query and a time budget τ, decides *which rewritten
//! query to send to the backend database* so that the total time — online planning
//! plus execution — stays within τ, and (when approximation rules are allowed) the
//! visualization quality is as high as possible.
//!
//! The decision process is modelled as a Markov Decision Process (paper §4):
//!
//! * a **state** records the elapsed planning time, the estimation cost of every
//!   candidate rewritten query and the estimated execution time of the candidates
//!   explored so far ([`mdp::MdpState`]);
//! * an **action** asks the Query Time Estimator to estimate one more candidate
//!   ([`mdp::PlanningEnv`]);
//! * the **reward** is `(τ − E − T̂)/τ` (Eq. 1), optionally blended with a
//!   visualization-quality term (Eq. 2, [`mdp::RewardSpec`]);
//! * the **agent** is a deep Q-network trained offline with experience replay and an
//!   ε-greedy exploration schedule (Algorithm 1, [`train::train_agent`]) and used
//!   greedily online (Algorithm 2): [`online::decide_online`] picks the rewrite
//!   without executing anything, so a server sends it to the database once;
//!   [`online::plan_online`] is that decision plus the measured execution time,
//!   for evaluation.
//!
//! The [`rewriter::QueryRewriter`] trait makes the MDP-based rewriter, the baselines
//! and Bao interchangeable inside the experiment harness, and [`metrics`] computes the
//! paper's two headline metrics (viable-query percentage and average query response
//! time).

pub mod agent;
pub mod config;
pub mod mdp;
pub mod metrics;
pub mod online;
pub mod quality_aware;
pub mod rewriter;
pub mod space;
#[cfg(test)]
pub(crate) mod testutil;
pub mod train;

pub use agent::{AgentError, QAgent, QScratch};
pub use config::MalivaConfig;
pub use mdp::{MdpState, PlanningEnv, RewardSpec};
pub use metrics::{evaluate_workload, QueryOutcome, WorkloadMetrics};
pub use online::{decide_online, plan_online, OnlineDecision, PlanningOutcome};
pub use quality_aware::{QualityAwareMode, QualityAwareRewriter};
pub use rewriter::{MalivaRewriter, QueryRewriter, RewriteDecision};
pub use space::RewriteSpace;
pub use train::{train_agent, TrainedAgent, TrainingReport};
