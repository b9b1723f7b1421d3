//! The deep-Q-learning agent: Q-network, replay memory and exploration schedule.

mod epsilon;
mod qnetwork;
mod replay;

pub use epsilon::EpsilonSchedule;
pub use qnetwork::{AgentError, QAgent, QScratch};
pub use replay::{Experience, ReplayMemory};
