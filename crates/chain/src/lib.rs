//! # confide-chain
//!
//! The minimal modular consortium platform CONFIDE plugs into (DESIGN.md
//! §2), on the `confide-sim` discrete-event engine: the production PBFT
//! [`confide_consensus::Replica`] per simulated node, transaction pools
//! with the pre-verification pipeline of paper §5.2 (Figure 7), and a
//! parallel execution scheduler (the 4-way/6-way execution of §6.2).
//!
//! The consensus is deliberately the *ordering* service only — execution is
//! pluggable (public engine vs. Confidential-Engine), storage is pluggable,
//! matching the paper's "loosely coupling with blockchain platform" design
//! principle (§2.4).
//!
//! The evaluation (like the paper's) measures the fault-free path: no
//! crashes, partitions or Byzantine members, so the replicas never change
//! view. The ordering rules themselves are the wire cluster's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pbft;
pub mod sched;
pub mod types;

pub use pbft::{ChainConfig, ChainReport, ChainSim};
pub use sched::{assign, conflict_groups, makespan, worker_loads, SchedError};
pub use types::{SimTx, TxClass};
