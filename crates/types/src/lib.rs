//! Shared vocabulary types for the CC-NUMA data-locality reproduction.
//!
//! This crate defines the small, widely shared types used by every other
//! crate in the workspace: strongly typed identifiers ([`NodeId`],
//! [`ProcId`], [`VirtPage`], [`Frame`], ...), simulated time ([`Ns`]),
//! memory-access descriptors ([`AccessKind`], [`Mode`], [`RefClass`]) and
//! the machine configuration ([`MachineConfig`]) that mirrors the hardware
//! parameters of the paper's simulated FLASH machine (Section 5).
//!
//! # Examples
//!
//! ```
//! use ccnuma_types::{MachineConfig, NodeId, Ns};
//!
//! let cfg = MachineConfig::cc_numa();
//! assert_eq!(cfg.nodes, 8);
//! assert_eq!(cfg.local_latency, Ns(300));
//! assert_eq!(cfg.remote_latency, Ns(1200));
//! assert_eq!(cfg.node_of_proc(cfg.last_proc()), NodeId(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod config;
mod error;
mod fxhash;
mod ids;
mod procset;
mod shard;
mod time;
mod topology;

pub use access::{AccessKind, MemAccess, Mode, RefClass};
pub use config::{MachineConfig, NetworkKind};
pub use error::{ConfigError, SimError};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use ids::{Frame, NodeId, Pid, ProcId, VirtPage};
pub use procset::{ProcSet, ProcSetIter};
pub use shard::ShardPlan;
pub use time::Ns;
pub use topology::{MemClass, NodeMemory, StallTier, Topology, TopologyPreset};
