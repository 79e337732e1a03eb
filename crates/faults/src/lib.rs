//! Deterministic fault injection and stress for the CC-NUMA simulator.
//!
//! The paper's policy is explicitly a *degradation* policy: replication
//! throttles and replicas are reclaimed when a node runs out of free
//! frames, and the pager must stay correct while page operations fail
//! mid-flight. This crate supplies the stress that exercises those
//! paths, deterministically:
//!
//! * [`FaultInjector`] — the trait the machine runner and kernel pager
//!   are generic over, mirroring `ccnuma-obs`'s `Recorder`. Hooks decide
//!   whether a page-copy aborts, an allocation fails, a shootdown ack is
//!   delayed, a pager interrupt is lost, or a miss counter saturates,
//!   and emit memory-pressure [`StormCmd`]s.
//! * [`NullFaults`] — the `ENABLED = false` no-op; the fault-free build
//!   monomorphizes to exactly the pre-fault code.
//! * [`FaultPlan`] — a seeded implementation whose decision streams are
//!   pure functions of the workload seed and a chaos seed (never
//!   wall-clock), one independent stream per fault class.
//! * [`FaultScenario`] / [`FaultSpec`] / [`FaultConfig`] — the shipped
//!   named scenarios (`pressure-storm`, `copy-flake`, `ack-storm`,
//!   `intr-loss`, `counter-sat`, `chaos`), the per-run selection that
//!   keys the executor cache, and the raw rate knobs for custom stress
//!   tests.
//! * [`FaultEvent`] / [`FaultStats`] — what fired, for the audit log
//!   and the run report's degradation summary.
//! * [`io`] — the same discipline for the *host* pipeline: artifact
//!   writers are generic over [`Storage`], whose null layer
//!   ([`DiskStorage`]) is plain `std::fs` and whose faulty layer
//!   ([`FaultyStorage`] + [`IoFaults`]) injects seeded write failures,
//!   ENOSPC, torn writes, silent bit flips and slow-I/O delays.
//!
//! # Examples
//!
//! ```
//! use ccnuma_faults::{FaultInjector, FaultOp, FaultPlan, FaultScenario, FaultSpec};
//! use ccnuma_types::{Ns, VirtPage};
//!
//! let spec = FaultSpec { scenario: FaultScenario::CopyFlake, chaos_seed: 7 };
//! let mut a = FaultPlan::from_spec(spec, 0xBEEF, 8);
//! let mut b = FaultPlan::from_spec(spec, 0xBEEF, 8);
//! for i in 0..100 {
//!     let now = Ns(i * 500);
//!     assert_eq!(
//!         a.page_op_fails(now, FaultOp::Migrate, VirtPage(i)),
//!         b.page_op_fails(now, FaultOp::Migrate, VirtPage(i)),
//!     );
//! }
//! assert_eq!(a.stats(), b.stats());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod injector;
pub mod io;
mod plan;

pub use event::{FaultEvent, FaultKind, FaultStats};
pub use injector::{FaultInjector, FaultOp, NullFaults, StormCmd};
pub use io::{
    atomic_write, is_transient, retry_io, DiskStorage, FaultyStorage, IoFaultConfig, IoFaultKind,
    IoFaults, IoStats, RetryPolicy, Storage,
};
pub use plan::{FaultConfig, FaultPlan, FaultScenario, FaultSpec};
