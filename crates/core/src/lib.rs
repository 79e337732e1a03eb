//! Dynamic page migration and replication policy for CC-NUMA machines.
//!
//! This crate is the paper's primary contribution (Verghese, Devine, Gupta
//! & Rosenblum, *Operating System Support for Improving Data Locality on
//! CC-NUMA Compute Servers*, ASPLOS 1996): a policy that watches per-page
//! per-processor cache-miss counts and decides, on each counted miss,
//! whether to **migrate** a hot page to the missing processor's node,
//! **replicate** it there, **collapse** its replicas on a write, or do
//! nothing (Figure 1 of the paper).
//!
//! The main types:
//!
//! * [`PolicyParams`] — the Table 1 parameters (reset interval and the
//!   trigger, sharing, write, migrate thresholds);
//! * [`PolicyEngine`] — the decision tree plus the per-page counter state,
//!   producing [`PolicyAction`]s and keeping the Table 4 action statistics;
//! * [`PageLocation`] — the placement facts the decision needs (is the
//!   accessor's mapping local? does a local copy exist? is it replicated?);
//! * [`StaticPolicyKind`] — the static baselines: round-robin,
//!   first-touch and the clairvoyant post-facto placement (Section 8.1);
//! * [`MissMetric`] — which hardware events drive the policy: full or
//!   sampled cache misses, full or sampled TLB misses (Section 8.3);
//! * [`overhead`] — the Section 7.2.1 counter-space-overhead analytics.
//!
//! # Examples
//!
//! Drive the engine by hand and watch a read-shared page become a
//! replication candidate:
//!
//! ```
//! use ccnuma_core::{DynamicPolicyKind, ObservedMiss, PageLocation, PolicyAction,
//!                   PolicyEngine, PolicyParams};
//! use ccnuma_types::{NodeId, Ns, ProcId, VirtPage};
//!
//! let params = PolicyParams::base().with_trigger(4);
//! let mut engine = PolicyEngine::new(params, DynamicPolicyKind::MigRep);
//! let page = VirtPage(0x10);
//! let remote = PageLocation::master_only(NodeId(0), /*accessor node*/ NodeId(1));
//!
//! // Two processors read the page; p1's mapping is remote.
//! let mut action = PolicyAction::nothing_not_hot();
//! for t in 0..4 {
//!     let miss = ObservedMiss::read(Ns(t), ProcId(0), NodeId(0), page);
//!     engine.observe(page.index(), miss, &PageLocation::master_only(NodeId(0), NodeId(0)), false);
//!     let miss = ObservedMiss::read(Ns(t), ProcId(1), NodeId(1), page);
//!     action = engine.observe(page.index(), miss, &remote, false);
//! }
//! // p1 hit the trigger; p0 shares the page, so the page is replicated.
//! assert_eq!(action, PolicyAction::Replicate { at: NodeId(1) });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod counters;
mod engine;
mod location;
mod metric;
pub mod overhead;
mod params;
mod placement;

pub use adaptive::{AdaptiveTrigger, IntervalFeedback};
pub use counters::{CounterTable, PageCounters, PageCountersView};
pub use engine::{NoActionReason, ObservedMiss, PolicyAction, PolicyEngine, PolicyStats};
pub use location::PageLocation;
pub use metric::MissMetric;
pub use params::{DynamicPolicyKind, PolicyParams};
pub use placement::StaticPolicyKind;
