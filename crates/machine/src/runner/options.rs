//! Per-run configuration: the placement policy and the kernel knobs.

use super::window::WINDOW;
use ccnuma_core::{AdaptiveTrigger, DynamicPolicyKind, MissMetric, PolicyParams};
use ccnuma_faults::FaultSpec;
use ccnuma_kernel::{LockGranularity, ShootdownMode};
use ccnuma_types::{Ns, ShardPlan};
use std::fmt;

/// The page-placement policy for a run.
#[derive(Debug, Clone)]
pub enum PolicyChoice {
    /// First-touch static placement — the CC-NUMA default (the paper's
    /// baseline for Section 7).
    FirstTouch,
    /// Round-robin static placement.
    RoundRobin,
    /// The dynamic migration/replication policy.
    Dynamic {
        /// Table 1 parameters.
        params: PolicyParams,
        /// Mig-only, Repl-only, or the combined policy.
        kind: DynamicPolicyKind,
        /// Which miss events drive the policy.
        metric: MissMetric,
    },
}

impl PolicyChoice {
    /// First-touch baseline.
    pub fn first_touch() -> PolicyChoice {
        PolicyChoice::FirstTouch
    }

    /// Round-robin baseline.
    pub fn round_robin() -> PolicyChoice {
        PolicyChoice::RoundRobin
    }

    /// The paper's base policy driven by full cache-miss information.
    pub fn base_mig_rep(params: PolicyParams) -> PolicyChoice {
        PolicyChoice::Dynamic {
            params,
            kind: DynamicPolicyKind::MigRep,
            metric: MissMetric::full_cache(),
        }
    }

    /// Short label for tables and figures.
    pub fn label(&self) -> String {
        match self {
            PolicyChoice::FirstTouch => "FT".into(),
            PolicyChoice::RoundRobin => "RR".into(),
            PolicyChoice::Dynamic { kind, metric, .. } => kind.label(metric),
        }
    }
}

/// Options for one run.
#[derive(Clone)]
pub struct RunOptions {
    /// The placement policy.
    pub policy: PolicyChoice,
    /// Capture a full miss trace (needed to feed the policy simulator).
    pub capture_trace: bool,
    /// TLB shootdown strategy (§7.2.2 ablation).
    pub shootdown: ShootdownMode,
    /// Kernel lock granularity (locking ablation).
    pub granularity: LockGranularity,
    /// Hot pages collected per pager interrupt (batching ablation).
    pub batch_pages: usize,
    /// §7.2.2: use the directory controller's pipelined page copy.
    pub pipelined_copy: bool,
    /// §8.4: adapt the trigger threshold at reset-interval boundaries.
    pub adaptive: Option<AdaptiveTrigger>,
    /// Deterministic fault injection (chaos runs); `None` = no faults,
    /// which monomorphizes to the exact uninstrumented run path.
    pub faults: Option<FaultSpec>,
    /// Intra-run parallelism: how many host threads advance the
    /// simulated CPUs. Results are byte-identical at every shard count.
    pub shards: ShardPlan,
    /// Shard epoch window length in simulated microseconds; `None`
    /// uses the built-in default (100 µs). The window changes results,
    /// so unlike `shards` a non-default window is part of the run-cache
    /// key.
    pub window_us: Option<u64>,
}

/// Hand-written so the shard plan stays out of the debug rendering: run
/// cache keys and trace slugs are derived from `format!("{spec:?}")`,
/// and results are byte-identical at every shard count. The window does
/// change results (contention feedback is one window late), so it is
/// rendered, but only when it differs from the default: `None` and
/// `Some(100)` key alike, and every key made before the window joined
/// them stays valid.
impl fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("RunOptions");
        d.field("policy", &self.policy)
            .field("capture_trace", &self.capture_trace)
            .field("shootdown", &self.shootdown)
            .field("granularity", &self.granularity)
            .field("batch_pages", &self.batch_pages)
            .field("pipelined_copy", &self.pipelined_copy)
            .field("adaptive", &self.adaptive)
            .field("faults", &self.faults);
        if let Some(us) = self.window_us.filter(|&us| Ns::from_us(us) != WINDOW) {
            d.field("window_us", &us);
        }
        d.finish()
    }
}

impl RunOptions {
    /// Defaults: broadcast shootdown, fine locks, 4-page batches, no
    /// trace capture.
    pub fn new(policy: PolicyChoice) -> RunOptions {
        RunOptions {
            policy,
            capture_trace: false,
            shootdown: ShootdownMode::Broadcast,
            granularity: LockGranularity::Fine,
            batch_pages: 4,
            pipelined_copy: false,
            adaptive: None,
            faults: None,
            shards: ShardPlan::default(),
            window_us: None,
        }
    }

    /// Enables trace capture.
    #[must_use]
    pub fn with_trace(mut self) -> RunOptions {
        self.capture_trace = true;
        self
    }

    /// Sets the shootdown mode.
    #[must_use]
    pub fn with_shootdown(mut self, mode: ShootdownMode) -> RunOptions {
        self.shootdown = mode;
        self
    }

    /// Sets the lock granularity.
    #[must_use]
    pub fn with_granularity(mut self, granularity: LockGranularity) -> RunOptions {
        self.granularity = granularity;
        self
    }

    /// Sets the pager batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn with_batch_pages(mut self, batch: usize) -> RunOptions {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch_pages = batch;
        self
    }

    /// Enables the directory controller's pipelined page copy (§7.2.2).
    #[must_use]
    pub fn with_pipelined_copy(mut self) -> RunOptions {
        self.pipelined_copy = true;
        self
    }

    /// Enables adaptive trigger control (§8.4 future work). The
    /// controller starts from the dynamic policy's parameters and adjusts
    /// the trigger at every counter reset interval.
    #[must_use]
    pub fn with_adaptive(mut self, controller: AdaptiveTrigger) -> RunOptions {
        self.adaptive = Some(controller);
        self
    }

    /// Enables deterministic fault injection for this run. The fault
    /// streams are seeded from the workload seed and the spec's chaos
    /// seed, never from wall-clock time.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> RunOptions {
        self.faults = Some(faults);
        self
    }

    /// Sets the intra-run shard plan (host worker threads per run).
    /// Purely an execution hint: the report is byte-identical at every
    /// shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: ShardPlan) -> RunOptions {
        self.shards = shards;
        self
    }

    /// Sets the shard epoch window length in simulated microseconds.
    /// Unlike `shards`, the window size perturbs results
    /// (directory-contention feedback is one window late), so a
    /// non-default window joins the cache key, and comparative
    /// experiments should hold it fixed.
    ///
    /// # Panics
    ///
    /// Panics if `us` is zero.
    #[must_use]
    pub fn with_window_us(mut self, us: u64) -> RunOptions {
        assert!(us > 0, "window must be non-zero");
        self.window_us = Some(us);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_is_invisible_to_debug_and_cache_keys() {
        let a = RunOptions::new(PolicyChoice::first_touch());
        let b = RunOptions::new(PolicyChoice::first_touch()).with_shards(ShardPlan::new(8));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!format!("{b:?}").contains("shards"));
    }

    /// The window changes results, so a non-default window must key
    /// apart; the default keys like an unset window.
    #[test]
    fn only_a_non_default_window_joins_debug_and_cache_keys() {
        let key = |opts: RunOptions| format!("{opts:?}");
        let unset = key(RunOptions::new(PolicyChoice::first_touch()));
        let default = key(RunOptions::new(PolicyChoice::first_touch()).with_window_us(100));
        let other = key(RunOptions::new(PolicyChoice::first_touch()).with_window_us(250));
        assert_eq!(unset, default);
        assert!(!unset.contains("window"));
        assert!(other.contains("window_us: 250"), "{other}");
    }
}
