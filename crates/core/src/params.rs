//! Policy parameters (Table 1) and policy kind selection.

use crate::MissMetric;
use ccnuma_trace::MissSource;
use ccnuma_types::Ns;
use core::fmt;

/// Which dynamic actions a [`crate::PolicyEngine`] may take.
///
/// Section 8.1 compares *migration only* (Migr), *replication only* (Repl)
/// and the combined policy (Mig/Rep); the restricted kinds simply disable
/// one branch of the decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DynamicPolicyKind {
    /// Only the migration branch is enabled.
    MigrationOnly,
    /// Only the replication branch is enabled.
    ReplicationOnly,
    /// Both branches enabled — the paper's base policy.
    #[default]
    MigRep,
}

impl DynamicPolicyKind {
    /// Whether the migration branch is enabled.
    #[inline]
    pub fn allows_migration(self) -> bool {
        !matches!(self, DynamicPolicyKind::ReplicationOnly)
    }

    /// Whether the replication branch is enabled.
    #[inline]
    pub fn allows_replication(self) -> bool {
        !matches!(self, DynamicPolicyKind::MigrationOnly)
    }

    /// The label of this kind driven by `metric`, as tables and figures
    /// print it: the kind, plus ` [metric]` unless the metric is full
    /// cache-miss information.
    pub fn label(self, metric: &MissMetric) -> String {
        if metric.rate() == 1 && metric.source() == MissSource::Cache {
            self.to_string()
        } else {
            format!("{self} [{metric}]")
        }
    }
}

impl fmt::Display for DynamicPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DynamicPolicyKind::MigrationOnly => "Migr",
            DynamicPolicyKind::ReplicationOnly => "Repl",
            DynamicPolicyKind::MigRep => "Mig/Rep",
        })
    }
}

/// The key policy parameters of Table 1.
///
/// Counters approximate rates via a periodic reset: every
/// [`reset_interval`](PolicyParams::reset_interval) all per-page counters
/// are cleared. Within an interval:
///
/// * a page is **hot** when one processor's miss counter reaches
///   [`trigger_threshold`](PolicyParams::trigger_threshold);
/// * it is **shared** when any *other* processor's counter has exceeded
///   [`sharing_threshold`](PolicyParams::sharing_threshold);
/// * it may be replicated only while its write counter is below
///   [`write_threshold`](PolicyParams::write_threshold);
/// * it may be migrated only while its migrate counter is below
///   [`migrate_threshold`](PolicyParams::migrate_threshold).
///
/// # Examples
///
/// ```
/// use ccnuma_core::PolicyParams;
/// use ccnuma_types::Ns;
///
/// let base = PolicyParams::base();
/// assert_eq!(base.trigger_threshold, 128);
/// assert_eq!(base.sharing_threshold, 32); // a quarter of the trigger
/// assert_eq!(base.reset_interval, Ns::from_ms(100));
///
/// // Section 7 uses trigger 96 for the engineering workload.
/// let engr = PolicyParams::engineering();
/// assert_eq!(engr.trigger_threshold, 96);
/// assert_eq!(engr.sharing_threshold, 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyParams {
    /// Time after which all counters are reset.
    pub reset_interval: Ns,
    /// Misses after which a page is considered hot and a decision triggers.
    pub trigger_threshold: u32,
    /// Misses from another processor making a page a replication candidate.
    pub sharing_threshold: u32,
    /// Writes after which a page is not considered for replication.
    pub write_threshold: u32,
    /// Migrations after which a page is not considered for migration.
    pub migrate_threshold: u32,
    /// §7.1.2 extension ("we are considering modifying our policy to
    /// migrate even write-shared pages"): when set, a hot write-shared page
    /// that fails the replication test is migrated to the hottest node to
    /// spread memory-system load.
    pub hotspot_migrate: bool,
    /// Saturation value of the per-processor miss counters. The paper's
    /// hardware uses 1-byte counters (cap 255); §7.2.1 proposes half-size
    /// counters under sampling (cap 15). A cap below the trigger makes the
    /// policy inert — the §7.2.1 accuracy/space tradeoff.
    pub counter_cap: u32,
    /// Freeze/defrost damping from the non-cache-coherent NUMA systems the
    /// paper cites (\\[CoF89\\], \\[LEK91\\]): after a collapse, the page is
    /// *frozen* — not considered for replication — for this many further
    /// reset intervals. Zero (the paper's policy) relies on the write
    /// threshold alone.
    pub freeze_intervals: u32,
}

impl PolicyParams {
    /// The paper's *base policy*: trigger 128, sharing = trigger/4,
    /// write and migrate thresholds 1, reset interval 100 ms.
    pub fn base() -> PolicyParams {
        PolicyParams {
            reset_interval: Ns::from_ms(100),
            trigger_threshold: 128,
            sharing_threshold: 32,
            write_threshold: 1,
            migrate_threshold: 1,
            hotspot_migrate: false,
            counter_cap: 255,
            freeze_intervals: 0,
        }
    }

    /// The base policy with the trigger of 96 used for the engineering
    /// workload in Section 7.
    pub fn engineering() -> PolicyParams {
        PolicyParams::base().with_trigger(96)
    }

    /// Sets the trigger threshold, keeping the paper's convention that the
    /// sharing threshold is a quarter of the trigger (Figure 9).
    ///
    /// # Panics
    ///
    /// Panics if `trigger` is zero.
    #[must_use]
    pub fn with_trigger(mut self, trigger: u32) -> PolicyParams {
        assert!(trigger > 0, "trigger threshold must be non-zero");
        self.trigger_threshold = trigger;
        self.sharing_threshold = (trigger / 4).max(1);
        self
    }

    /// Sets the sharing threshold independently (the §8.4 sensitivity
    /// study varies it while holding the trigger fixed).
    #[must_use]
    pub fn with_sharing(mut self, sharing: u32) -> PolicyParams {
        self.sharing_threshold = sharing;
        self
    }

    /// Sets the write threshold.
    #[must_use]
    pub fn with_write_threshold(mut self, writes: u32) -> PolicyParams {
        self.write_threshold = writes;
        self
    }

    /// Sets the migrate threshold.
    #[must_use]
    pub fn with_migrate_threshold(mut self, migrates: u32) -> PolicyParams {
        self.migrate_threshold = migrates;
        self
    }

    /// Sets the counter reset interval.
    #[must_use]
    pub fn with_reset_interval(mut self, interval: Ns) -> PolicyParams {
        self.reset_interval = interval;
        self
    }

    /// Enables the §7.1.2 hotspot extension (migrate write-shared pages).
    #[must_use]
    pub fn with_hotspot_migrate(mut self, enabled: bool) -> PolicyParams {
        self.hotspot_migrate = enabled;
        self
    }

    /// Sets the miss-counter saturation value (255 models the paper's
    /// 1-byte counters; 15 models half-size counters under sampling).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_counter_cap(mut self, cap: u32) -> PolicyParams {
        assert!(cap > 0, "counter cap must be non-zero");
        self.counter_cap = cap;
        self
    }

    /// Sets the freeze duration (in reset intervals) applied to a page
    /// after its replicas collapse.
    #[must_use]
    pub fn with_freeze_intervals(mut self, intervals: u32) -> PolicyParams {
        self.freeze_intervals = intervals;
        self
    }

    /// The reset epoch containing instant `now` (counters are cleared when
    /// the epoch advances).
    #[inline]
    pub fn epoch_of(&self, now: Ns) -> u64 {
        debug_assert!(self.reset_interval > Ns::ZERO);
        now.0 / self.reset_interval.0
    }
}

impl Default for PolicyParams {
    fn default() -> PolicyParams {
        PolicyParams::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_paper() {
        let p = PolicyParams::base();
        assert_eq!(p.trigger_threshold, 128);
        assert_eq!(p.sharing_threshold, 32);
        assert_eq!(p.write_threshold, 1);
        assert_eq!(p.migrate_threshold, 1);
        assert_eq!(p.reset_interval, Ns::from_ms(100));
        assert!(!p.hotspot_migrate);
        assert_eq!(p.counter_cap, 255, "1-byte hardware counters");
    }

    #[test]
    fn with_trigger_scales_sharing() {
        for t in [32u32, 64, 96, 128, 256] {
            let p = PolicyParams::base().with_trigger(t);
            assert_eq!(p.sharing_threshold, (t / 4).max(1));
        }
        // tiny triggers keep sharing at least 1
        assert_eq!(PolicyParams::base().with_trigger(2).sharing_threshold, 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_trigger_rejected() {
        let _ = PolicyParams::base().with_trigger(0);
    }

    #[test]
    fn epoch_advances_every_interval() {
        let p = PolicyParams::base();
        assert_eq!(p.epoch_of(Ns::ZERO), 0);
        assert_eq!(p.epoch_of(Ns::from_ms(99)), 0);
        assert_eq!(p.epoch_of(Ns::from_ms(100)), 1);
        assert_eq!(p.epoch_of(Ns::from_ms(250)), 2);
    }

    #[test]
    fn kind_branch_predicates() {
        use DynamicPolicyKind::*;
        assert!(MigRep.allows_migration() && MigRep.allows_replication());
        assert!(MigrationOnly.allows_migration() && !MigrationOnly.allows_replication());
        assert!(!ReplicationOnly.allows_migration() && ReplicationOnly.allows_replication());
        assert_eq!(MigRep.to_string(), "Mig/Rep");
        assert_eq!(MigrationOnly.to_string(), "Migr");
        assert_eq!(ReplicationOnly.to_string(), "Repl");
    }

    #[test]
    fn builder_setters_compose() {
        let p = PolicyParams::base()
            .with_sharing(7)
            .with_write_threshold(3)
            .with_migrate_threshold(5)
            .with_reset_interval(Ns::from_ms(50))
            .with_hotspot_migrate(true);
        assert_eq!(p.sharing_threshold, 7);
        assert_eq!(p.write_threshold, 3);
        assert_eq!(p.migrate_threshold, 5);
        assert_eq!(p.reset_interval, Ns::from_ms(50));
        assert!(p.hotspot_migrate);
    }
}
