//! Results of a policy-simulator replay.

use ccnuma_core::PolicyStats;
use ccnuma_types::Ns;

/// The breakdown one bar of Figures 6–9 plots.
#[derive(Debug, Clone, PartialEq)]
pub struct PolsimReport {
    /// Policy label ("RR", "FT", "PF", "Migr", "Repl", "Mig/Rep").
    pub label: String,
    /// Cache misses satisfied locally.
    pub local_misses: u64,
    /// Cache misses that went remote.
    pub remote_misses: u64,
    /// Aggregate stall on local misses.
    pub local_stall: Ns,
    /// Aggregate stall on remote misses.
    pub remote_stall: Ns,
    /// Page-move overhead attributed to migrations.
    pub mig_overhead: Ns,
    /// Page-move overhead attributed to replications and collapses.
    pub rep_overhead: Ns,
    /// Migrations performed.
    pub migrations: u64,
    /// Replications performed.
    pub replications: u64,
    /// Collapses performed.
    pub collapses: u64,
    /// The constant non-miss component ("all other time").
    pub other_time: Ns,
    /// Decision-tree statistics for dynamic policies.
    pub policy_stats: Option<PolicyStats>,
}

impl PolsimReport {
    /// A report with nothing charged yet.
    pub(crate) fn empty(label: String, other_time: Ns) -> PolsimReport {
        PolsimReport {
            label,
            local_misses: 0,
            remote_misses: 0,
            local_stall: Ns::ZERO,
            remote_stall: Ns::ZERO,
            mig_overhead: Ns::ZERO,
            rep_overhead: Ns::ZERO,
            migrations: 0,
            replications: 0,
            collapses: 0,
            other_time,
            policy_stats: None,
        }
    }

    /// Total modelled execution time.
    pub fn total(&self) -> Ns {
        self.other_time
            + self.local_stall
            + self.remote_stall
            + self.mig_overhead
            + self.rep_overhead
    }

    /// Total stall time.
    pub fn stall(&self) -> Ns {
        self.local_stall + self.remote_stall
    }

    /// Percentage of misses satisfied locally (the number under each bar).
    pub fn pct_local_misses(&self) -> f64 {
        let total = self.local_misses + self.remote_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.local_misses as f64 / total as f64
        }
    }

    /// This run's total normalized to `base`'s total (Figure 6 normalizes
    /// to round-robin = 1.0).
    pub fn normalized_to(&self, base: &PolsimReport) -> f64 {
        if base.total() == Ns::ZERO {
            return 0.0;
        }
        self.total().0 as f64 / base.total().0 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(local: u64, remote: u64) -> PolsimReport {
        PolsimReport {
            label: "x".into(),
            local_misses: local,
            remote_misses: remote,
            local_stall: Ns(local * 300),
            remote_stall: Ns(remote * 1200),
            mig_overhead: Ns::ZERO,
            rep_overhead: Ns::ZERO,
            migrations: 0,
            replications: 0,
            collapses: 0,
            other_time: Ns(1000),
            policy_stats: None,
        }
    }

    #[test]
    fn totals_and_percentages() {
        let r = report(3, 1);
        assert_eq!(r.total(), Ns(1000 + 900 + 1200));
        assert_eq!(r.stall(), Ns(2100));
        assert_eq!(r.pct_local_misses(), 75.0);
    }

    #[test]
    fn normalization() {
        let base = report(0, 10); // total 1000 + 12000
        let better = report(10, 0); // total 1000 + 3000
        let n = better.normalized_to(&base);
        assert!((n - 4000.0 / 13000.0).abs() < 1e-12);
        assert_eq!(report(0, 0).pct_local_misses(), 0.0);
    }
}
