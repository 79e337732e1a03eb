//! Miss-information metrics (Section 8.3).
//!
//! Full cache-miss information requires directory-controller support
//! (FLASH's MAGIC); many machines only have software-reloaded TLBs. The
//! paper evaluates four metrics — full cache (FC), sampled cache (SC),
//! full TLB (FT), sampled TLB (ST) — and finds SC ≈ FC while TLB metrics
//! are inconsistent.

use ccnuma_trace::{MissRecord, MissSource, Sampler};
use core::fmt;

/// Which miss events drive the policy, and at what sampling rate.
///
/// A metric is a stateful filter over a miss stream:
/// [`admits`](MissMetric::admits) returns `true` for events the policy
/// should count.
///
/// # Examples
///
/// ```
/// use ccnuma_core::MissMetric;
/// use ccnuma_trace::MissRecord;
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
///
/// let mut sc = MissMetric::sampled_cache(10);
/// let cache_miss = MissRecord::user_data_read(Ns(0), ProcId(0), Pid(0), VirtPage(1));
/// let admitted = (0..20).filter(|_| sc.admits(&cache_miss)).count();
/// assert_eq!(admitted, 2);
/// // TLB misses never drive a cache metric.
/// assert!(!sc.admits(&cache_miss.as_tlb()));
/// ```
#[derive(Debug, Clone)]
pub struct MissMetric {
    source: MissSource,
    sampler: Option<Sampler>,
    label: &'static str,
}

impl MissMetric {
    /// Full cache-miss information (FC) — every secondary-cache miss.
    pub fn full_cache() -> MissMetric {
        MissMetric {
            source: MissSource::Cache,
            sampler: None,
            label: "FC",
        }
    }

    /// Sampled cache misses (SC), counting 1 in `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn sampled_cache(rate: u32) -> MissMetric {
        MissMetric {
            source: MissSource::Cache,
            sampler: Some(Sampler::new(rate)),
            label: "SC",
        }
    }

    /// Full TLB-miss information (FT).
    pub fn full_tlb() -> MissMetric {
        MissMetric {
            source: MissSource::Tlb,
            sampler: None,
            label: "FT",
        }
    }

    /// Sampled TLB misses (ST), counting 1 in `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn sampled_tlb(rate: u32) -> MissMetric {
        MissMetric {
            source: MissSource::Tlb,
            sampler: Some(Sampler::new(rate)),
            label: "ST",
        }
    }

    /// The four metrics of Figure 8, with the paper's 1:10 sampling.
    pub fn figure8_set() -> [MissMetric; 4] {
        [
            MissMetric::full_cache(),
            MissMetric::sampled_cache(10),
            MissMetric::full_tlb(),
            MissMetric::sampled_tlb(10),
        ]
    }

    /// The miss source this metric listens to.
    pub fn source(&self) -> MissSource {
        self.source
    }

    /// The short label used in Figure 8 ("FC", "SC", "FT", "ST").
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Sampling rate (1 means full information).
    pub fn rate(&self) -> u32 {
        self.sampler.as_ref().map_or(1, Sampler::rate)
    }

    /// Whether this record should drive the policy. Events of the wrong
    /// source are rejected without advancing the sampler's phase.
    #[inline]
    pub fn admits(&mut self, record: &MissRecord) -> bool {
        if record.source != self.source {
            return false;
        }
        match &mut self.sampler {
            None => true,
            Some(s) => s.admit(),
        }
    }
}

impl fmt::Display for MissMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rate() == 1 {
            f.write_str(self.label)
        } else {
            write!(f, "{} (1:{})", self.label, self.rate())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_types::{Ns, Pid, ProcId, VirtPage};

    fn cache_rec(t: u64) -> MissRecord {
        MissRecord::user_data_read(Ns(t), ProcId(0), Pid(0), VirtPage(1))
    }

    #[test]
    fn full_cache_admits_all_cache_misses() {
        let mut m = MissMetric::full_cache();
        assert!((0..10).all(|t| m.admits(&cache_rec(t))));
        assert!(!m.admits(&cache_rec(11).as_tlb()));
    }

    #[test]
    fn full_tlb_admits_only_tlb() {
        let mut m = MissMetric::full_tlb();
        assert!(!m.admits(&cache_rec(0)));
        assert!(m.admits(&cache_rec(0).as_tlb()));
    }

    #[test]
    fn sampling_phase_not_burned_by_wrong_source() {
        let mut m = MissMetric::sampled_cache(2);
        assert!(m.admits(&cache_rec(0))); // admitted (phase 0)
        assert!(!m.admits(&cache_rec(1).as_tlb())); // wrong source, no phase change
        assert!(!m.admits(&cache_rec(2))); // phase 1: skipped
        assert!(m.admits(&cache_rec(3))); // phase 0 again
    }

    #[test]
    fn figure8_set_labels_and_rates() {
        let set = MissMetric::figure8_set();
        let labels: Vec<&str> = set.iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["FC", "SC", "FT", "ST"]);
        assert_eq!(set[0].rate(), 1);
        assert_eq!(set[1].rate(), 10);
        assert_eq!(set[3].rate(), 10);
        assert_eq!(set[1].to_string(), "SC (1:10)");
        assert_eq!(set[0].to_string(), "FC");
    }

    #[test]
    fn sampled_tlb_counts_one_in_n() {
        let mut m = MissMetric::sampled_tlb(5);
        let admitted = (0..25)
            .filter(|&t| m.admits(&cache_rec(t).as_tlb()))
            .count();
        assert_eq!(admitted, 5);
    }
}
