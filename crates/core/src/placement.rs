//! Static page-placement baselines (Section 8.1).
//!
//! The paper compares its dynamic policy against three static allocation
//! strategies: round-robin (equivalent to random allocation), first-touch
//! (the CC-NUMA default), and post-facto — "the best possible static
//! allocation case", computed with perfect future knowledge of the miss
//! trace. None of them ever moves a page, so the policy simulator prices
//! them from a one-pass profile of the trace rather than replaying them
//! (`ccnuma_polsim::StaticProfile`); this crate only names them.

use core::fmt;

/// Tag for the three static baselines, used when labelling results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticPolicyKind {
    /// Pages are dealt to nodes cyclically.
    RoundRobin,
    /// A page lives on the node that first touches it.
    FirstTouch,
    /// Each page lives on the node that will take the most misses to it.
    PostFacto,
}

impl fmt::Display for StaticPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StaticPolicyKind::RoundRobin => "RR",
            StaticPolicyKind::FirstTouch => "FT",
            StaticPolicyKind::PostFacto => "PF",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        assert_eq!(StaticPolicyKind::RoundRobin.to_string(), "RR");
        assert_eq!(StaticPolicyKind::FirstTouch.to_string(), "FT");
        assert_eq!(StaticPolicyKind::PostFacto.to_string(), "PF");
    }
}
