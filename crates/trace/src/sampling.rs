//! Deterministic 1-in-N sampling.

/// A deterministic count-based sampler that admits one event in every `n`.
///
/// This mirrors the paper's instrumentation of the MAGIC software handlers:
/// "we use sampling, and count only one in ten invocations" (§7.2.1).
/// Determinism keeps simulation runs reproducible; §8.3 shows a 1:10
/// sampled-cache metric performs identically to full information.
///
/// # Examples
///
/// ```
/// use ccnuma_trace::Sampler;
///
/// let mut s = Sampler::new(3);
/// let admitted: Vec<bool> = (0..6).map(|_| s.admit()).collect();
/// assert_eq!(admitted, [true, false, false, true, false, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sampler {
    rate: u32,
    count: u32,
}

impl Sampler {
    /// Creates a sampler admitting 1 event in `rate`. A rate of 1 admits
    /// everything (the "full information" metric).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn new(rate: u32) -> Sampler {
        assert!(rate > 0, "sampling rate must be non-zero");
        Sampler { rate, count: 0 }
    }

    /// The configured rate.
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// Returns `true` if this event is admitted (counted), advancing the
    /// sampler's phase.
    #[inline]
    pub fn admit(&mut self) -> bool {
        let hit = self.count == 0;
        self.count += 1;
        if self.count == self.rate {
            self.count = 0;
        }
        hit
    }

    /// Resets the phase so the next event is admitted.
    pub fn reset(&mut self) {
        self.count = 0;
    }
}

impl Default for Sampler {
    /// The paper's 1:10 sampling rate.
    fn default() -> Sampler {
        Sampler::new(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_exactly_one_in_n() {
        let mut s = Sampler::new(10);
        let admitted = (0..1000).filter(|_| s.admit()).count();
        assert_eq!(admitted, 100);
    }

    #[test]
    fn rate_one_admits_all() {
        let mut s = Sampler::new(1);
        assert!((0..50).all(|_| s.admit()));
    }

    #[test]
    fn reset_restores_phase() {
        let mut s = Sampler::new(4);
        assert!(s.admit());
        assert!(!s.admit());
        s.reset();
        assert!(s.admit());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rate_panics() {
        let _ = Sampler::new(0);
    }

    #[test]
    fn default_is_paper_rate() {
        assert_eq!(Sampler::default().rate(), 10);
    }
}
