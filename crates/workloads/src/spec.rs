//! The bundle a machine run consumes.

use crate::{ProcessStream, Scheduler};
use ccnuma_types::MachineConfig;

/// Everything the machine simulator needs to run one workload: the
/// hardware configuration (the database workload uses 4 CPUs, splash
/// shrinks per-node memory to create pressure), the per-process reference
/// generators, the scheduler, the run length and the RNG seed.
pub struct WorkloadSpec {
    /// Workload name as printed in tables ("Engineering", ...).
    pub name: String,
    /// Machine configuration for this workload.
    pub config: MachineConfig,
    /// One stream per process; `streams[i]` belongs to `Pid(i)`.
    pub streams: Vec<ProcessStream>,
    /// The scheduling model.
    pub scheduler: Box<dyn Scheduler>,
    /// Total references to simulate across all CPUs.
    pub total_refs: u64,
    /// Seed for the workload's random reference choices.
    pub seed: u64,
    /// Total distinct pages in the workload (its memory footprint).
    pub footprint_pages: u64,
}

impl WorkloadSpec {
    /// One past the highest page any stream can reference: the largest
    /// segment end over all streams. Pages are handed out densely from 0
    /// by a [`PageSpace`](crate::PageSpace), so page-indexed machine
    /// state never grows past this many pages. Every catalog workload
    /// references its whole space, so this equals `footprint_pages`
    /// there.
    pub fn page_bound(&self) -> u64 {
        self.streams
            .iter()
            .map(ProcessStream::page_bound)
            .max()
            .unwrap_or(0)
    }

    /// Footprint in megabytes, using the config's page size.
    pub fn footprint_mb(&self) -> f64 {
        self.footprint_pages as f64 * self.config.page_size as f64 / (1024.0 * 1024.0)
    }
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("processes", &self.streams.len())
            .field("total_refs", &self.total_refs)
            .field("footprint_pages", &self.footprint_pages)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pinned, Segment};
    use ccnuma_types::{Pid, VirtPage};

    #[test]
    fn footprint_math() {
        let spec = WorkloadSpec {
            name: "t".into(),
            config: MachineConfig::cc_numa(),
            streams: vec![ProcessStream::new(
                Pid(0),
                vec![Segment::data("d", VirtPage(0), 256, 1.0, 0.0)],
            )],
            scheduler: Box::new(Pinned::one_per_cpu(1)),
            total_refs: 10,
            seed: 1,
            footprint_pages: 256,
        };
        assert_eq!(spec.footprint_mb(), 1.0);
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("processes: 1"));
    }
}
