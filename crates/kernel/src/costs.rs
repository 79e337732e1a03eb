//! The per-step latency model behind Tables 5 and 6.
//!
//! Each pager operation walks the Figure 2 steps; every step charges a
//! cost from [`CostParams`] (plus modelled lock waits) and records it in
//! the [`CostBook`]. Table 5 is the book's per-operation averages by
//! step; Table 6 is the book's step totals as percentages of the total
//! kernel overhead.

use ccnuma_types::{MachineConfig, Ns};
use core::fmt;

/// The Figure 2 / Table 5 step names, plus the extra "Page Fault"
/// category Table 6 adds for the soft faults caused by changed mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagerStep {
    /// Taking and dispatching the pager interrupt (amortized per page).
    IntrProc,
    /// Reading counters and walking the decision tree.
    PolicyDecision,
    /// Allocating the destination frame (dominated by memlock contention).
    PageAlloc,
    /// Linking the new page into the hash/replica chain and updating PTEs.
    LinksMapping,
    /// Flushing TLBs (amortized per page across the batch).
    TlbFlush,
    /// Physically copying the page.
    PageCopy,
    /// Freeing old frames and setting final mappings.
    PolicyEnd,
    /// Subsequent soft page faults caused by the changed mappings.
    PageFault,
}

impl PagerStep {
    /// All steps, in Table 5 column order (PageFault last, Table 6 only).
    pub const ALL: [PagerStep; 8] = [
        PagerStep::IntrProc,
        PagerStep::PolicyDecision,
        PagerStep::PageAlloc,
        PagerStep::LinksMapping,
        PagerStep::TlbFlush,
        PagerStep::PageCopy,
        PagerStep::PolicyEnd,
        PagerStep::PageFault,
    ];

    fn index(self) -> usize {
        match self {
            PagerStep::IntrProc => 0,
            PagerStep::PolicyDecision => 1,
            PagerStep::PageAlloc => 2,
            PagerStep::LinksMapping => 3,
            PagerStep::TlbFlush => 4,
            PagerStep::PageCopy => 5,
            PagerStep::PolicyEnd => 6,
            PagerStep::PageFault => 7,
        }
    }
}

impl fmt::Display for PagerStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PagerStep::IntrProc => "Intr. Proc",
            PagerStep::PolicyDecision => "Policy Decision",
            PagerStep::PageAlloc => "Page Alloc",
            PagerStep::LinksMapping => "Links & Mapping",
            PagerStep::TlbFlush => "TLB Flush",
            PagerStep::PageCopy => "Page Copying",
            PagerStep::PolicyEnd => "Policy End",
            PagerStep::PageFault => "Page Fault",
        })
    }
}

/// Classes of pager operation tracked separately in the cost book.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Page migration.
    Migrate,
    /// Page replication.
    Replicate,
    /// Replica collapse on a write.
    Collapse,
    /// Repointing a stale mapping at an existing local copy.
    Remap,
}

impl OpClass {
    /// All classes.
    pub const ALL: [OpClass; 4] = [
        OpClass::Migrate,
        OpClass::Replicate,
        OpClass::Collapse,
        OpClass::Remap,
    ];

    fn index(self) -> usize {
        match self {
            OpClass::Migrate => 0,
            OpClass::Replicate => 1,
            OpClass::Collapse => 2,
            OpClass::Remap => 3,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpClass::Migrate => "Migr.",
            OpClass::Replicate => "Repl.",
            OpClass::Collapse => "Coll.",
            OpClass::Remap => "Remap",
        })
    }
}

/// Base costs for each pager step, calibrated so an 8-CPU CC-NUMA batch
/// lands in the paper's 400–500 µs-per-operation range with TLB flushing
/// and page allocation as the two largest overheads (Tables 5 and 6).
///
/// Data-movement and shootdown costs are derived from the machine's
/// remote latency, which is how the CC-NOW configuration's ~600 µs
/// per-operation cost (§7.1.3) emerges without separate tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostParams {
    /// Taking the low-priority pager interrupt (per batch).
    pub intr_batch: Ns,
    /// Walking the decision tree (per page).
    pub decision: Ns,
    /// Base frame-allocation cost excluding memlock waits (per page).
    pub page_alloc_base: Ns,
    /// How long an allocation holds memlock.
    pub memlock_hold_alloc: Ns,
    /// Base hash/PTE work for a replication (page-level lock only).
    pub links_repl_base: Ns,
    /// Base hash/PTE work for a migration (must take memlock).
    pub links_migr_base: Ns,
    /// How long migration's hash manipulation holds memlock.
    pub memlock_hold_links: Ns,
    /// How long replica-chain manipulation holds the page lock.
    pub page_lock_hold: Ns,
    /// Per-PTE update cost during links/mapping and policy-end.
    pub per_pte: Ns,
    /// Fixed cost of initiating a TLB flush (per batch).
    pub tlb_flush_batch: Ns,
    /// Per-CPU shootdown cost (IPI round trip; scales with remote latency).
    pub tlb_flush_per_cpu: Ns,
    /// Base page-copy cost (the processor's copy loop).
    pub copy_base: Ns,
    /// Per-cache-line transfer cost during the copy (remote latency).
    pub copy_per_line: Ns,
    /// Lines per page (from the machine config).
    pub lines_per_page: u32,
    /// Policy-end base for a replication (set all mappings to nearest).
    pub end_repl_base: Ns,
    /// Policy-end base for a migration (free old page, final mappings).
    pub end_migr_base: Ns,
    /// Cost of one soft page fault caused by a changed mapping.
    pub pfault: Ns,
    /// Cost of a remap operation (PTE fix plus local TLB invalidate).
    pub remap: Ns,
    /// §7.2.2: FLASH's directory controller can do a pipelined
    /// memory-to-memory copy in ~35 µs instead of the processor's
    /// unoptimized ~100 µs bcopy. When set,
    /// [`copy_cost`](CostParams::copy_cost) returns the pipelined figure.
    pub pipelined_copy: bool,
}

impl CostParams {
    /// Costs for the given machine; data movement and IPI costs follow the
    /// machine's remote latency. When a [`ccnuma_types::Topology`] is
    /// installed, `remote_latency` is its worst read path
    /// ([`ccnuma_types::Topology::max_read_latency`]), so these tables
    /// track the topology without further plumbing; the pager refines the
    /// per-copy charge to the actual hop path via
    /// [`CostParams::copy_cost_on_path`].
    pub fn for_machine(cfg: &MachineConfig) -> CostParams {
        CostParams {
            intr_batch: Ns::from_us(30),
            decision: Ns::from_us(13),
            page_alloc_base: Ns::from_us(55),
            memlock_hold_alloc: Ns::from_us(28),
            links_repl_base: Ns::from_us(26),
            links_migr_base: Ns::from_us(62),
            memlock_hold_links: Ns::from_us(30),
            page_lock_hold: Ns::from_us(8),
            per_pte: Ns::from_us(2),
            tlb_flush_batch: Ns::from_us(30),
            // An inter-processor interrupt, handler dispatch and ack per
            // victim CPU — the paper's dominant kernel overhead.
            tlb_flush_per_cpu: Ns::from_us(10) + cfg.remote_latency * 2,
            copy_base: Ns::from_us(55),
            copy_per_line: cfg.remote_latency,
            lines_per_page: cfg.lines_per_page(),
            end_repl_base: Ns::from_us(70),
            end_migr_base: Ns::from_us(58),
            pfault: Ns::from_us(25),
            remap: Ns::from_us(22),
            pipelined_copy: false,
        }
    }

    /// The full page-copy cost for one page, at the machine-wide
    /// worst-case per-line latency ([`CostParams::copy_per_line`]).
    pub fn copy_cost(&self) -> Ns {
        self.copy_cost_on_path(self.copy_per_line)
    }

    /// The page-copy cost over a specific topology path, where
    /// `per_line` is the destination node's read latency for one cache
    /// line from the source node. On the flat machine every off-node
    /// path reads at `remote_latency`, so this equals
    /// [`copy_cost`](CostParams::copy_cost); on hierarchical or
    /// CXL-tiered topologies a nearby source makes the copy cheaper and
    /// a far-tier source makes it dearer, line by line. The pipelined
    /// copy (§7.2.2) streams the page inside the directory controller
    /// and is indifferent to the path.
    pub fn copy_cost_on_path(&self, per_line: Ns) -> Ns {
        if self.pipelined_copy {
            // The MAGIC controller streams the page without involving
            // the processor (§7.2.2).
            Ns::from_us(35)
        } else {
            self.copy_base + per_line * self.lines_per_page as u64
        }
    }

    /// The TLB-flush cost for one batch when `cpus` TLBs must be flushed.
    pub fn tlb_flush_cost(&self, cpus: u32) -> Ns {
        self.tlb_flush_batch + self.tlb_flush_per_cpu * cpus as u64
    }
}

/// Accumulated pager costs: per (operation class, step) totals plus
/// operation counts — everything Tables 5 and 6 need.
///
/// Two kinds of charge exist: *per-operation* charges (the latency the
/// initiating CPU sees; Table 5 averages these) and *system* charges
/// (CPU time burned on other processors, e.g. every victim spinning in
/// the TLB-flush rendezvous; Table 6's totals include them, which is why
/// the paper reports TLB flushing as 34–54 % of kernel overhead even
/// though it is a modest slice of each operation's latency).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostBook {
    totals: [[Ns; 8]; 4],
    system: [Ns; 8],
    counts: [u64; 4],
}

impl CostBook {
    /// An empty book.
    pub fn new() -> CostBook {
        CostBook::default()
    }

    /// Charges `t` to (`op`, `step`) as initiator latency.
    pub fn add(&mut self, op: OpClass, step: PagerStep, t: Ns) {
        self.totals[op.index()][step.index()] += t;
    }

    /// Charges `t` of system-wide CPU time to `step` (time burned on
    /// processors other than the initiator).
    pub fn add_system(&mut self, step: PagerStep, t: Ns) {
        self.system[step.index()] += t;
    }

    /// System-wide CPU time charged to `step`.
    pub fn system_total(&self, step: PagerStep) -> Ns {
        self.system[step.index()]
    }

    /// Counts one completed operation of class `op`.
    pub fn count_op(&mut self, op: OpClass) {
        self.counts[op.index()] += 1;
    }

    /// Operations completed of class `op`.
    pub fn ops(&self, op: OpClass) -> u64 {
        self.counts[op.index()]
    }

    /// Total charged to (`op`, `step`).
    pub fn step_total(&self, op: OpClass, step: PagerStep) -> Ns {
        self.totals[op.index()][step.index()]
    }

    /// Table 5 cell: average per-operation latency of `step` for `op`.
    pub fn avg_step(&self, op: OpClass, step: PagerStep) -> Ns {
        let n = self.counts[op.index()];
        if n == 0 {
            Ns::ZERO
        } else {
            self.totals[op.index()][step.index()] / n
        }
    }

    /// Table 5 total column: average end-to-end latency per `op`.
    pub fn avg_total(&self, op: OpClass) -> Ns {
        let n = self.counts[op.index()];
        if n == 0 {
            return Ns::ZERO;
        }
        let sum: Ns = PagerStep::ALL
            .iter()
            .map(|s| self.totals[op.index()][s.index()])
            .sum();
        sum / n
    }

    /// Table 6 numerator: total kernel time in `step` across all classes,
    /// including system-wide (victim-CPU) time.
    pub fn total_by_step(&self, step: PagerStep) -> Ns {
        let per_op: Ns = OpClass::ALL
            .iter()
            .map(|op| self.totals[op.index()][step.index()])
            .sum();
        per_op + self.system[step.index()]
    }

    /// Total kernel overhead across all steps and classes.
    pub fn total(&self) -> Ns {
        PagerStep::ALL.iter().map(|s| self.total_by_step(*s)).sum()
    }

    /// Table 6 cell: `step`'s percentage of the total kernel overhead.
    pub fn pct_by_step(&self, step: PagerStep) -> f64 {
        let total = self.total();
        if total == Ns::ZERO {
            0.0
        } else {
            100.0 * self.total_by_step(step).0 as f64 / total.0 as f64
        }
    }

    /// Number of values in the [`to_raw_parts`](CostBook::to_raw_parts)
    /// flattening: the 4×8 initiator totals, 8 system-wide slices, and
    /// 4 op counts.
    pub const RAW_LEN: usize = 44;

    /// Flattens the book into a fixed-order `u64` array, the result
    /// store's exact run serialization surface.
    pub fn to_raw_parts(&self) -> [u64; CostBook::RAW_LEN] {
        let mut out = [0u64; CostBook::RAW_LEN];
        let mut i = 0;
        for op in 0..4 {
            for step in 0..8 {
                out[i] = self.totals[op][step].0;
                i += 1;
            }
        }
        for step in 0..8 {
            out[i] = self.system[step].0;
            i += 1;
        }
        for op in 0..4 {
            out[i] = self.counts[op];
            i += 1;
        }
        out
    }

    /// Rebuilds a book from a [`to_raw_parts`](CostBook::to_raw_parts)
    /// flattening.
    pub fn from_raw_parts(raw: [u64; CostBook::RAW_LEN]) -> CostBook {
        let mut book = CostBook::new();
        let mut i = 0;
        for op in 0..4 {
            for step in 0..8 {
                book.totals[op][step] = Ns(raw[i]);
                i += 1;
            }
        }
        for step in 0..8 {
            book.system[step] = Ns(raw[i]);
            i += 1;
        }
        for op in 0..4 {
            book.counts[op] = raw[i];
            i += 1;
        }
        book
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_parts_round_trip_exactly() {
        let mut book = CostBook::new();
        book.add(OpClass::Migrate, PagerStep::PageCopy, Ns(93_400));
        book.add_system(PagerStep::TlbFlush, Ns(12_000));
        book.count_op(OpClass::Migrate);
        book.count_op(OpClass::Replicate);
        let rebuilt = CostBook::from_raw_parts(book.to_raw_parts());
        assert_eq!(rebuilt, book);
        assert_eq!(rebuilt.total(), book.total());
    }

    #[test]
    fn copy_and_flush_scale_with_remote_latency() {
        let numa = CostParams::for_machine(&MachineConfig::cc_numa());
        let now = CostParams::for_machine(&MachineConfig::cc_now());
        assert!(now.copy_cost() > numa.copy_cost());
        assert!(now.tlb_flush_cost(8) > numa.tlb_flush_cost(8));
        // CC-NUMA copy ≈ 55 + 32×1.2 = 93.4 µs — the paper's ~100 µs bcopy.
        let us = numa.copy_cost().as_us();
        assert!((85.0..110.0).contains(&us), "copy cost {us} µs");
    }

    #[test]
    fn pipelined_copy_is_35us() {
        let mut p = CostParams::for_machine(&MachineConfig::cc_numa());
        let slow = p.copy_cost();
        p.pipelined_copy = true;
        assert_eq!(p.copy_cost(), Ns::from_us(35));
        assert!(p.copy_cost() < slow);
    }

    #[test]
    fn targeted_flush_is_cheaper() {
        let p = CostParams::for_machine(&MachineConfig::cc_numa());
        assert!(p.tlb_flush_cost(2) < p.tlb_flush_cost(8));
    }

    #[test]
    fn book_averages() {
        let mut b = CostBook::new();
        b.add(OpClass::Migrate, PagerStep::PageCopy, Ns::from_us(100));
        b.add(OpClass::Migrate, PagerStep::PageCopy, Ns::from_us(50));
        b.count_op(OpClass::Migrate);
        b.count_op(OpClass::Migrate);
        assert_eq!(b.ops(OpClass::Migrate), 2);
        assert_eq!(
            b.avg_step(OpClass::Migrate, PagerStep::PageCopy),
            Ns::from_us(75)
        );
        assert_eq!(b.avg_total(OpClass::Migrate), Ns::from_us(75));
        assert_eq!(b.avg_total(OpClass::Replicate), Ns::ZERO);
    }

    #[test]
    fn book_step_percentages() {
        let mut b = CostBook::new();
        b.add(OpClass::Migrate, PagerStep::TlbFlush, Ns::from_us(60));
        b.add(OpClass::Replicate, PagerStep::TlbFlush, Ns::from_us(40));
        b.add(OpClass::Replicate, PagerStep::PageAlloc, Ns::from_us(100));
        assert_eq!(b.total_by_step(PagerStep::TlbFlush), Ns::from_us(100));
        assert_eq!(b.total(), Ns::from_us(200));
        assert_eq!(b.pct_by_step(PagerStep::TlbFlush), 50.0);
        assert_eq!(b.pct_by_step(PagerStep::PageCopy), 0.0);
    }

    #[test]
    fn system_charges_count_in_totals_not_averages() {
        let mut b = CostBook::new();
        b.add(OpClass::Migrate, PagerStep::TlbFlush, Ns::from_us(30));
        b.count_op(OpClass::Migrate);
        b.add_system(PagerStep::TlbFlush, Ns::from_us(300));
        assert_eq!(
            b.avg_step(OpClass::Migrate, PagerStep::TlbFlush),
            Ns::from_us(30)
        );
        assert_eq!(b.total_by_step(PagerStep::TlbFlush), Ns::from_us(330));
        assert_eq!(b.system_total(PagerStep::TlbFlush), Ns::from_us(300));
        assert_eq!(b.total(), Ns::from_us(330));
    }

    #[test]
    fn empty_book_is_zero() {
        let b = CostBook::new();
        assert_eq!(b.total(), Ns::ZERO);
        assert_eq!(b.pct_by_step(PagerStep::TlbFlush), 0.0);
    }

    #[test]
    fn step_display_matches_paper_headers() {
        assert_eq!(PagerStep::LinksMapping.to_string(), "Links & Mapping");
        assert_eq!(PagerStep::TlbFlush.to_string(), "TLB Flush");
        assert_eq!(OpClass::Migrate.to_string(), "Migr.");
    }
}
