//! The pager interrupt handler (Figure 2).
//!
//! The directory controller batches hot pages and raises a low-priority
//! interrupt; the handler iterates steps 3–5 per page, performs **one**
//! TLB flush for the whole batch, then finishes with copy and policy-end
//! per page. Every step charges the [`CostBook`] so Tables 5 and 6 fall
//! out of a run.

use crate::costs::OpClass;
use crate::{
    CostBook, CostParams, FrameAllocator, LockGranularity, LockId, LockModel, PageHash, PageTables,
    PagerStep,
};
use ccnuma_core::PageLocation;
use ccnuma_faults::{FaultInjector, FaultOp, NullFaults};
use ccnuma_types::{Frame, MachineConfig, NodeId, Ns, Pid, Topology, VirtPage};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How TLB shootdowns pick their victim CPUs.
///
/// IRIX has no record of which processors hold a mapping, so it must flush
/// every TLB; §7.2.2 simulates tracking mapping holders and flushing only
/// those, reporting ~25 % lower kernel overhead (2 of 8 TLBs on average).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShootdownMode {
    /// Flush all TLBs in the machine (stock IRIX).
    #[default]
    Broadcast,
    /// Flush only CPUs whose processes map the affected pages.
    Targeted,
}

/// Configuration for a [`Pager`].
#[derive(Debug, Clone)]
pub struct PagerConfig {
    /// The machine being managed.
    pub machine: MachineConfig,
    /// Step-cost parameters (defaults derived from the machine).
    pub costs: CostParams,
    /// TLB shootdown strategy.
    pub shootdown: ShootdownMode,
    /// Lock granularity for replica-chain manipulation.
    pub granularity: LockGranularity,
}

impl PagerConfig {
    /// The paper's kernel on the given machine: broadcast shootdown and
    /// the added page-level (fine) locks.
    pub fn for_machine(machine: MachineConfig) -> PagerConfig {
        PagerConfig {
            costs: CostParams::for_machine(&machine),
            shootdown: ShootdownMode::Broadcast,
            granularity: LockGranularity::Fine,
            machine,
        }
    }

    /// Switches the shootdown mode.
    #[must_use]
    pub fn with_shootdown(mut self, mode: ShootdownMode) -> PagerConfig {
        self.shootdown = mode;
        self
    }

    /// Switches the lock granularity.
    #[must_use]
    pub fn with_granularity(mut self, granularity: LockGranularity) -> PagerConfig {
        self.granularity = granularity;
        self
    }

    /// Enables the directory controller's pipelined page copy (§7.2.2).
    #[must_use]
    pub fn with_pipelined_copy(mut self, enabled: bool) -> PagerConfig {
        self.costs.pipelined_copy = enabled;
        self
    }
}

/// One operation handed to [`Pager::service_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOp {
    /// Move `page`'s master to node `to`.
    Migrate {
        /// The hot page.
        page: VirtPage,
        /// Destination node.
        to: NodeId,
    },
    /// Create a replica of `page` on node `at`.
    Replicate {
        /// The hot page.
        page: VirtPage,
        /// Node receiving the replica.
        at: NodeId,
    },
    /// Collapse `page`'s replicas to the master (write to replicated page).
    Collapse {
        /// The written page.
        page: VirtPage,
    },
    /// Repoint `pid`'s stale mapping of `page` to the copy on `to`.
    Remap {
        /// The page with a local copy.
        page: VirtPage,
        /// The process with the stale mapping.
        pid: Pid,
        /// Node holding the copy to use.
        to: NodeId,
    },
}

impl PageOp {
    /// Convenience constructor for a migration.
    pub fn migrate(page: VirtPage, to: NodeId) -> PageOp {
        PageOp::Migrate { page, to }
    }

    /// Convenience constructor for a replication.
    pub fn replicate(page: VirtPage, at: NodeId) -> PageOp {
        PageOp::Replicate { page, at }
    }

    /// Convenience constructor for a collapse.
    pub fn collapse(page: VirtPage) -> PageOp {
        PageOp::Collapse { page }
    }

    /// Convenience constructor for a remap.
    pub fn remap(page: VirtPage, pid: Pid, to: NodeId) -> PageOp {
        PageOp::Remap { page, pid, to }
    }

    /// The page this operation affects.
    pub fn page(&self) -> VirtPage {
        match *self {
            PageOp::Migrate { page, .. }
            | PageOp::Replicate { page, .. }
            | PageOp::Collapse { page }
            | PageOp::Remap { page, .. } => page,
        }
    }

    fn class(&self) -> OpClass {
        match self {
            PageOp::Migrate { .. } => OpClass::Migrate,
            PageOp::Replicate { .. } => OpClass::Replicate,
            PageOp::Collapse { .. } => OpClass::Collapse,
            PageOp::Remap { .. } => OpClass::Remap,
        }
    }

    fn needs_global_flush(&self) -> bool {
        !matches!(self, PageOp::Remap { .. })
    }
}

/// Why an operation failed (the typed payload of [`OpOutcome::Failed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFailReason {
    /// The page data copy aborted mid-flight (transient; retryable).
    CopyAborted,
    /// The page's hash entry vanished mid-operation (racing collapse or
    /// reclaim; not retryable against the same chain).
    MissingPage,
    /// Freeing the operation's dead frame was rejected as a double free;
    /// the mapping change stands but the frame was leaked rather than
    /// corrupt the allocator.
    DoubleFree,
}

impl OpFailReason {
    /// Short lowercase name for logs and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            OpFailReason::CopyAborted => "copy_aborted",
            OpFailReason::MissingPage => "missing_page",
            OpFailReason::DoubleFree => "double_free",
        }
    }

    /// Whether retrying the same operation can plausibly succeed.
    pub fn retryable(&self) -> bool {
        matches!(self, OpFailReason::CopyAborted)
    }
}

/// Result of one operation in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation completed; `latency` is its end-to-end share of the
    /// batch (amortized interrupt and flush costs included).
    Done {
        /// End-to-end latency of the operation.
        latency: Ns,
    },
    /// No frame could be allocated on the target node (Table 4 "No Page").
    NoPage,
    /// The operation was dropped (e.g. collapse of a non-replicated page
    /// that raced with another collapse).
    Skipped,
    /// The operation failed for `reason` without completing; the pager's
    /// state is consistent and the caller may retry or drop the op.
    Failed {
        /// The typed failure cause.
        reason: OpFailReason,
    },
}

impl OpOutcome {
    /// True for [`OpOutcome::Done`].
    pub fn succeeded(&self) -> bool {
        matches!(self, OpOutcome::Done { .. })
    }
}

/// Per-batch summary returned alongside the outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Total kernel time consumed by the batch.
    pub total_latency: Ns,
    /// TLBs flushed by the batch's single shootdown (0 if none needed).
    pub tlbs_flushed: u32,
    /// Operations that needed the shootdown.
    pub flush_ops: u32,
}

/// The kernel pager: VM state plus the Figure 2 handler.
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct Pager {
    cfg: PagerConfig,
    frames: FrameAllocator,
    hash: PageHash,
    tables: PageTables,
    locks: LockModel,
    book: CostBook,
    /// Last known node for each process (set by the scheduler), used to
    /// pick "nearest" copies in policy-end.
    pid_nodes: HashMap<Pid, NodeId>,
    /// Frames held out of circulation by injected memory-pressure storms,
    /// per node (BTreeMap keeps release order deterministic).
    seized: BTreeMap<NodeId, Vec<Frame>>,
    /// The machine's latency model, resolved once; page copies are
    /// charged by their actual hop path through it.
    topo: Topology,
    last_batch: BatchStats,
    batches: u64,
}

impl Pager {
    /// A pager over a fresh machine.
    pub fn new(cfg: PagerConfig) -> Pager {
        let frames = FrameAllocator::new(&cfg.machine);
        let hash = PageHash::new(cfg.machine.clone());
        let topo = cfg.machine.effective_topology();
        Pager {
            frames,
            hash,
            topo,
            tables: PageTables::new(&cfg.machine),
            locks: LockModel::new(),
            book: CostBook::new(),
            pid_nodes: HashMap::new(),
            seized: BTreeMap::new(),
            last_batch: BatchStats::default(),
            batches: 0,
            cfg,
        }
    }

    /// Records where `pid` currently runs (the scheduler calls this); the
    /// pager uses it to pick nearest copies during policy-end.
    pub fn set_pid_node(&mut self, pid: Pid, node: NodeId) {
        self.pid_nodes.insert(pid, node);
    }

    fn pid_node(&self, pid: Pid) -> NodeId {
        self.pid_nodes.get(&pid).copied().unwrap_or(NodeId(0))
    }

    /// Ensures (`pid`, `page`) is mapped, allocating a first-touch master
    /// on `node` when the page is new (falling back to the freest node if
    /// `node` is full). Existing pages are mapped to the copy on `node`
    /// if one exists, else to the master. Returns the mapped node, or
    /// `None` when the whole machine is out of memory.
    pub fn first_touch(&mut self, pid: Pid, page: VirtPage, node: NodeId) -> Option<NodeId> {
        self.pid_nodes.entry(pid).or_insert(node);
        if let Some(node) = self.tables.lookup_node(pid, page) {
            return Some(node);
        }
        let frame = match self.hash.get(page) {
            None => {
                let frame = self.frames.alloc_with_fallback(node)?;
                self.hash.insert_master(page, frame);
                frame
            }
            Some(entry) => {
                let master = entry.master();
                self.hash.copy_on(page, node).unwrap_or(master)
            }
        };
        self.tables.map(pid, page, frame);
        Some(self.cfg.machine.node_of_frame(frame))
    }

    /// The node backing (`pid`, `page`)'s current mapping: one indexed
    /// read of the PTE, which carries its frame's node.
    #[inline]
    pub fn mapping_node(&self, pid: Pid, page: VirtPage) -> Option<NodeId> {
        self.tables.lookup_node(pid, page)
    }

    /// Nodes holding a copy of `page` (master first).
    pub fn copies(&self, page: VirtPage) -> Vec<NodeId> {
        self.hash.copy_nodes(page)
    }

    /// Builds the [`PageLocation`] the policy engine needs for a miss by
    /// `pid` running on `accessor_node`.
    ///
    /// # Panics
    ///
    /// Panics if (`pid`, `page`) is unmapped — call
    /// [`first_touch`](Pager::first_touch) on every reference first.
    #[inline]
    pub fn location_for(&self, pid: Pid, page: VirtPage, accessor_node: NodeId) -> PageLocation {
        let mapped = self
            .mapping_node(pid, page)
            .expect("page must be mapped before asking for its location");
        // Read the replica chain in place — this runs once per counted
        // miss and must not allocate a copy list just to summarise it.
        // A copy is local when its frame falls in the accessor node's
        // frame range: a subtraction and a compare, no division.
        let first = self.cfg.machine.first_frame_of(accessor_node).0;
        let per_node = u64::from(self.cfg.machine.frames_per_node);
        let (copy_local, replicated) = match self.hash.get(page) {
            None => (false, false),
            Some(e) => (
                e.all_frames().any(|f| f.0.wrapping_sub(first) < per_node),
                e.is_replicated(),
            ),
        };
        PageLocation::from_parts(mapped, accessor_node, copy_local, replicated)
    }

    /// Whether `node` is under memory pressure (decision node 3a input).
    #[inline]
    pub fn pressure(&self, node: NodeId) -> bool {
        self.frames.pressure(node)
    }

    /// The cost book accumulated so far (Tables 5 and 6).
    pub fn book(&self) -> &CostBook {
        &self.book
    }

    /// The lock-contention model (for contention statistics).
    pub fn locks(&self) -> &LockModel {
        &self.locks
    }

    /// The frame allocator (for memory-usage statistics).
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// The page hash (for replication statistics).
    pub fn hash(&self) -> &PageHash {
        &self.hash
    }

    /// Stats of the most recent batch.
    pub fn last_batch(&self) -> BatchStats {
        self.last_batch
    }

    /// Number of batches serviced.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// §7.2.3: peak replica frames as a percentage of distinct pages — the
    /// replication memory overhead.
    pub fn replication_space_overhead_pct(&self) -> f64 {
        if self.hash.is_empty() {
            0.0
        } else {
            100.0 * self.hash.replica_frames_peak() as f64 / self.hash.len() as f64
        }
    }

    /// Frees up to `want` frames on `node` by collapsing replicas that
    /// live there (the memory-pressure response of §7.2.3). Returns the
    /// number of frames freed.
    pub fn reclaim_replicas_on(&mut self, node: NodeId, want: u32) -> u32 {
        let mut freed = 0;
        for page in self.hash.replicated_pages_on(node) {
            if freed >= want {
                break;
            }
            if let Some(frame) = self.hash.remove_replica_on(page, node) {
                // Repoint any PTEs using the dying replica at the master.
                // A page that lost its hash entry to a racing collapse is
                // skipped rather than crashing the reclaim pass.
                let Some(entry) = self.hash.get(page) else {
                    continue;
                };
                let master = entry.master();
                self.tables.repoint(page, frame, master);
                if self.frames.free(frame).is_ok() {
                    freed += 1;
                }
            }
        }
        freed
    }

    /// Seizes free frames on `node` until at most `keep_free` remain,
    /// simulating a burst of outside memory demand (an injected
    /// memory-pressure storm). Returns how many frames were seized; they
    /// stay allocated but unmapped until [`Pager::release_seized`]
    /// returns them.
    pub fn seize_frames(&mut self, node: NodeId, keep_free: u32) -> u32 {
        let mut taken = 0;
        while self.frames.free_on(node) > keep_free {
            let Some(frame) = self.frames.alloc(node) else {
                break;
            };
            self.seized.entry(node).or_default().push(frame);
            taken += 1;
        }
        taken
    }

    /// Releases every frame previously seized on `node`, ending a storm.
    /// Returns how many frames went back to the free list.
    pub fn release_seized(&mut self, node: NodeId) -> u32 {
        let mut returned = 0;
        for frame in self.seized.remove(&node).unwrap_or_default() {
            if self.frames.free(frame).is_ok() {
                returned += 1;
            }
        }
        returned
    }

    /// Frames currently seized by storms on `node`.
    pub fn seized_on(&self, node: NodeId) -> u32 {
        self.seized.get(&node).map_or(0, |v| v.len() as u32)
    }

    /// Every frame currently seized by storms, across all nodes.
    pub fn seized_frames(&self) -> impl Iterator<Item = Frame> + '_ {
        self.seized.values().flatten().copied()
    }

    /// The page tables (for the invariant checker and diagnostics).
    pub fn tables(&self) -> &PageTables {
        &self.tables
    }

    /// Test-only raw access for deliberately corrupting kernel state, so
    /// the invariant checker's negative paths can be exercised.
    #[cfg(test)]
    pub(crate) fn state_mut_for_test(
        &mut self,
    ) -> (&mut FrameAllocator, &mut PageHash, &mut PageTables) {
        (&mut self.frames, &mut self.hash, &mut self.tables)
    }

    fn replica_lock(&self, page: VirtPage) -> LockId {
        match self.cfg.granularity {
            LockGranularity::Coarse => LockId::Memlock,
            LockGranularity::Fine => LockId::Page(page),
        }
    }

    /// Services one directory batch at time `now` (Figure 2). Returns one
    /// outcome per op, in order; the batch's single TLB flush and the
    /// interrupt cost are amortized across the ops that need them.
    pub fn service_batch(&mut self, now: Ns, ops: &[PageOp]) -> Vec<OpOutcome> {
        self.service_batch_with(now, ops, &mut NullFaults)
    }

    /// [`Pager::service_batch`] with a fault injector threaded through.
    ///
    /// With [`NullFaults`] this monomorphizes to exactly the fault-free
    /// handler. An enabled injector may abort page copies (the op fails
    /// with [`OpFailReason::CopyAborted`] before any state changes),
    /// force allocations to fail (surfacing the [`OpOutcome::NoPage`]
    /// degradation path), and stretch the shootdown rendezvous with
    /// delayed acknowledgements.
    pub fn service_batch_with<F: FaultInjector>(
        &mut self,
        now: Ns,
        ops: &[PageOp],
        faults: &mut F,
    ) -> Vec<OpOutcome> {
        let mut outcomes = Vec::with_capacity(ops.len());
        self.service_batch_into(now, ops, faults, &mut outcomes);
        outcomes
    }

    /// [`Pager::service_batch_with`] writing into a caller-owned buffer.
    ///
    /// `outcomes` is cleared and refilled with one outcome per op, in
    /// order. The simulator's per-reference path (a collapse or remap is
    /// a one-op batch issued from inside the miss handler) reuses one
    /// buffer across the whole run, so servicing allocates nothing in
    /// steady state.
    pub fn service_batch_into<F: FaultInjector>(
        &mut self,
        now: Ns,
        ops: &[PageOp],
        faults: &mut F,
        outcomes: &mut Vec<OpOutcome>,
    ) {
        self.batches += 1;
        outcomes.clear();
        outcomes.reserve(ops.len());
        if ops.is_empty() {
            self.last_batch = BatchStats::default();
            return;
        }
        let costs = self.cfg.costs.clone();
        let intr_share = costs.intr_batch / ops.len() as u64;

        // One shootdown for all ops that change mappings (step 6).
        let flush_ops = ops.iter().filter(|o| o.needs_global_flush()).count() as u32;
        let flushed_cpus = if flush_ops == 0 {
            0
        } else {
            match self.cfg.shootdown {
                ShootdownMode::Broadcast => u32::from(self.cfg.machine.procs()),
                ShootdownMode::Targeted => self.targeted_cpu_count(ops),
            }
        };
        let mut flush_total = if flush_ops == 0 {
            Ns::ZERO
        } else {
            costs.tlb_flush_cost(flushed_cpus)
        };
        if F::ENABLED && flush_ops > 0 {
            // Delayed or dropped acks stretch the rendezvous for the
            // whole batch; every spinning CPU pays the extension below.
            flush_total += faults.shootdown_ack_delay(now, flushed_cpus);
        }
        let flush_share = if flush_ops == 0 {
            Ns::ZERO
        } else {
            flush_total / flush_ops as u64
        };

        if flush_ops > 0 {
            // Every victim CPU spins until the rendezvous completes, so
            // the machine burns cpus x flush_total of CPU time on top of
            // the initiator's latency (Table 6's dominant overhead).
            self.book
                .add_system(PagerStep::TlbFlush, flush_total * flushed_cpus as u64);
        }
        let mut batch_total = Ns::ZERO;
        for op in ops {
            let class = op.class();
            let outcome = self.run_op(
                now + batch_total,
                op,
                intr_share,
                flush_share,
                &costs,
                faults,
            );
            if let OpOutcome::Done { latency } = outcome {
                batch_total += latency;
                self.book.add(class, PagerStep::IntrProc, intr_share);
                if op.needs_global_flush() {
                    self.book.add(class, PagerStep::TlbFlush, flush_share);
                }
                self.book.count_op(class);
            }
            outcomes.push(outcome);
        }
        self.last_batch = BatchStats {
            total_latency: batch_total,
            tlbs_flushed: flushed_cpus,
            flush_ops,
        };
    }

    /// CPUs whose processes map any page in the batch (plus one for the
    /// requester) under targeted shootdown.
    fn targeted_cpu_count(&self, ops: &[PageOp]) -> u32 {
        let mut nodes: HashSet<NodeId> = HashSet::new();
        for op in ops {
            if !op.needs_global_flush() {
                continue;
            }
            for pid in self.tables.mappers_of_page(op.page()) {
                nodes.insert(self.pid_node(pid));
            }
        }
        (nodes.len() as u32).max(1)
    }

    fn run_op<F: FaultInjector>(
        &mut self,
        now: Ns,
        op: &PageOp,
        intr_share: Ns,
        flush_share: Ns,
        costs: &CostParams,
        faults: &mut F,
    ) -> OpOutcome {
        match *op {
            PageOp::Migrate { page, to } => {
                self.do_migrate(now, page, to, intr_share, flush_share, costs, faults)
            }
            PageOp::Replicate { page, at } => {
                self.do_replicate(now, page, at, intr_share, flush_share, costs, faults)
            }
            PageOp::Collapse { page } => {
                self.do_collapse(now, page, intr_share, flush_share, costs)
            }
            PageOp::Remap { page, pid, to } => self.do_remap(page, pid, to, intr_share, costs),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_migrate<F: FaultInjector>(
        &mut self,
        now: Ns,
        page: VirtPage,
        to: NodeId,
        intr_share: Ns,
        flush_share: Ns,
        costs: &CostParams,
        faults: &mut F,
    ) -> OpOutcome {
        if !self.hash.contains(page) {
            return OpOutcome::Skipped;
        }
        if self.hash.copy_on(page, to).is_some() {
            // The destination already holds a copy (master or replica);
            // the right action there is a remap, not a second copy.
            return OpOutcome::Skipped;
        }
        // Injected copy abort, decided before any state changes so no
        // rollback is needed.
        if F::ENABLED && faults.page_op_fails(now, FaultOp::Migrate, page) {
            return OpOutcome::Failed {
                reason: OpFailReason::CopyAborted,
            };
        }
        let class = OpClass::Migrate;
        let mut latency = intr_share + costs.decision;
        self.book
            .add(class, PagerStep::PolicyDecision, costs.decision);

        // Step 4: allocate, contending on memlock.
        let wait = self
            .locks
            .acquire(LockId::Memlock, now + latency, costs.memlock_hold_alloc);
        let blocked = F::ENABLED && faults.alloc_blocked(now, to);
        let Some(new_frame) = (if blocked { None } else { self.frames.alloc(to) }) else {
            return OpOutcome::NoPage;
        };
        let alloc_cost = costs.page_alloc_base + wait;
        self.book.add(class, PagerStep::PageAlloc, alloc_cost);
        latency += alloc_cost;

        // Step 5: unlink old master from hash (memlock), update PTEs.
        let old_frame = self.hash.migrate_master(page, new_frame);
        let wait = self
            .locks
            .acquire(LockId::Memlock, now + latency, costs.memlock_hold_links);
        let movers = self.tables.repoint(page, old_frame, new_frame);
        let links_cost = costs.links_migr_base + wait + costs.per_pte * movers as u64;
        self.book.add(class, PagerStep::LinksMapping, links_cost);
        latency += links_cost;

        // Step 6 amortized flush.
        latency += flush_share;

        // Step 7: copy, line by line over the actual source→destination
        // path (on the flat machine every off-node path reads at
        // `remote_latency`, so this matches the legacy flat charge).
        let src = self.cfg.machine.node_of_frame(old_frame);
        let copy = costs.copy_cost_on_path(self.topo.read_latency(to, src));
        self.book.add(class, PagerStep::PageCopy, copy);
        latency += copy;

        // Step 8: free the old frame, final mappings. A rejected free
        // (double free) leaks the frame instead of corrupting the
        // allocator; the op reports the inconsistency.
        if self.frames.free(old_frame).is_err() {
            return OpOutcome::Failed {
                reason: OpFailReason::DoubleFree,
            };
        }
        let end = costs.end_migr_base;
        self.book.add(class, PagerStep::PolicyEnd, end);
        latency += end;

        // Future soft faults on the changed mappings.
        self.book
            .add(class, PagerStep::PageFault, costs.pfault * movers as u64);

        OpOutcome::Done { latency }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_replicate<F: FaultInjector>(
        &mut self,
        now: Ns,
        page: VirtPage,
        at: NodeId,
        intr_share: Ns,
        flush_share: Ns,
        costs: &CostParams,
        faults: &mut F,
    ) -> OpOutcome {
        if !self.hash.contains(page) {
            return OpOutcome::Skipped;
        }
        if self.hash.copy_on(page, at).is_some() {
            // A racing replication already put a copy here.
            return OpOutcome::Skipped;
        }
        if F::ENABLED && faults.page_op_fails(now, FaultOp::Replicate, page) {
            return OpOutcome::Failed {
                reason: OpFailReason::CopyAborted,
            };
        }
        // The copy streams from the nearest existing copy, and the fresh
        // replica is linked into the chain before step 7 — so resolve the
        // per-line path cost now, while the chain holds only real sources.
        let copy_per_line = self
            .hash
            .copy_nodes(page)
            .into_iter()
            .map(|n| self.topo.read_latency(at, n))
            .min()
            .unwrap_or(costs.copy_per_line);
        let class = OpClass::Replicate;
        let mut latency = intr_share + costs.decision;
        self.book
            .add(class, PagerStep::PolicyDecision, costs.decision);

        let wait = self
            .locks
            .acquire(LockId::Memlock, now + latency, costs.memlock_hold_alloc);
        let blocked = F::ENABLED && faults.alloc_blocked(now, at);
        let Some(new_frame) = (if blocked { None } else { self.frames.alloc(at) }) else {
            return OpOutcome::NoPage;
        };
        let alloc_cost = costs.page_alloc_base + wait;
        self.book.add(class, PagerStep::PageAlloc, alloc_cost);
        latency += alloc_cost;

        // Step 5: replicas hang off the chain under the page lock only.
        let wait = self
            .locks
            .acquire(self.replica_lock(page), now + latency, costs.page_lock_hold);
        self.hash.add_replica(page, new_frame);
        let links_cost = costs.links_repl_base + wait;
        self.book.add(class, PagerStep::LinksMapping, links_cost);
        latency += links_cost;

        latency += flush_share;

        let copy = costs.copy_cost_on_path(copy_per_line);
        self.book.add(class, PagerStep::PageCopy, copy);
        latency += copy;

        // Step 8: point every mapper at its nearest copy. The entry must
        // still be present (we just linked the replica), but a racing
        // collapse is reported as a typed failure rather than a panic;
        // the fresh replica is the page's one surviving copy either way.
        let Some(entry) = self.hash.get(page) else {
            return OpOutcome::Failed {
                reason: OpFailReason::MissingPage,
            };
        };
        let master = entry.master();
        let pids = self.tables.mappers_of_page(page);
        let nearest: Vec<(Pid, Frame)> = pids
            .iter()
            .map(|&pid| {
                let node = self.pid_node(pid);
                let frame = self.hash.copy_on(page, node).unwrap_or(master);
                (pid, frame)
            })
            .collect();
        let mut lookup: HashMap<Pid, Frame> = HashMap::new();
        for (pid, f) in &nearest {
            lookup.insert(*pid, *f);
        }
        let moved = self.tables.repoint_each(page, &pids, |pid| lookup[&pid]);
        let end = costs.end_repl_base + costs.per_pte * moved as u64;
        self.book.add(class, PagerStep::PolicyEnd, end);
        latency += end;

        self.book
            .add(class, PagerStep::PageFault, costs.pfault * moved as u64);

        OpOutcome::Done { latency }
    }

    fn do_collapse(
        &mut self,
        now: Ns,
        page: VirtPage,
        intr_share: Ns,
        flush_share: Ns,
        costs: &CostParams,
    ) -> OpOutcome {
        let Some(entry) = self.hash.get(page) else {
            return OpOutcome::Skipped;
        };
        if !entry.is_replicated() {
            return OpOutcome::Skipped;
        }
        let class = OpClass::Collapse;
        let mut latency = intr_share + costs.decision;
        self.book
            .add(class, PagerStep::PolicyDecision, costs.decision);

        let master = entry.master();
        let wait = self
            .locks
            .acquire(self.replica_lock(page), now, costs.page_lock_hold);
        let freed = self.hash.collapse(page);
        let mut moved = 0;
        let mut free_failed = false;
        for frame in &freed {
            moved += self.tables.repoint(page, *frame, master);
            // A rejected free leaks that replica frame but keeps the
            // allocator consistent; finish repointing the rest first.
            free_failed |= self.frames.free(*frame).is_err();
        }
        let links_cost = costs.links_repl_base + wait + costs.per_pte * moved as u64;
        self.book.add(class, PagerStep::LinksMapping, links_cost);
        latency += links_cost;

        latency += flush_share;

        let end = costs.end_migr_base;
        self.book.add(class, PagerStep::PolicyEnd, end);
        latency += end;

        self.book
            .add(class, PagerStep::PageFault, costs.pfault * moved as u64);

        if free_failed {
            return OpOutcome::Failed {
                reason: OpFailReason::DoubleFree,
            };
        }
        OpOutcome::Done { latency }
    }

    fn do_remap(
        &mut self,
        page: VirtPage,
        pid: Pid,
        to: NodeId,
        intr_share: Ns,
        costs: &CostParams,
    ) -> OpOutcome {
        let Some(target) = self.hash.copy_on(page, to) else {
            return OpOutcome::Skipped;
        };
        if self.tables.lookup(pid, page).is_none() {
            return OpOutcome::Skipped;
        }
        self.tables.map(pid, page, target);
        let class = OpClass::Remap;
        self.book.add(class, PagerStep::LinksMapping, costs.remap);
        OpOutcome::Done {
            latency: intr_share + costs.remap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager() -> Pager {
        Pager::new(PagerConfig::for_machine(MachineConfig::cc_numa()))
    }

    fn tiny_pager() -> Pager {
        let m = MachineConfig::cc_numa()
            .with_nodes(2)
            .with_frames_per_node(2);
        Pager::new(PagerConfig::for_machine(m))
    }

    #[test]
    fn first_touch_allocates_on_node() {
        let mut p = pager();
        assert_eq!(
            p.first_touch(Pid(1), VirtPage(1), NodeId(3)),
            Some(NodeId(3))
        );
        assert_eq!(p.mapping_node(Pid(1), VirtPage(1)), Some(NodeId(3)));
        assert_eq!(p.copies(VirtPage(1)), vec![NodeId(3)]);
        // idempotent
        assert_eq!(
            p.first_touch(Pid(1), VirtPage(1), NodeId(5)),
            Some(NodeId(3))
        );
    }

    #[test]
    fn second_process_maps_existing_master() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        assert_eq!(
            p.first_touch(Pid(2), VirtPage(1), NodeId(4)),
            Some(NodeId(0))
        );
        assert_eq!(p.mapping_node(Pid(2), VirtPage(1)), Some(NodeId(0)));
    }

    #[test]
    fn migrate_moves_master_and_mappings() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(2));
        let out = p.service_batch(Ns::from_ms(1), &[PageOp::migrate(VirtPage(1), NodeId(5))]);
        assert!(out[0].succeeded());
        assert_eq!(p.copies(VirtPage(1)), vec![NodeId(5)]);
        assert_eq!(p.mapping_node(Pid(1), VirtPage(1)), Some(NodeId(5)));
        assert_eq!(p.mapping_node(Pid(2), VirtPage(1)), Some(NodeId(5)));
        // old frame was freed
        assert_eq!(p.frames().used_on(NodeId(0)), 0);
        assert_eq!(p.frames().used_on(NodeId(5)), 1);
        assert_eq!(p.book().ops(OpClass::Migrate), 1);
    }

    #[test]
    fn migration_copy_charge_follows_the_topology_path() {
        let m = MachineConfig::cc_numa()
            .with_nodes(8)
            .with_topology(Topology::four_socket_hierarchical(8));
        let lines = m.lines_per_page() as u64;
        let mut p = Pager::new(PagerConfig::for_machine(m));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(2), NodeId(0));
        // Node 1 shares node 0's socket (500 ns/line); node 4 sits two
        // ring hops away (2100 ns/line). The batches are 1 ms apart so no
        // lock contention blurs the comparison: the only difference in
        // latency is the per-line copy cost times the page's line count.
        let near = p.service_batch(Ns::from_ms(1), &[PageOp::migrate(VirtPage(1), NodeId(1))]);
        let far = p.service_batch(Ns::from_ms(2), &[PageOp::migrate(VirtPage(2), NodeId(4))]);
        let (OpOutcome::Done { latency: near }, OpOutcome::Done { latency: far }) =
            (near[0], far[0])
        else {
            panic!("both migrations must succeed");
        };
        assert_eq!(far.0 - near.0, (2100 - 500) * lines);
    }

    #[test]
    fn replication_copies_from_the_nearest_copy() {
        let m = MachineConfig::cc_numa()
            .with_nodes(8)
            .with_topology(Topology::four_socket_hierarchical(8));
        let lines = m.lines_per_page() as u64;
        let mut p = Pager::new(PagerConfig::for_machine(m));
        // Master two ring hops from socket {0,1}.
        p.first_touch(Pid(1), VirtPage(1), NodeId(4));
        // First replica at node 0 must stream from the distant master
        // (2100 ns/line); the second, at node 1, finds the node-0 replica
        // one intra-socket hop away (500 ns/line) and uses it instead.
        p.service_batch(Ns::from_ms(1), &[PageOp::replicate(VirtPage(1), NodeId(0))]);
        let first = p.book().step_total(OpClass::Replicate, PagerStep::PageCopy);
        p.service_batch(Ns::from_ms(2), &[PageOp::replicate(VirtPage(1), NodeId(1))]);
        let both = p.book().step_total(OpClass::Replicate, PagerStep::PageCopy);
        let second = both.0 - first.0;
        assert_eq!(first.0 - second, (2100 - 500) * lines);
    }

    #[test]
    fn replicate_adds_copy_and_points_nearest() {
        let mut p = pager();
        p.set_pid_node(Pid(1), NodeId(0));
        p.set_pid_node(Pid(2), NodeId(6));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(6));
        let out = p.service_batch(Ns::from_ms(1), &[PageOp::replicate(VirtPage(1), NodeId(6))]);
        assert!(out[0].succeeded());
        assert_eq!(p.copies(VirtPage(1)), vec![NodeId(0), NodeId(6)]);
        // pid1 keeps the master, pid2 now uses the local replica
        assert_eq!(p.mapping_node(Pid(1), VirtPage(1)), Some(NodeId(0)));
        assert_eq!(p.mapping_node(Pid(2), VirtPage(1)), Some(NodeId(6)));
        assert!(p.replication_space_overhead_pct() > 0.0);
    }

    #[test]
    fn collapse_frees_replicas_and_repoints() {
        let mut p = pager();
        p.set_pid_node(Pid(2), NodeId(6));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(6));
        p.service_batch(Ns::from_ms(1), &[PageOp::replicate(VirtPage(1), NodeId(6))]);
        let out = p.service_batch(Ns::from_ms(2), &[PageOp::collapse(VirtPage(1))]);
        assert!(out[0].succeeded());
        assert_eq!(p.copies(VirtPage(1)), vec![NodeId(0)]);
        assert_eq!(p.mapping_node(Pid(2), VirtPage(1)), Some(NodeId(0)));
        assert_eq!(p.frames().used_on(NodeId(6)), 0);
        // collapse of a non-replicated page is skipped
        let out = p.service_batch(Ns::from_ms(3), &[PageOp::collapse(VirtPage(1))]);
        assert_eq!(out[0], OpOutcome::Skipped);
    }

    #[test]
    fn remap_fixes_stale_mapping_only() {
        let mut p = pager();
        p.set_pid_node(Pid(1), NodeId(0));
        p.set_pid_node(Pid(2), NodeId(6));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(6));
        p.service_batch(Ns::from_ms(1), &[PageOp::replicate(VirtPage(1), NodeId(6))]);
        // pid2's process moves to node 3 where there is no copy; then back:
        // simulate a stale mapping by remapping pid2 at node 0's master.
        let out = p.service_batch(
            Ns::from_ms(2),
            &[PageOp::remap(VirtPage(1), Pid(2), NodeId(0))],
        );
        assert!(out[0].succeeded());
        assert_eq!(p.mapping_node(Pid(2), VirtPage(1)), Some(NodeId(0)));
        // remap to a node without a copy is skipped
        let out = p.service_batch(
            Ns::from_ms(3),
            &[PageOp::remap(VirtPage(1), Pid(2), NodeId(4))],
        );
        assert_eq!(out[0], OpOutcome::Skipped);
    }

    #[test]
    fn exhausted_node_returns_no_page() {
        let mut p = tiny_pager();
        // Fill node 1 (2 frames).
        p.first_touch(Pid(1), VirtPage(1), NodeId(1));
        p.first_touch(Pid(1), VirtPage(2), NodeId(1));
        p.first_touch(Pid(1), VirtPage(3), NodeId(0));
        let out = p.service_batch(Ns::from_ms(1), &[PageOp::migrate(VirtPage(3), NodeId(1))]);
        assert_eq!(out[0], OpOutcome::NoPage);
        // page untouched
        assert_eq!(p.copies(VirtPage(3)), vec![NodeId(0)]);
    }

    #[test]
    fn reclaim_replicas_frees_frames() {
        let mut p = tiny_pager();
        p.set_pid_node(Pid(2), NodeId(1));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(1));
        p.service_batch(Ns::from_ms(1), &[PageOp::replicate(VirtPage(1), NodeId(1))]);
        assert_eq!(p.frames().used_on(NodeId(1)), 1);
        let freed = p.reclaim_replicas_on(NodeId(1), 5);
        assert_eq!(freed, 1);
        assert_eq!(p.frames().used_on(NodeId(1)), 0);
        assert_eq!(p.mapping_node(Pid(2), VirtPage(1)), Some(NodeId(0)));
    }

    #[test]
    fn batch_amortizes_interrupt_and_flush() {
        let mut p = pager();
        for i in 0..4u64 {
            p.first_touch(Pid(1), VirtPage(i), NodeId(0));
        }
        let ops: Vec<PageOp> = (0..4u64)
            .map(|i| PageOp::migrate(VirtPage(i), NodeId(3)))
            .collect();
        let out = p.service_batch(Ns::from_ms(1), &ops);
        assert!(out.iter().all(OpOutcome::succeeded));
        let b = p.last_batch();
        assert_eq!(b.flush_ops, 4);
        assert_eq!(b.tlbs_flushed, 8, "broadcast flushes all CPUs");
        // Effective per-op flush cost is a quarter of one flush.
        let per_op_flush = p.book().avg_step(OpClass::Migrate, PagerStep::TlbFlush);
        let full = p.cfg.costs.tlb_flush_cost(8);
        assert_eq!(per_op_flush, full / 4);
    }

    #[test]
    fn targeted_shootdown_flushes_fewer_tlbs() {
        let cfg = PagerConfig::for_machine(MachineConfig::cc_numa())
            .with_shootdown(ShootdownMode::Targeted);
        let mut p = Pager::new(cfg);
        p.set_pid_node(Pid(1), NodeId(0));
        p.set_pid_node(Pid(2), NodeId(1));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(1));
        p.service_batch(Ns::from_ms(1), &[PageOp::migrate(VirtPage(1), NodeId(1))]);
        assert_eq!(p.last_batch().tlbs_flushed, 2, "only the two mappers");
    }

    #[test]
    fn coarse_memlock_makes_concurrent_replicates_wait_longer() {
        // Eight CPUs' interrupts replicate eight distinct pages at the
        // same instant. Fine locking queues them only on the allocation
        // memlock; coarse locking also queues their chain links there.
        let serve = |granularity| {
            let cfg =
                PagerConfig::for_machine(MachineConfig::cc_numa()).with_granularity(granularity);
            let mut p = Pager::new(cfg);
            for i in 0..8u64 {
                p.first_touch(Pid(1), VirtPage(i), NodeId(0));
                p.first_touch(Pid(2), VirtPage(i), NodeId(4));
                let out =
                    p.service_batch(Ns::from_ms(1), &[PageOp::replicate(VirtPage(i), NodeId(4))]);
                assert!(out[0].succeeded(), "{granularity:?}");
            }
            (p.locks().acquisitions(), p.locks().total_wait())
        };
        let (coarse_acq, coarse_wait) = serve(LockGranularity::Coarse);
        let (fine_acq, fine_wait) = serve(LockGranularity::Fine);
        assert_eq!(coarse_acq, fine_acq, "same acquisitions, different locks");
        assert!(
            coarse_wait > fine_wait,
            "coarse {coarse_wait:?} vs fine {fine_wait:?}"
        );
    }

    #[test]
    fn per_op_latency_in_papers_range() {
        let mut p = pager();
        for i in 0..3u64 {
            p.first_touch(Pid(1), VirtPage(i), NodeId(0));
        }
        let ops: Vec<PageOp> = (0..3u64)
            .map(|i| PageOp::migrate(VirtPage(i), NodeId(2)))
            .collect();
        let out = p.service_batch(Ns::from_ms(1), &ops);
        for o in out {
            let OpOutcome::Done { latency } = o else {
                panic!("expected success")
            };
            let us = latency.as_us();
            assert!(
                (200.0..800.0).contains(&us),
                "per-op latency {us} µs outside the plausible Table 5 band"
            );
        }
    }

    #[test]
    fn cost_book_total_grows_with_ops() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        let before = p.book().total();
        p.service_batch(Ns::from_ms(1), &[PageOp::migrate(VirtPage(1), NodeId(1))]);
        assert!(p.book().total() > before);
        assert_eq!(p.batches(), 1);
    }

    #[test]
    fn ops_on_unknown_pages_are_skipped() {
        let mut p = pager();
        let out = p.service_batch(
            Ns(0),
            &[
                PageOp::migrate(VirtPage(99), NodeId(1)),
                PageOp::replicate(VirtPage(98), NodeId(1)),
                PageOp::collapse(VirtPage(97)),
            ],
        );
        assert!(out.iter().all(|o| *o == OpOutcome::Skipped));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut p = pager();
        assert!(p.service_batch(Ns(0), &[]).is_empty());
        assert_eq!(p.last_batch(), BatchStats::default());
    }

    #[test]
    fn replicate_where_copy_exists_is_skipped() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        let out = p.service_batch(Ns(0), &[PageOp::replicate(VirtPage(1), NodeId(0))]);
        assert_eq!(out[0], OpOutcome::Skipped);
    }

    /// Regression: a collapse and a migrate racing on the same page in
    /// one batch (in either order) must never panic, and must leave the
    /// kernel state consistent. The old code reached `expect("page
    /// present")` paths on this shape.
    #[test]
    fn racing_collapse_and_migrate_cannot_panic() {
        for order in 0..2 {
            let mut p = pager();
            p.set_pid_node(Pid(1), NodeId(0));
            p.set_pid_node(Pid(2), NodeId(6));
            p.first_touch(Pid(1), VirtPage(1), NodeId(0));
            p.first_touch(Pid(2), VirtPage(1), NodeId(6));
            p.service_batch(Ns::from_ms(1), &[PageOp::replicate(VirtPage(1), NodeId(6))]);
            let ops = if order == 0 {
                [
                    PageOp::collapse(VirtPage(1)),
                    PageOp::migrate(VirtPage(1), NodeId(6)),
                ]
            } else {
                [
                    PageOp::migrate(VirtPage(1), NodeId(6)),
                    PageOp::collapse(VirtPage(1)),
                ]
            };
            let out = p.service_batch(Ns::from_ms(2), &ops);
            assert_eq!(out.len(), 2);
            assert!(
                out.iter().all(|o| !matches!(o, OpOutcome::Failed { .. })),
                "racing ops resolve via skip/done, not failure: {out:?} (order {order})"
            );
            assert_eq!(
                crate::verify::violations(&p),
                Vec::<String>::new(),
                "state stays consistent (order {order})"
            );
        }
    }

    /// A replicate whose data copy is aborted by fault injection fails
    /// typed, leaves no trace, and succeeds on retry.
    #[test]
    fn injected_copy_abort_fails_typed_and_is_retryable() {
        struct AbortOnce(bool);
        impl ccnuma_faults::FaultInjector for AbortOnce {
            fn page_op_fails(
                &mut self,
                _now: Ns,
                _op: ccnuma_faults::FaultOp,
                _page: VirtPage,
            ) -> bool {
                std::mem::replace(&mut self.0, false)
            }
        }
        let mut p = pager();
        p.set_pid_node(Pid(2), NodeId(6));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(6));
        let mut faults = AbortOnce(true);
        let ops = [PageOp::replicate(VirtPage(1), NodeId(6))];
        let out = p.service_batch_with(Ns::from_ms(1), &ops, &mut faults);
        assert_eq!(
            out[0],
            OpOutcome::Failed {
                reason: OpFailReason::CopyAborted
            }
        );
        assert!(OpFailReason::CopyAborted.retryable());
        assert_eq!(
            p.copies(VirtPage(1)),
            vec![NodeId(0)],
            "no replica left behind"
        );
        assert_eq!(crate::verify::violations(&p), Vec::<String>::new());
        // Retry with the transient fault gone: succeeds.
        let out = p.service_batch_with(Ns::from_ms(2), &ops, &mut faults);
        assert!(out[0].succeeded());
        assert_eq!(p.copies(VirtPage(1)), vec![NodeId(0), NodeId(6)]);
    }

    /// A blocked allocation surfaces as NoPage — the same degradation
    /// path as a genuinely exhausted node.
    #[test]
    fn injected_alloc_block_surfaces_no_page() {
        struct BlockAllocs;
        impl ccnuma_faults::FaultInjector for BlockAllocs {
            fn alloc_blocked(&mut self, _now: Ns, _node: NodeId) -> bool {
                true
            }
        }
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        let out = p.service_batch_with(
            Ns::from_ms(1),
            &[PageOp::migrate(VirtPage(1), NodeId(3))],
            &mut BlockAllocs,
        );
        assert_eq!(out[0], OpOutcome::NoPage);
        assert_eq!(p.copies(VirtPage(1)), vec![NodeId(0)]);
        assert_eq!(crate::verify::violations(&p), Vec::<String>::new());
    }

    /// Delayed shootdown acks stretch the batch's flush share.
    #[test]
    fn injected_ack_delay_stretches_flush() {
        struct SlowAcks;
        impl ccnuma_faults::FaultInjector for SlowAcks {
            fn shootdown_ack_delay(&mut self, _now: Ns, _tlbs: u32) -> Ns {
                Ns(40_000)
            }
        }
        let mut base = pager();
        let mut slow = pager();
        for p in [&mut base, &mut slow] {
            p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        }
        let ops = [PageOp::migrate(VirtPage(1), NodeId(3))];
        let fast = base.service_batch(Ns::from_ms(1), &ops);
        let delayed = slow.service_batch_with(Ns::from_ms(1), &ops, &mut SlowAcks);
        let (OpOutcome::Done { latency: a }, OpOutcome::Done { latency: b }) =
            (fast[0], delayed[0])
        else {
            panic!("both must succeed");
        };
        assert_eq!(
            b,
            a + Ns(40_000),
            "the whole delay lands on the one flush op"
        );
    }

    /// Storm seizure empties a node down to `keep_free` and release
    /// restores it exactly.
    #[test]
    fn storms_seize_and_release_frames() {
        let mut p = tiny_pager();
        assert_eq!(p.frames().free_on(NodeId(1)), 2);
        let taken = p.seize_frames(NodeId(1), 1);
        assert_eq!(taken, 1);
        assert_eq!(p.frames().free_on(NodeId(1)), 1);
        assert_eq!(p.seized_on(NodeId(1)), 1);
        assert_eq!(crate::verify::violations(&p), Vec::<String>::new());
        let returned = p.release_seized(NodeId(1));
        assert_eq!(returned, 1);
        assert_eq!(p.frames().free_on(NodeId(1)), 2);
        assert_eq!(p.seized_on(NodeId(1)), 0);
        // releasing again is a no-op
        assert_eq!(p.release_seized(NodeId(1)), 0);
    }
}
