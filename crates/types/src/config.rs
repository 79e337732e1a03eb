//! Machine configuration mirroring Section 5 of the paper.

use crate::{ConfigError, Frame, NodeId, Ns, ProcId, Topology};
use core::fmt;

/// The interconnect class being modelled.
///
/// The paper evaluates three latency regimes for the same machine:
/// CC-NUMA (custom interconnect, 1200 ns minimum remote miss), CC-NOW
/// (commodity fiber between workstations, 3000 ns) and, in Section 7.1.2,
/// a zero-network-delay configuration used to isolate contention effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetworkKind {
    /// Custom scalable interconnect (Stanford FLASH): remote ≈ 4× local.
    #[default]
    CcNuma,
    /// Network of workstations (Distributed FLASH): remote ≈ 10× local.
    CcNow,
    /// Remote latency equals local latency plus directory occupancy only;
    /// used to show locality still matters without wire delay.
    ZeroDelay,
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetworkKind::CcNuma => "CC-NUMA",
            NetworkKind::CcNow => "CC-NOW",
            NetworkKind::ZeroDelay => "zero-delay",
        })
    }
}

/// Hardware parameters of the simulated machine.
///
/// Defaults come from Section 5 of the paper: an 8-node FLASH with
/// 300 MHz processors, 64-entry TLBs, a unified 512 KB two-way L2 with a
/// 50 ns hit time, 300 ns minimum local and 1200 ns minimum remote memory
/// access (CC-NUMA).
///
/// Use the named constructors and builder-style setters:
///
/// ```
/// use ccnuma_types::{MachineConfig, NetworkKind, Ns};
///
/// let now = MachineConfig::cc_now();
/// assert_eq!(now.remote_latency, Ns(3000));
///
/// let small = MachineConfig::cc_numa().with_nodes(4).with_frames_per_node(1024);
/// assert_eq!(small.total_frames(), 4096);
/// small.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of NUMA nodes.
    pub nodes: u16,
    /// Processors per node (1 on FLASH).
    pub procs_per_node: u16,
    /// Page size in bytes (4 KB in the paper's overhead math, §7.2.1).
    pub page_size: u32,
    /// Cache line size in bytes (128 B, FLASH's transfer unit).
    pub line_size: u32,
    /// Unified second-level cache capacity in bytes per processor.
    pub l2_bytes: u32,
    /// L2 associativity (2-way in the paper).
    pub l2_ways: u32,
    /// L2 hit time.
    pub l2_hit: Ns,
    /// Number of TLB entries per processor (64 in the paper).
    pub tlb_entries: u32,
    /// Minimum local memory access time (300 ns).
    pub local_latency: Ns,
    /// Minimum remote memory access time (1200 ns CC-NUMA, 3000 ns CC-NOW).
    pub remote_latency: Ns,
    /// Interconnect class (changes `remote_latency` via the constructors).
    pub network: NetworkKind,
    /// Physical page frames per node. Controls memory pressure: the splash
    /// workload deliberately exhausts individual nodes (§7.1.1).
    pub frames_per_node: u32,
    /// Average nanoseconds of compute between two L2 references, i.e. the
    /// non-stall CPI component at 300 MHz. Only affects absolute times.
    pub compute_ns_per_ref: Ns,
    /// Optional explicit topology. `None` means the paper's flat machine:
    /// `local_latency` on-node, `remote_latency` everywhere else (see
    /// [`MachineConfig::effective_topology`]). When set, `local_latency`
    /// and `remote_latency` hold the flat-preset *view* of the topology
    /// (best on-node read / worst read path) so legacy consumers keep
    /// sensible scalars.
    pub topology: Option<Topology>,
}

impl MachineConfig {
    /// The paper's CC-NUMA configuration (Section 5).
    pub fn cc_numa() -> MachineConfig {
        MachineConfig {
            nodes: 8,
            procs_per_node: 1,
            page_size: 4096,
            line_size: 128,
            l2_bytes: 512 * 1024,
            l2_ways: 2,
            l2_hit: Ns(50),
            tlb_entries: 64,
            local_latency: Ns(300),
            remote_latency: Ns(1200),
            network: NetworkKind::CcNuma,
            frames_per_node: 4096, // 16 MB per node, 128 MB total
            compute_ns_per_ref: Ns(60),
            topology: None,
        }
    }

    /// The paper's CC-NOW configuration: identical hardware, but ~2000 ns of
    /// fiber latency pushes the minimum remote miss to 3000 ns (§7.1.3).
    pub fn cc_now() -> MachineConfig {
        MachineConfig {
            remote_latency: Ns(3000),
            network: NetworkKind::CcNow,
            ..MachineConfig::cc_numa()
        }
    }

    /// The zero-interconnect-delay configuration of §7.1.2: remote misses
    /// pay only directory occupancy above the local latency. Contention is
    /// still modelled, which is the point of the experiment.
    pub fn zero_delay() -> MachineConfig {
        MachineConfig {
            remote_latency: Ns(400),
            network: NetworkKind::ZeroDelay,
            ..MachineConfig::cc_numa()
        }
    }

    /// The database workload runs on four processors (Table 2).
    ///
    /// Drops any explicit topology (its node count would no longer match);
    /// the flat view survives through `local_latency`/`remote_latency`.
    #[must_use]
    pub fn with_nodes(mut self, nodes: u16) -> MachineConfig {
        self.nodes = nodes;
        self.topology = None;
        self
    }

    /// Overrides per-node memory capacity (frames).
    #[must_use]
    pub fn with_frames_per_node(mut self, frames: u32) -> MachineConfig {
        self.frames_per_node = frames;
        self
    }

    /// Overrides the remote latency, keeping everything else. Drops any
    /// explicit topology — this setter *means* "the flat machine with
    /// this remote latency".
    #[must_use]
    pub fn with_remote_latency(mut self, latency: Ns) -> MachineConfig {
        self.remote_latency = latency;
        self.topology = None;
        self
    }

    /// Installs an explicit topology and syncs the flat-view scalars:
    /// `local_latency` becomes the cheapest on-node read and
    /// `remote_latency` the worst read path, so kernel cost tables and
    /// legacy consumers track the topology they run on.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> MachineConfig {
        self.local_latency = topology.min_local_read_latency();
        self.remote_latency = topology.max_read_latency();
        self.topology = Some(topology);
        self
    }

    /// The topology this machine runs on: the explicit one when set,
    /// otherwise the paper's flat machine built from
    /// `local_latency`/`remote_latency`.
    pub fn effective_topology(&self) -> Topology {
        match &self.topology {
            Some(t) => t.clone(),
            None => Topology::flat(self.nodes, self.local_latency, self.remote_latency),
        }
    }

    /// Total processors in the machine.
    #[inline]
    pub fn procs(&self) -> u16 {
        self.nodes * self.procs_per_node
    }

    /// The highest-numbered processor, convenient for doc examples.
    #[inline]
    pub fn last_proc(&self) -> ProcId {
        ProcId(self.procs() - 1)
    }

    /// The node that owns a processor.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range for this configuration.
    #[inline]
    pub fn node_of_proc(&self, proc: ProcId) -> NodeId {
        assert!(
            proc.0 < self.procs(),
            "processor {proc} out of range for {} procs",
            self.procs()
        );
        NodeId(proc.0 / self.procs_per_node)
    }

    /// [`node_of_proc`](MachineConfig::node_of_proc) for every processor,
    /// indexed by processor number: a per-record loop indexes this table
    /// instead of re-checking and dividing on every record.
    pub fn proc_nodes(&self) -> Vec<NodeId> {
        (0..self.procs())
            .map(|p| self.node_of_proc(ProcId(p)))
            .collect()
    }

    /// The home node of a physical frame. Frames are numbered node-major:
    /// node 0 owns frames `0..frames_per_node`, node 1 the next block, etc.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range for this configuration.
    #[inline]
    pub fn node_of_frame(&self, frame: Frame) -> NodeId {
        let node = frame.0 / self.frames_per_node as u64;
        assert!(
            node < self.nodes as u64,
            "frame {frame} out of range for {} nodes x {} frames",
            self.nodes,
            self.frames_per_node
        );
        NodeId(node as u16)
    }

    /// First frame number owned by `node`.
    #[inline]
    pub fn first_frame_of(&self, node: NodeId) -> Frame {
        Frame(node.0 as u64 * self.frames_per_node as u64)
    }

    /// Total physical frames in the machine.
    #[inline]
    pub fn total_frames(&self) -> u64 {
        self.nodes as u64 * self.frames_per_node as u64
    }

    /// Cache lines per page (32 with 4 KB pages and 128 B lines).
    #[inline]
    pub fn lines_per_page(&self) -> u32 {
        self.page_size / self.line_size
    }

    /// Number of sets in the L2 cache.
    #[inline]
    pub fn l2_sets(&self) -> u32 {
        self.l2_bytes / (self.line_size * self.l2_ways)
    }

    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field when a field is
    /// zero, a size is not a power of two, or the line size exceeds the
    /// page size.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pow2(v: u32) -> bool {
            v != 0 && v & (v - 1) == 0
        }
        if self.nodes == 0 {
            return Err(ConfigError::new("nodes must be non-zero"));
        }
        if self.procs_per_node == 0 {
            return Err(ConfigError::new("procs_per_node must be non-zero"));
        }
        if !pow2(self.page_size) {
            return Err(ConfigError::new("page_size must be a power of two"));
        }
        if !pow2(self.line_size) {
            return Err(ConfigError::new("line_size must be a power of two"));
        }
        if self.line_size > self.page_size {
            return Err(ConfigError::new("line_size must not exceed page_size"));
        }
        if !pow2(self.l2_bytes) {
            return Err(ConfigError::new("l2_bytes must be a power of two"));
        }
        if self.l2_ways == 0 || self.l2_sets() == 0 {
            return Err(ConfigError::new("l2 geometry must be non-degenerate"));
        }
        if self.tlb_entries == 0 {
            return Err(ConfigError::new("tlb_entries must be non-zero"));
        }
        if self.frames_per_node == 0 {
            return Err(ConfigError::new("frames_per_node must be non-zero"));
        }
        if self.remote_latency < self.local_latency {
            return Err(ConfigError::new(
                "remote_latency must be at least local_latency",
            ));
        }
        if let Some(topo) = &self.topology {
            topo.validate()?;
            if topo.nodes() != self.nodes {
                return Err(ConfigError::NodeCountMismatch {
                    topology: topo.nodes(),
                    machine: self.nodes,
                });
            }
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::cc_numa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let c = MachineConfig::cc_numa();
        c.validate().unwrap();
        assert_eq!(c.procs(), 8);
        assert_eq!(c.lines_per_page(), 32);
        assert_eq!(c.l2_sets(), 2048);
        assert_eq!(c.remote_latency.0, 4 * c.local_latency.0);
    }

    #[test]
    fn cc_now_raises_remote_latency_only() {
        let numa = MachineConfig::cc_numa();
        let now = MachineConfig::cc_now();
        now.validate().unwrap();
        assert_eq!(now.remote_latency, Ns(3000));
        assert_eq!(now.local_latency, numa.local_latency);
        assert_eq!(now.network, NetworkKind::CcNow);
    }

    #[test]
    fn zero_delay_is_nearly_uniform() {
        let z = MachineConfig::zero_delay();
        z.validate().unwrap();
        assert!(z.remote_latency < MachineConfig::cc_numa().remote_latency);
        assert!(z.remote_latency >= z.local_latency);
    }

    #[test]
    fn proc_and_frame_mapping() {
        let c = MachineConfig::cc_numa();
        assert_eq!(c.node_of_proc(ProcId(0)), NodeId(0));
        assert_eq!(c.node_of_proc(ProcId(7)), NodeId(7));
        assert_eq!(c.node_of_frame(Frame(0)), NodeId(0));
        assert_eq!(c.node_of_frame(Frame(4096)), NodeId(1));
        assert_eq!(c.first_frame_of(NodeId(2)), Frame(8192));
        assert_eq!(c.total_frames(), 8 * 4096);
    }

    #[test]
    fn proc_node_table_matches_node_of_proc() {
        let mut c = MachineConfig::cc_numa().with_nodes(3);
        c.procs_per_node = 2;
        let table = c.proc_nodes();
        assert_eq!(table.len(), 6);
        for (p, &node) in table.iter().enumerate() {
            assert_eq!(node, c.node_of_proc(ProcId(p as u16)));
        }
        assert_eq!(table[5], NodeId(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn proc_mapping_bounds_checked() {
        let c = MachineConfig::cc_numa().with_nodes(4);
        let _ = c.node_of_proc(ProcId(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_mapping_bounds_checked() {
        let c = MachineConfig::cc_numa();
        let _ = c.node_of_frame(Frame(c.total_frames()));
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = MachineConfig::cc_numa();
        c.page_size = 3000;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::cc_numa();
        c.line_size = 8192;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::cc_numa();
        c.remote_latency = Ns(100);
        assert!(c.validate().is_err());

        let mut c = MachineConfig::cc_numa();
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::cc_numa();
        c.frames_per_node = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_setters() {
        let c = MachineConfig::cc_numa()
            .with_nodes(4)
            .with_frames_per_node(100)
            .with_remote_latency(Ns(5000));
        assert_eq!(c.nodes, 4);
        assert_eq!(c.frames_per_node, 100);
        assert_eq!(c.remote_latency, Ns(5000));
    }

    #[test]
    fn effective_topology_defaults_to_flat() {
        let c = MachineConfig::cc_numa();
        assert!(c.topology.is_none());
        let t = c.effective_topology();
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.read_latency(NodeId(0), NodeId(0)), Ns(300));
        assert_eq!(t.read_latency(NodeId(0), NodeId(1)), Ns(1200));
    }

    #[test]
    fn with_topology_syncs_the_flat_view() {
        let c = MachineConfig::cc_numa().with_topology(Topology::four_socket_hierarchical(8));
        c.validate().unwrap();
        assert_eq!(c.local_latency, Ns(300));
        assert_eq!(c.remote_latency, Ns(2100));
        // The flat setters mean "flat machine" and drop the topology.
        let back = c.clone().with_remote_latency(Ns(1200));
        assert!(back.topology.is_none());
        let renodes = c.with_nodes(4);
        assert!(renodes.topology.is_none());
        renodes.validate().unwrap();
    }

    #[test]
    fn validate_rejects_node_count_mismatch() {
        let mut c = MachineConfig::cc_numa().with_topology(Topology::two_socket(8));
        c.nodes = 4;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::NodeCountMismatch {
                topology: 8,
                machine: 4
            }
        );
    }

    #[test]
    fn large_machines_validate() {
        let c = MachineConfig::cc_numa()
            .with_nodes(128)
            .with_topology(Topology::cxl_tiered(128));
        c.validate().unwrap();
        assert_eq!(c.procs(), 128);
    }

    #[test]
    fn network_kind_display() {
        assert_eq!(NetworkKind::CcNuma.to_string(), "CC-NUMA");
        assert_eq!(NetworkKind::CcNow.to_string(), "CC-NOW");
        assert_eq!(NetworkKind::ZeroDelay.to_string(), "zero-delay");
    }
}
