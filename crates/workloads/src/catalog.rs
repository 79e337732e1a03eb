//! The five workloads of Table 2, as synthetic builders.
//!
//! Each builder lays out segments in a fresh [`PageSpace`], instantiates
//! per-process streams, and picks the scheduler model the paper describes.
//! Pool sizes, weights and localities are tuned so that, run through the
//! machine simulator, the workloads land near the characterisation of
//! Table 3 (mode split, stall split) and Figure 4 (read-chain profile).

use crate::{
    PageSpace, PhaseSchedule, Pinned, ProcessStream, RotatingAffinity, Segment, WithIdle,
    WorkloadSpec,
};
use ccnuma_types::{MachineConfig, Ns, Pid};
use core::fmt;

/// Run-length control: references simulated per CPU.
///
/// The paper's runs are 30–90 s of machine time; the reproduction scales
/// that down. [`Scale::quick`] is for unit tests, [`Scale::standard`]
/// for the main experiments, [`Scale::full`] for the read-chain figure,
/// which needs long runs for ≥512-miss chains to exist at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// References to simulate per CPU.
    pub refs_per_cpu: u64,
}

impl Scale {
    /// Tiny runs for tests (40 k references per CPU).
    pub fn quick() -> Scale {
        Scale {
            refs_per_cpu: 40_000,
        }
    }

    /// The default experiment length (800 k references per CPU —
    /// roughly half a second of machine time, several counter reset
    /// intervals, enough for one-time page moves to amortize).
    pub fn standard() -> Scale {
        Scale {
            refs_per_cpu: 800_000,
        }
    }

    /// Long runs (2 M references per CPU) for Figure 4's read chains.
    pub fn full() -> Scale {
        Scale {
            refs_per_cpu: 2_000_000,
        }
    }
}

impl Default for Scale {
    fn default() -> Scale {
        Scale::standard()
    }
}

/// The five workloads of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// 6 Flashlite + 6 VCS: multiprogrammed compute-intensive serial jobs.
    Engineering,
    /// A single parallel graphics application, pinned one thread per CPU.
    Raytrace,
    /// Raytrace + Volume rendering + Ocean under space partitioning.
    Splash,
    /// Sybase running decision-support queries on four processors.
    Database,
    /// Four 4-way parallel makes of gnuchess: kernel-intensive.
    Pmake,
}

impl WorkloadKind {
    /// All five, in the paper's order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Engineering,
        WorkloadKind::Raytrace,
        WorkloadKind::Splash,
        WorkloadKind::Database,
        WorkloadKind::Pmake,
    ];

    /// The four workloads of Section 7 (large *user* stall time).
    pub const USER_SET: [WorkloadKind; 4] = [
        WorkloadKind::Engineering,
        WorkloadKind::Raytrace,
        WorkloadKind::Splash,
        WorkloadKind::Database,
    ];

    /// Table 2's one-line description.
    pub fn description(self) -> &'static str {
        match self {
            WorkloadKind::Engineering => {
                "multiprogrammed, compute-intensive serial applications (6 Flashlite, 6 Verilog)"
            }
            WorkloadKind::Raytrace => "parallel graphics application (rendering a scene)",
            WorkloadKind::Splash => {
                "multiprogrammed, compute-intensive parallel applications (Raytrace, Volrend, Ocean)"
            }
            WorkloadKind::Database => "commercial database (decision support queries)",
            WorkloadKind::Pmake => "software development (4 four-way parallel makes)",
        }
    }

    /// Builds the workload at the given scale.
    pub fn build(self, scale: Scale) -> WorkloadSpec {
        match self {
            WorkloadKind::Engineering => engineering(scale),
            WorkloadKind::Raytrace => raytrace(scale),
            WorkloadKind::Splash => splash(scale),
            WorkloadKind::Database => database(scale),
            WorkloadKind::Pmake => pmake(scale),
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WorkloadKind::Engineering => "Engineering",
            WorkloadKind::Raytrace => "Raytrace",
            WorkloadKind::Splash => "Splash",
            WorkloadKind::Database => "Database",
            WorkloadKind::Pmake => "Pmake",
        })
    }
}

/// 6 Flashlite + 6 VCS. Large private data (migration wins when the
/// scheduler rebalances) and large shared code segments per application
/// (replication wins — VCS compiles the circuit into code, hence the 34 %
/// instruction stall of Table 3).
fn engineering(scale: Scale) -> WorkloadSpec {
    let config = MachineConfig::cc_numa();
    let mut space = PageSpace::new();
    let vcs_code = space.reserve(500);
    let fl_code = space.reserve(250);
    let kcode = space.reserve(60);
    let mut streams = Vec::new();
    for i in 0..12u32 {
        let private = space.reserve(450);
        let is_vcs = i >= 6;
        let code = if is_vcs {
            Segment::code("vcs-text", vcs_code, 500, 0.55).with_locality(0.20, 0.88)
        } else {
            Segment::code("fl-text", fl_code, 250, 0.45).with_locality(0.25, 0.88)
        };
        let data_weight = if is_vcs { 0.45 } else { 0.55 };
        let data =
            Segment::data("private", private, 450, data_weight, 0.25).with_locality(0.12, 0.88);
        let ktext = Segment::code("kcode", kcode, 60, 0.02).kernel();
        streams.push(ProcessStream::new(Pid(i), vec![code, data, ktext]));
    }
    WorkloadSpec {
        name: "Engineering".into(),
        streams,
        scheduler: Box::new(RotatingAffinity::new(8, 12, 30).with_max_shifts(1)),
        total_refs: scale.refs_per_cpu * 8,
        seed: 0xE46,
        footprint_pages: space.allocated(),
        config,
    }
}

/// One parallel ray tracer, pinned. Unstructured read-only accesses to a
/// large shared scene dominate: most data misses sit in very long read
/// chains (Figure 4), so replication is the win.
fn raytrace(scale: Scale) -> WorkloadSpec {
    let config = MachineConfig::cc_numa();
    let mut space = PageSpace::new();
    let scene_core = space.reserve(400);
    let scene_regions = space.reserve(1080);
    let code = space.reserve(90);
    let kshared = space.reserve(60);
    let kcode = space.reserve(60);
    let framebuffer = space.reserve(800);
    let mut streams = Vec::new();
    for i in 0..8u32 {
        let slice = ccnuma_types::VirtPage(framebuffer.0 + i as u64 * 100);
        let region = ccnuma_types::VirtPage(scene_regions.0 + i as u64 * 135);
        let kstack = space.reserve(20);
        streams.push(ProcessStream::new(
            Pid(i),
            vec![
                Segment::data("scene-core", scene_core, 400, 0.28, 0.0).with_locality(0.25, 0.85),
                Segment::data("scene-region", region, 135, 0.16, 0.0).with_locality(0.3, 0.85),
                Segment::data("scene-leak", scene_regions, 1080, 0.06, 0.0).with_locality(1.0, 1.0),
                // The worker's own image slice: unshared, write-heavy.
                Segment::data("fb-slice", slice, 100, 0.10, 0.35).with_locality(0.3, 0.85),
                // Task stealing crosses slice boundaries occasionally, so
                // some slice pages are first-touched by the wrong worker
                // and must migrate home.
                Segment::data("fb-steal", framebuffer, 800, 0.04, 0.35).with_locality(1.0, 1.0),
                Segment::code("text", code, 90, 0.10),
                Segment::data("kshared", kshared, 60, 0.12, 0.40).kernel(),
                Segment::data("kstack", kstack, 20, 0.08, 0.30).kernel(),
                Segment::code("kcode", kcode, 60, 0.03).kernel(),
            ],
        ));
    }
    WorkloadSpec {
        name: "Raytrace".into(),
        streams,
        scheduler: Box::new(Pinned::one_per_cpu(8)),
        total_refs: scale.refs_per_cpu * 8,
        seed: 0x4A7,
        footprint_pages: space.allocated(),
        config,
    }
}

/// Raytrace + Volrend + Ocean entering and leaving under space
/// partitioning. Ocean's nearest-neighbour grids migrate; the renderers'
/// read-mostly data replicates; shrunken per-node memory makes some nodes
/// run dry (Table 4's 24 % "no page" for splash).
fn splash(scale: Scale) -> WorkloadSpec {
    let config = MachineConfig::cc_numa().with_frames_per_node(800);
    let mut space = PageSpace::new();
    let ray_scene = space.reserve(900);
    let ray_code = space.reserve(80);
    let vol_data = space.reserve(800);
    let vol_code = space.reserve(60);
    let ocean_boundary = space.reserve(40);
    let ocean_code = space.reserve(40);
    let kshared = space.reserve(100);
    let kcode = space.reserve(60);

    let mut streams = Vec::new();
    // Ocean: pids 0-3.
    for i in 0..4u32 {
        let grid = space.reserve(600);
        streams.push(ProcessStream::new(
            Pid(i),
            vec![
                Segment::data("grid", grid, 600, 0.70, 0.35).with_locality(0.12, 0.85),
                Segment::data("boundary", ocean_boundary, 40, 0.05, 0.50).with_locality(0.5, 0.5),
                Segment::code("ocean-text", ocean_code, 40, 0.10),
                Segment::data("kshared", kshared, 100, 0.05, 0.40)
                    .with_locality(0.7, 0.5)
                    .kernel(),
                Segment::code("kcode", kcode, 60, 0.03).kernel(),
            ],
        ));
    }
    // Raytrace: pids 4-7.
    for i in 4..8u32 {
        let private = space.reserve(100);
        streams.push(ProcessStream::new(
            Pid(i),
            vec![
                Segment::data("scene", ray_scene, 900, 0.50, 0.0).with_locality(0.10, 0.85),
                Segment::data("private", private, 100, 0.22, 0.30),
                Segment::code("ray-text", ray_code, 80, 0.16),
                Segment::data("kshared", kshared, 100, 0.05, 0.40)
                    .with_locality(0.7, 0.5)
                    .kernel(),
                Segment::code("kcode", kcode, 60, 0.03).kernel(),
            ],
        ));
    }
    // Volrend: pids 8-11.
    for i in 8..12u32 {
        let private = space.reserve(80);
        streams.push(ProcessStream::new(
            Pid(i),
            vec![
                Segment::data("volume", vol_data, 800, 0.46, 0.0).with_locality(0.10, 0.85),
                Segment::data("private", private, 80, 0.22, 0.30),
                Segment::code("vol-text", vol_code, 60, 0.20),
                Segment::data("kshared", kshared, 100, 0.05, 0.40)
                    .with_locality(0.7, 0.5)
                    .kernel(),
                Segment::code("kcode", kcode, 60, 0.03).kernel(),
            ],
        ));
    }

    let p = |v: Vec<u32>| -> Vec<Option<Pid>> { v.into_iter().map(|i| Some(Pid(i))).collect() };
    let phases = vec![
        // Ocean + Raytrace share the machine.
        (Ns::ZERO, p(vec![0, 1, 2, 3, 4, 5, 6, 7])),
        // Volrend arrives: space repartitioned, several jobs change CPUs.
        (Ns::from_ms(8), p(vec![0, 1, 2, 4, 5, 6, 8, 9])),
        // Ocean departs: renderers spread out.
        (Ns::from_ms(18), p(vec![4, 5, 6, 7, 8, 9, 10, 11])),
    ];
    WorkloadSpec {
        name: "Splash".into(),
        streams,
        scheduler: Box::new(PhaseSchedule::new(phases)),
        total_refs: scale.refs_per_cpu * 8,
        seed: 0x59A5,
        footprint_pages: space.allocated(),
        config,
    }
}

/// Sybase decision support on four processors, engines pinned. 90 % of
/// the misses hit a handful of write-shared synchronisation pages that
/// the policy must leave alone (Table 4: 85 % no action); the tables are
/// read-mostly but cache well.
fn database(scale: Scale) -> WorkloadSpec {
    let config = MachineConfig::cc_numa().with_nodes(4);
    let mut space = PageSpace::new();
    let sync = space.reserve(12);
    let tables = space.reserve(3000);
    let code = space.reserve(50);
    let kcode = space.reserve(40);
    let mut streams = Vec::new();
    for i in 0..4u32 {
        let private = space.reserve(120);
        streams.push(ProcessStream::new(
            Pid(i),
            vec![
                Segment::data("sync", sync, 12, 0.50, 0.45).with_locality(0.5, 0.9),
                Segment::data("tables", tables, 3000, 0.38, 0.01).with_locality(0.10, 0.85),
                Segment::data("private", private, 120, 0.10, 0.30),
                Segment::code("text", code, 50, 0.05),
                Segment::code("kcode", kcode, 40, 0.02).kernel(),
            ],
        ));
    }
    WorkloadSpec {
        name: "Database".into(),
        streams,
        scheduler: Box::new(WithIdle::new(Pinned::one_per_cpu(4), 5, 8)),
        total_refs: scale.refs_per_cpu * 4,
        seed: 0xDB,
        footprint_pages: space.allocated(),
        config,
    }
}

/// Four 4-way parallel makes. Kernel references dominate (Table 3: 44 %
/// kernel time, 29 % kernel data stall); §8.2 shows almost nothing beyond
/// first touch helps the kernel's pages.
fn pmake(scale: Scale) -> WorkloadSpec {
    let config = MachineConfig::cc_numa();
    let mut space = PageSpace::new();
    let kcode = space.reserve(160);
    let kshared = space.reserve(200);
    let ucode = space.reserve(120);
    let mut streams = Vec::new();
    for i in 0..16u32 {
        let kpriv = space.reserve(30);
        let upriv = space.reserve(150);
        streams.push(ProcessStream::new(
            Pid(i),
            vec![
                Segment::code("kcode", kcode, 160, 0.12).kernel(),
                Segment::data("kshared", kshared, 200, 0.30, 0.35)
                    .with_locality(0.3, 0.8)
                    .kernel(),
                Segment::data("kpriv", kpriv, 30, 0.14, 0.40).kernel(),
                Segment::code("ucode", ucode, 120, 0.12),
                Segment::data("upriv", upriv, 150, 0.32, 0.30),
            ],
        ));
    }
    WorkloadSpec {
        name: "Pmake".into(),
        streams,
        scheduler: Box::new(WithIdle::new(RotatingAffinity::new(8, 16, 3), 7, 9)),
        total_refs: scale.refs_per_cpu * 8,
        seed: 0x94AC,
        footprint_pages: space.allocated(),
        config,
    }
}

/// A raytrace-like workload parameterised by node count, built from the
/// workload-construction primitives: one pinned reader per node sharing
/// one read-mostly scene. Used by the scaling experiment, where random
/// placement finds a page locally with probability 1/N.
pub fn shared_reader(nodes: u16, scale: Scale) -> WorkloadSpec {
    let config = MachineConfig::cc_numa().with_nodes(nodes);
    let mut space = PageSpace::new();
    let scene = space.reserve(1200);
    let code = space.reserve(90);
    let mut streams = Vec::new();
    for i in 0..nodes as u32 {
        let private = space.reserve(120);
        streams.push(ProcessStream::new(
            Pid(i),
            vec![
                Segment::data("scene", scene, 1200, 0.6, 0.0).with_locality(0.10, 0.85),
                Segment::data("private", private, 120, 0.3, 0.3),
                Segment::code("text", code, 90, 0.1),
            ],
        ));
    }
    WorkloadSpec {
        name: format!("shared-reader-{nodes}"),
        streams,
        scheduler: Box::new(Pinned::one_per_cpu(nodes)),
        total_refs: scale.refs_per_cpu * nodes as u64,
        seed: 0x5CA1E,
        footprint_pages: space.allocated(),
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_types::Mode;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_workloads_build_and_validate() {
        for kind in WorkloadKind::ALL {
            let spec = kind.build(Scale::quick());
            spec.config.validate().unwrap();
            assert!(!spec.streams.is_empty(), "{kind}");
            assert!(spec.total_refs > 0);
            assert!(spec.footprint_pages > 0);
            assert!(!kind.description().is_empty());
            // Streams are indexed by pid.
            for (i, s) in spec.streams.iter().enumerate() {
                assert_eq!(s.pid(), Pid(i as u32), "{kind}");
            }
        }
    }

    #[test]
    fn page_bound_equals_footprint() {
        let specs = WorkloadKind::ALL
            .iter()
            .map(|kind| kind.build(Scale::quick()))
            .chain([2, 8, 16].map(|nodes| shared_reader(nodes, Scale::quick())));
        for spec in specs {
            assert_eq!(spec.page_bound(), spec.footprint_pages, "{}", spec.name);
        }
    }

    #[test]
    fn database_uses_four_cpus() {
        let spec = WorkloadKind::Database.build(Scale::quick());
        assert_eq!(spec.config.nodes, 4);
        assert_eq!(spec.streams.len(), 4);
    }

    #[test]
    fn splash_shrinks_node_memory() {
        let spec = WorkloadKind::Splash.build(Scale::quick());
        assert!(spec.config.frames_per_node < MachineConfig::cc_numa().frames_per_node);
        // Footprint still fits in total machine memory.
        assert!(spec.footprint_pages < spec.config.total_frames());
        assert_eq!(spec.streams.len(), 12);
    }

    #[test]
    fn engineering_has_twelve_processes_on_eight_cpus() {
        let spec = WorkloadKind::Engineering.build(Scale::quick());
        assert_eq!(spec.streams.len(), 12);
        assert_eq!(spec.config.nodes, 8);
    }

    #[test]
    fn pmake_is_kernel_heavy() {
        let mut spec = WorkloadKind::Pmake.build(Scale::quick());
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let mut kernel = 0;
        let total = 10_000;
        for _ in 0..total {
            for s in spec.streams.iter_mut() {
                if s.next_ref(&mut rng).mode == Mode::Kernel {
                    kernel += 1;
                }
            }
        }
        let frac = kernel as f64 / (total * 16) as f64;
        assert!(
            (0.45..0.70).contains(&frac),
            "kernel ref fraction {frac} should be over half"
        );
    }

    #[test]
    fn raytrace_scene_dominates_data_refs() {
        let mut spec = WorkloadKind::Raytrace.build(Scale::quick());
        let mut rng = SmallRng::seed_from_u64(1);
        let s = &mut spec.streams[0];
        let mut scene = 0;
        let total = 10_000;
        for _ in 0..total {
            let r = s.next_ref(&mut rng);
            if r.page.0 < 1200 {
                scene += 1;
            }
        }
        let frac = scene as f64 / total as f64;
        assert!((0.42..0.58).contains(&frac), "scene fraction {frac}");
    }

    #[test]
    fn database_misses_concentrate_on_sync_pages() {
        let mut spec = WorkloadKind::Database.build(Scale::quick());
        let mut rng = SmallRng::seed_from_u64(2);
        let s = &mut spec.streams[0];
        let mut sync = 0;
        let total = 10_000;
        for _ in 0..total {
            if s.next_ref(&mut rng).page.0 < 12 {
                sync += 1;
            }
        }
        let frac = sync as f64 / total as f64;
        assert!((0.45..0.65).contains(&frac), "sync fraction {frac}");
    }

    #[test]
    fn footprints_are_plausible() {
        // All workloads are multi-megabyte but fit the 128 MB machine.
        for kind in WorkloadKind::ALL {
            let spec = kind.build(Scale::quick());
            let mb = spec.footprint_mb();
            assert!((5.0..120.0).contains(&mb), "{kind}: {mb} MB");
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().refs_per_cpu < Scale::standard().refs_per_cpu);
        assert!(Scale::standard().refs_per_cpu < Scale::full().refs_per_cpu);
        assert_eq!(Scale::default(), Scale::standard());
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<String> = WorkloadKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            names,
            vec!["Engineering", "Raytrace", "Splash", "Database", "Pmake"]
        );
    }
}
