//! Pins the Section 8 replay output: the `ccnuma-sweep/2` document for
//! the six-policy default grid, replayed cell by cell with `eval_cell`
//! over a quick in-memory Raytrace trace, must hash to a fixed FNV-1a
//! digest. Any change to placement, copy-set order, stall accounting or
//! the placers' tie-breaks moves the digest.

use ccnuma_locality::prelude::*;
use ccnuma_obs::fnv1a64;
use ccnuma_tracestore::{eval_cell, SweepCell, SweepPolicy, SweepReport, SweepSpec};
use std::collections::HashSet;

/// FNV-1a 64 of the document rendered below.
const SWEEP_DIGEST: u64 = 0x5921_247d_49eb_6d61;

#[test]
fn six_policy_sweep_document_is_pinned() {
    let run = Machine::new(
        WorkloadKind::Raytrace.build(Scale::quick()),
        RunOptions::new(PolicyChoice::first_touch()).with_trace(),
    )
    .run();
    let records = run.trace.as_ref().expect("traced").as_slice();
    let nodes = MachineConfig::cc_numa().nodes;
    let other = Ns::from_ms(5);
    let spec = SweepSpec {
        policies: SweepPolicy::ALL.to_vec(),
        ..SweepSpec::default_grid()
    };

    let mut keys = HashSet::new();
    let cells: Vec<SweepCell> = spec
        .cells()
        .into_iter()
        .map(|params| {
            keys.insert(params.memo_key());
            let (report, n) = eval_cell(&params, nodes, other, spec.filter, records);
            assert_eq!(n, records.len() as u64);
            SweepCell { params, report }
        })
        .collect();
    assert_eq!(cells.len(), 24);
    let report = SweepReport {
        nodes,
        records: records.len() as u64,
        cells,
        unique_replays: keys.len(),
    };
    assert_eq!(report.unique_replays, 15);

    let doc = report.to_json("Raytrace/quick/FT");
    assert_eq!(
        fnv1a64(doc.as_bytes()),
        SWEEP_DIGEST,
        "sweep document changed:\n{doc}"
    );
}
