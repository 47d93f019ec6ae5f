//! Pins the per-family work accounting on the paper's Figure 3 program:
//! static table cells are read off the skeleton's factors alongside its
//! family tags, and cells swept weight each committed solve by its
//! sweep-equivalents (`SolveSpan.updates` ÷ compiled edges).

use anek::anek_core::InferConfig;
use anek::factor_graph::BpSchedule;
use anek::observe::FactorFamily;
use anek_benchmark::cells::{self, FAMILIES};
use anek_benchmark::layers::{self, Program};
use anek_benchmark::spans::Spans;
use std::collections::BTreeMap;

fn figure3() -> (layers::Split, layers::Replay) {
    let sources = vec![anek::corpus::FIGURE3.to_string()];
    let mut config = InferConfig { max_iters: 64, ..InferConfig::default() };
    config.bp.schedule = BpSchedule::Residual;
    let program = Program { sources: &sources, config, protocols: &[] };
    let mut spans = Spans::default();
    let split = layers::split(&program, true, &mut spans).expect("figure 3 parses");
    let replay = layers::replay(&split, &mut spans);
    (split, replay)
}

#[test]
fn figure3_family_cells_and_sweeps_are_pinned() {
    let (split, replay) = figure3();
    let trace = split.result.trace.as_ref().expect("tracing was on");

    // Static cells: one 2^arity table per factor, attributed to its tag.
    for shape in replay.shapes.values() {
        let total: u64 = shape.cells.values().sum();
        assert!(total >= shape.factors as u64 * 2, "every factor has at least two cells");
        assert!(shape.cells.keys().all(|f| FAMILIES.contains(f)), "unexpected family");
    }
    let mut static_cells: BTreeMap<FactorFamily, u64> = BTreeMap::new();
    for shape in replay.shapes.values() {
        for (f, c) in &shape.cells {
            *static_cells.entry(*f).or_insert(0) += c;
        }
    }

    // Swept cells: recompute the weighting by hand for every span.
    let swept = cells::cells_swept(&trace.spans, &replay.shapes);
    let mut by_hand: BTreeMap<FactorFamily, f64> = BTreeMap::new();
    for span in &trace.spans {
        let shape = &replay.shapes[&span.method];
        for (f, c) in &shape.cells {
            *by_hand.entry(*f).or_insert(0.0) +=
                span.updates as f64 * *c as f64 / shape.edges as f64;
        }
    }
    for (f, v) in &by_hand {
        assert!((swept[f] - v).abs() <= 1e-9 * v.max(1.0), "{f:?}: {} vs {v}", swept[f]);
    }

    let pinned = |m: &BTreeMap<FactorFamily, u64>| {
        m.iter().map(|(f, c)| format!("{f:?}={c}")).collect::<Vec<_>>().join(" ")
    };
    let rounded: BTreeMap<FactorFamily, u64> =
        swept.iter().map(|(f, v)| (*f, v.round() as u64)).collect();
    assert_eq!(pinned(&static_cells), "ExactlyOne=10138 L1Equal=2232 L1Split=47816 L2Incoming=2688 L2CallMerge=2104 H1Ctor=6 H2PrePost=200 H3Create=14 ApiProtocol=256");
    assert_eq!(pinned(&rounded), "ExactlyOne=460741 L1Equal=103787 L1Split=2193435 L2Incoming=127429 L2CallMerge=96385 H1Ctor=286 H2PrePost=8254 H3Create=542 ApiProtocol=10602");
    // 30 committed solves over the 7 methods the replay rebuilt.
    assert_eq!((trace.spans.len(), replay.methods), (30, 7));
}
