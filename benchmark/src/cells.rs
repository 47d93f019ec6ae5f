//! Work accounting by constraint family, computed from outside the
//! program: static table cells per `observe::FactorFamily` of a method's
//! skeleton, and the cells a run swept, weighting each committed solve by
//! its sweep-equivalents (`SolveSpan.updates` ÷ compiled edges).

use anek::anek_core::MethodSkeleton;
use anek::observe::{FactorFamily, SolveSpan};
use std::collections::BTreeMap;

/// Every family a model can contain, in reporting order. `FaultNaN` is
/// left out: only injected faults emit it.
pub const FAMILIES: [FactorFamily; 14] = [
    FactorFamily::ExactlyOne,
    FactorFamily::L1Equal,
    FactorFamily::L1Split,
    FactorFamily::L2Incoming,
    FactorFamily::L2CallMerge,
    FactorFamily::L3FieldWrite,
    FactorFamily::H1Ctor,
    FactorFamily::H2PrePost,
    FactorFamily::H3Create,
    FactorFamily::H4Setter,
    FactorFamily::H5Sync,
    FactorFamily::SpecPrior,
    FactorFamily::ApiProtocol,
    FactorFamily::BranchRefine,
];

/// The static shape of one method's compiled model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelShape {
    /// Factor-graph variables.
    pub vars: usize,
    /// Factors.
    pub factors: usize,
    /// Variable–factor edges of the compiled arena (the unit `updates`
    /// counts per sweep).
    pub edges: usize,
    /// Static table cells (`2^arity` per factor) by family.
    pub cells: BTreeMap<FactorFamily, u64>,
}

/// Walks the skeleton's factors alongside its family tags.
///
/// # Panics
///
/// Panics when the tags are not parallel to the factors, which would make
/// the attribution meaningless.
pub fn shape(skeleton: &MethodSkeleton) -> ModelShape {
    let factors = skeleton.graph.factors();
    assert_eq!(factors.len(), skeleton.families.len(), "family tags not parallel to factors");
    let mut cells = BTreeMap::new();
    for (factor, family) in factors.iter().zip(&skeleton.families) {
        *cells.entry(*family).or_insert(0) += factor.table().len() as u64;
    }
    ModelShape {
        vars: skeleton.graph.num_vars(),
        factors: factors.len(),
        edges: skeleton.compiled().num_edges(),
        cells,
    }
}

/// Σ over `spans` of (`updates` ÷ the method's edges) × the method's cells
/// per family. Spans of methods without a shape (none in a replayed run)
/// and cache hits (zero updates) add nothing.
pub fn cells_swept(
    spans: &[SolveSpan],
    shapes: &BTreeMap<String, ModelShape>,
) -> BTreeMap<FactorFamily, f64> {
    let mut swept = BTreeMap::new();
    for span in spans {
        let Some(shape) = shapes.get(&span.method) else { continue };
        if shape.edges == 0 {
            continue;
        }
        let sweeps = span.updates as f64 / shape.edges as f64;
        for (family, cells) in &shape.cells {
            *swept.entry(*family).or_insert(0.0) += sweeps * *cells as f64;
        }
    }
    swept
}
