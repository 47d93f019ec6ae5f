//! Scoring of a run's outputs against the generator's own answers: the
//! planted bugs and the ground-truth specs of `corpus::PmdCorpus`.

use anek::analysis::MethodId;
use anek::corpus::PmdCorpus;
use anek::plural::CheckResult;
use anek::spec_lang::{MethodSpec, PermAtom, ALIVE};
use std::collections::{BTreeMap, BTreeSet};

/// Quality of one analysis against its corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Planted bugs with at least one warning ÷ planted bugs.
    pub bug_recall: f64,
    /// Warnings on methods that are not planted bugs (traps included).
    pub false_warnings: usize,
    /// Atom-level F1 of inferred specs against the ground truth.
    pub spec_f1: f64,
}

/// Scores `warnings` (PLURAL with the inferred specs overlaid) and
/// `specs` (the inferred specs) against `corpus`.
pub fn score(
    corpus: &PmdCorpus,
    warnings: &CheckResult,
    specs: &BTreeMap<MethodId, MethodSpec>,
) -> Quality {
    let bugs: BTreeSet<&MethodId> = corpus.bugs.iter().map(|p| &p.method).collect();
    let warned: BTreeSet<&MethodId> = warnings.warnings.iter().map(|w| &w.method).collect();
    let found = bugs.iter().filter(|b| warned.contains(*b)).count();
    let false_warnings = warnings.warnings.iter().filter(|w| !bugs.contains(&w.method)).count();
    Quality {
        bug_recall: if bugs.is_empty() { 1.0 } else { found as f64 / bugs.len() as f64 },
        false_warnings,
        spec_f1: spec_f1(&corpus.truth, specs),
    }
}

/// Flattens a spec into comparable `(clause, target, kind, state)` facts;
/// the implicit `ALIVE` state is made explicit.
fn atom_facts(spec: &MethodSpec) -> BTreeSet<(String, String, String, String)> {
    let mut facts = BTreeSet::new();
    let mut add = |clause: &str, atoms: &[PermAtom]| {
        for a in atoms {
            facts.insert((
                clause.to_string(),
                format!("{:?}", a.target),
                format!("{:?}", a.kind),
                a.state.as_deref().unwrap_or(ALIVE).to_string(),
            ));
        }
    };
    add("requires", &spec.requires.atoms);
    add("ensures", &spec.ensures.atoms);
    facts
}

/// Atom-level F1 over the methods the ground truth keys (the scoring of
/// the `quality` bench binary): each fact is one retrievable item.
pub fn spec_f1(
    truth: &BTreeMap<MethodId, MethodSpec>,
    inferred: &BTreeMap<MethodId, MethodSpec>,
) -> f64 {
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (id, want) in truth {
        let want = atom_facts(want);
        let got = inferred.get(id).map(atom_facts).unwrap_or_default();
        tp += want.intersection(&got).count();
        fp += got.difference(&want).count();
        fn_ += want.difference(&got).count();
    }
    let ratio = |n: usize, d: usize| if d == 0 { 1.0 } else { n as f64 / d as f64 };
    let (p, r) = (ratio(tp, tp + fp), ratio(tp, tp + fn_));
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}
