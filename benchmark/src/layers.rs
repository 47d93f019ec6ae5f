//! The traced run: the program's pipeline taken apart into calls to each
//! layer's public functions, each timed by a span, plus a one-pass replay
//! of every solved method's model for the model and BP layers.

use crate::cells::{self, ModelShape, FAMILIES};
use crate::report::RunReport;
use crate::spans::Spans;
use anek::analysis::{MethodId, Pfg, ProgramIndex};
use anek::anek_core::{
    merged_states, CallerEvidence, InferConfig, InferResult, MethodSkeleton, ModelCtx,
};
use anek::factor_graph::Scratch;
use anek::java_syntax::parse;
use anek::plural::{CheckResult, SpecTable};
use anek::spec_lang::spec_of_method;
use anek::{apply_specs, render, Pipeline};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// What the program runs on a workload: the whole `Pipeline::run`
/// (check → infer → apply → check) over the printed sources.
#[derive(Debug, Clone)]
pub struct Program<'a> {
    /// The printed sources the program receives.
    pub sources: &'a [String],
    /// Inference configuration.
    pub config: InferConfig,
    /// Protocol families (`&[]` = the standard selection).
    pub protocols: &'a [&'a str],
}

/// Layer timings and counts of one pass over a program.
pub struct Split {
    /// The inference result of the pass.
    pub result: InferResult,
    /// The pipeline: parsed units, API model and configuration.
    pub pipeline: Pipeline,
    /// Parse + PLURAL checks + inference + apply: the program's own steps.
    pub pipeline_s: f64,
    /// Bytes of source text parsed.
    pub source_bytes: usize,
    /// PFG nodes and edges summed over analysable methods.
    pub pfg_nodes: usize,
    /// See `pfg_nodes`.
    pub pfg_edges: usize,
    /// PLURAL result before inference.
    pub warnings_before: CheckResult,
    /// PLURAL result with the inferred specs overlaid.
    pub warnings_after: CheckResult,
}

/// The spans of the program's own steps; their sum is the pass's
/// `pipeline_s`.
const PROGRAM_STEPS: [&str; 4] =
    ["java_syntax.parse", "plural.check", "anek_core.infer", "anek.apply"];

/// One pass over `program`, recorded into a fresh `spans`. The index, PFG
/// and bitstate calls are the layers' standalone entry points (inference
/// repeats that work inside); the rest are exactly the steps of
/// `Pipeline::run`, preceded by parsing.
///
/// # Errors
///
/// A source that does not parse, or an unknown protocol family.
pub fn split(program: &Program<'_>, trace: bool, spans: &mut Spans) -> Result<Split, String> {
    let root_id = spans.enter("pass", None);
    let root = Some(root_id);
    let units = spans.time("java_syntax.parse", root, || {
        program.sources.iter().map(|s| parse(s)).collect::<Result<Vec<_>, _>>()
    });
    let units = units.map_err(|e| format!("generated source does not parse: {e}"))?;
    let mut pipeline = Pipeline::new(units).with_config(program.config.clone());
    if !program.protocols.is_empty() {
        pipeline = pipeline.with_protocols(program.protocols).map_err(|e| e.to_string())?;
    }
    let pipeline = pipeline.with_trace(trace);
    let (units, api) = (&pipeline.units, &pipeline.api);

    let index = spans.time("analysis.index", root, || ProgramIndex::build(units.iter()));
    let (pfg_nodes, pfg_edges) = spans.time("analysis.pfg", root, || {
        let (mut nodes, mut edges) = (0, 0);
        for unit in units {
            for t in &unit.types {
                for m in t.methods().filter(|m| m.body.is_some()) {
                    let pfg = Pfg::build_with_refinement(
                        &index,
                        api,
                        &t.name,
                        m,
                        program.config.branch_sensitive,
                    );
                    nodes += pfg.nodes.len();
                    edges += pfg.edges.len();
                }
            }
        }
        (nodes, edges)
    });
    if program.config.screen {
        let specs = anek::check::program_specs(&SpecTable::from_units(units), units);
        let verdicts = spans
            .time("bitstate.check", root, || anek::bitstate::check_program(units, api, &specs));
        black_box(verdicts);
    }

    let warnings_before =
        spans.time("plural.check", root, || pipeline.check(&SpecTable::from_units(units)));
    let result = spans.time("anek_core.infer", root, || pipeline.infer());
    let warnings_after = spans.time("plural.check", root, || {
        pipeline.check(&SpecTable::from_units(units).overlay_inferred(&result.specs))
    });
    let annotated = spans.time("anek.apply", root, || {
        let (annotated, _) = apply_specs(units, &result.specs);
        render(&annotated)
    });
    black_box(annotated);
    spans.exit(root_id);
    let pipeline_s = PROGRAM_STEPS.iter().map(|name| spans.total(name)).sum();
    let source_bytes = program.sources.iter().map(String::len).sum();
    Ok(Split {
        result,
        pipeline,
        pipeline_s,
        source_bytes,
        pfg_nodes,
        pfg_edges,
        warnings_before,
        warnings_after,
    })
}

/// An untraced and a traced pass over `program`. The traced pass's spans
/// are returned for the replay to extend.
///
/// # Errors
///
/// As [`split`].
pub fn passes(program: &Program<'_>) -> Result<(Split, Split, Spans), String> {
    let untraced = split(program, false, &mut Spans::default())?;
    let mut spans = Spans::default();
    let traced = split(program, true, &mut spans)?;
    Ok((untraced, traced, spans))
}

/// What one solve of a method costs in the replay: the three steps
/// inference repeats on every solve of the method (its skeleton is built
/// once per run).
#[derive(Debug, Default, Clone, Copy)]
pub struct SolveCost {
    /// `MethodSkeleton::stamp`, seconds.
    pub stamp_s: f64,
    /// `MethodSkeleton::solve_scratch` (BP), seconds.
    pub solve_s: f64,
    /// `MethodSkeleton::read_summary`, seconds.
    pub read_s: f64,
}

/// The one-pass replay: every method the run solved is rebuilt and solved
/// once against the run's final summaries and its own final caller
/// evidence, each step timed by a span.
#[derive(Debug, Default)]
pub struct Replay {
    /// Methods replayed.
    pub methods: usize,
    /// Message updates of the replayed solves.
    pub updates: u64,
    /// Table cells the replayed solves swept, all families together.
    pub cells_swept: f64,
    /// Model shape per replayed method, keyed `Class.method`.
    pub shapes: BTreeMap<String, ModelShape>,
    /// Cost of one solve per replayed method, keyed `Class.method`.
    pub costs: BTreeMap<String, SolveCost>,
}

/// Replays `split`'s solved methods (see [`Replay`]).
pub fn replay(split: &Split, spans: &mut Spans) -> Replay {
    let root_id = spans.enter("replay", None);
    let root = Some(root_id);
    let (units, api, cfg, result) =
        (&split.pipeline.units, &split.pipeline.api, &split.pipeline.config, &split.result);
    let index = ProgramIndex::build(units.iter());
    let states = merged_states(units, api);
    let ctx = ModelCtx { index: &index, api, states: &states };
    let mut scratch = Scratch::new();
    let mut out = Replay::default();
    for unit in units {
        for t in &unit.types {
            for m in t.methods().filter(|m| m.body.is_some()) {
                let id = MethodId::new(&t.name, &m.name);
                if !result.outcomes.get(&id).is_some_and(|o| o.is_ok() || o.is_degraded()) {
                    continue;
                }
                let own_spec = spec_of_method(m).unwrap_or_default();
                let pfg = Arc::new(Pfg::build_with_refinement(
                    &index,
                    api,
                    &t.name,
                    m,
                    cfg.branch_sensitive,
                ));
                let skeleton = spans.time("anek_core.skeleton", root, || {
                    MethodSkeleton::build(ctx, pfg, &own_spec, m.is_constructor(), cfg)
                });
                let evidence: Vec<CallerEvidence> = result
                    .call_evidence
                    .get(&id)
                    .map(|s| s.values().cloned().collect())
                    .unwrap_or_default();
                let mut cost = SolveCost::default();
                let extras = spans.time("anek_core.stamp", root, || {
                    skeleton.stamp(ctx, &result.summaries, &evidence)
                });
                cost.stamp_s = spans.last_s();
                let marginals = spans.time("factor_graph.solve", root, || {
                    skeleton.solve_scratch(&extras, cfg, &mut scratch)
                });
                cost.solve_s = spans.last_s();
                let summary = spans.time("anek_core.read_summary", root, || {
                    skeleton.read_summary(ctx, &marginals)
                });
                cost.read_s = spans.last_s();
                black_box(summary);
                out.methods += 1;
                let shape = cells::shape(&skeleton);
                if shape.edges > 0 {
                    let cells: u64 = shape.cells.values().sum();
                    out.cells_swept += marginals.updates as f64 / shape.edges as f64 * cells as f64;
                }
                out.updates += marginals.updates as u64;
                out.shapes.insert(id.to_string(), shape);
                out.costs.insert(id.to_string(), cost);
            }
        }
    }
    spans.exit(root_id);
    out
}

/// Per-layer figures of the serve phase (zero on `mixed-solve`, which has
/// none).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    /// Memo hits and misses summed over the edit responses.
    pub memo_hits: f64,
    /// See `memo_hits`.
    pub memo_misses: f64,
    /// Mean dirty-cone size per edit.
    pub dirty_methods: f64,
    /// Editor `update_source` latency, send to ready.
    pub update_p50_ms: f64,
    /// See `update_p50_ms`.
    pub update_p90_ms: f64,
    /// p50 of the same edits on a serial, store-attached session.
    pub update_service_ms: f64,
    /// Update p50 minus `update_service_ms`.
    pub update_wait_ms: f64,
    /// p99 of how late the open-loop generator sent its queries.
    pub generator_lateness_ms: f64,
    /// Reader `query_spec` latency from the due time.
    pub query_p50_us: f64,
    /// See `query_p50_us`.
    pub query_p90_us: f64,
    /// See `query_p50_us`.
    pub query_p99_us: f64,
    /// Scheduler counters.
    pub coalesced: f64,
    /// See `coalesced`.
    pub rejected: f64,
    /// See `coalesced`.
    pub cancelled: f64,
}

/// Emits every per-layer metric, in a fixed order, zero where the
/// workload does not run the layer.
pub fn emit(
    report: &mut RunReport,
    traced: &Split,
    untraced_pipeline_s: f64,
    replay: &Replay,
    spans: &Spans,
    serve: ServeLayers,
) {
    let r = &traced.result;
    report.metric("java_syntax.parse_s", spans.total("java_syntax.parse"), "s");
    report.metric("java_syntax.source_bytes", traced.source_bytes as f64, "bytes");
    report.metric("analysis.index_s", spans.total("analysis.index"), "s");
    report.metric("analysis.pfg_s", spans.total("analysis.pfg"), "s");
    report.metric("analysis.pfg_nodes", traced.pfg_nodes as f64, "count");
    report.metric("analysis.pfg_edges", traced.pfg_edges as f64, "count");
    report.metric("bitstate.check_s", spans.total("bitstate.check"), "s");
    let analysable = r.outcomes.len().max(1) as f64;
    report.metric("bitstate.screened_ratio", r.screened_methods as f64 / analysable, "ratio");

    let (mut vars, mut edges, mut factors) = (0usize, 0usize, 0usize);
    let mut cells: BTreeMap<_, u64> = BTreeMap::new();
    for s in replay.shapes.values() {
        vars += s.vars;
        edges += s.edges;
        factors += s.factors;
        for (f, c) in &s.cells {
            *cells.entry(*f).or_insert(0) += c;
        }
    }
    report.metric("anek_core.skeleton_s", spans.total("anek_core.skeleton"), "s");
    report.metric("anek_core.stamp_s", spans.total("anek_core.stamp"), "s");
    report.metric("anek_core.read_summary_s", spans.total("anek_core.read_summary"), "s");
    report.metric("anek_core.vars", vars as f64, "count");
    report.metric("anek_core.edges", edges as f64, "count");
    report.metric("anek_core.factors", factors as f64, "count");
    for f in FAMILIES {
        report.metric(
            format!("anek_core.cells.{f:?}"),
            cells.get(&f).copied().unwrap_or(0) as f64,
            "count",
        );
    }

    let solve_s = spans.total("factor_graph.solve");
    let infer_s = spans.total("anek_core.infer");
    report.metric("factor_graph.solve_s", solve_s, "s");
    let ns_per_update = solve_s * 1e9 / replay.updates.max(1) as f64;
    report.metric("factor_graph.ns_per_update", ns_per_update, "ns");
    report.metric("factor_graph.ns_per_cell", solve_s * 1e9 / replay.cells_swept.max(1.0), "ns");
    // The run's time per layer, estimated by charging every committed
    // solve of a method the replay's cost for one solve of it, as a share
    // of the inference wall time on its effective threads. `modelled_share`
    // (skeleton builds plus every solve's stamp, BP and read-back) tests
    // the estimate: near 1 on one thread, it leaves little inference time
    // unaccounted for.
    let busy = (infer_s * r.threads.max(1) as f64).max(f64::MIN_POSITIVE);
    let (mut bp_s, mut modelled_s) = (0.0, spans.total("anek_core.skeleton"));
    for span in r.trace.iter().flat_map(|t| &t.spans).filter(|s| !s.cache_hit) {
        let c = replay.costs.get(&span.method).copied().unwrap_or_default();
        bp_s += c.solve_s;
        modelled_s += c.stamp_s + c.solve_s + c.read_s;
    }
    report.metric("factor_graph.bp_share", bp_s / busy, "ratio");
    report.metric("anek_core.modelled_share", modelled_s / busy, "ratio");
    report.metric("factor_graph.message_updates", r.message_updates as f64, "count");
    report.metric("factor_graph.bp_iterations", r.bp_iterations as f64, "count");
    report.metric("factor_graph.nonconverged_solves", r.nonconverged_solves as f64, "count");
    let swept =
        r.trace.as_ref().map(|t| cells::cells_swept(&t.spans, &replay.shapes)).unwrap_or_default();
    for f in FAMILIES {
        report.metric(
            format!("factor_graph.cells_swept.{f:?}"),
            swept.get(&f).copied().unwrap_or(0.0),
            "count",
        );
    }

    report.metric("anek_core.infer_s", infer_s, "s");
    report.metric("anek_core.solves", r.solves as f64, "count");
    report.metric("anek_core.ms_per_solve", infer_s * 1e3 / r.solves.max(1) as f64, "ms");
    report.metric("anek_core.threads", r.threads as f64, "count");
    report.metric("anek_core.speculative_solves", r.speculative_solves as f64, "count");
    report.metric("anek_core.discarded_solves", r.discarded_solves as f64, "count");
    let discard = if r.speculative_solves == 0 {
        0.0
    } else {
        r.discarded_solves as f64 / r.speculative_solves as f64
    };
    report.metric("anek_core.discard_ratio", discard, "ratio");
    report.metric("anek_core.commit_stall_s", r.commit_stall.as_secs_f64(), "s");
    report.metric("anek_core.stalled_chunks", r.stalled_chunks as f64, "count");

    let lookups = serve.memo_hits + serve.memo_misses;
    report.metric("store.memo_hits", serve.memo_hits, "count");
    report.metric("store.memo_misses", serve.memo_misses, "count");
    report.metric(
        "store.hit_ratio",
        if lookups == 0.0 { 0.0 } else { serve.memo_hits / lookups },
        "ratio",
    );
    report.metric("store.dirty_methods", serve.dirty_methods, "count");

    report.metric("plural.check_s", spans.total("plural.check"), "s");
    report.metric("plural.warnings_before", traced.warnings_before.warnings.len() as f64, "count");
    report.metric("plural.warnings_after", traced.warnings_after.warnings.len() as f64, "count");
    report.metric("anek.apply_s", spans.total("anek.apply"), "s");

    report.metric("serve.update_p50_ms", serve.update_p50_ms, "ms");
    report.metric("serve.update_p90_ms", serve.update_p90_ms, "ms");
    report.metric("serve.update_service_ms", serve.update_service_ms, "ms");
    report.metric("serve.update_wait_ms", serve.update_wait_ms, "ms");
    report.metric("serve.generator_lateness_ms", serve.generator_lateness_ms, "ms");
    report.metric("serve.query_p50_us", serve.query_p50_us, "us");
    report.metric("serve.query_p90_us", serve.query_p90_us, "us");
    report.metric("serve.query_p99_us", serve.query_p99_us, "us");
    report.metric("serve.coalesced", serve.coalesced, "count");
    report.metric("serve.rejected", serve.rejected, "count");
    report.metric("serve.cancelled", serve.cancelled, "count");

    report.metric("observe.trace_overhead_ratio", traced.pipeline_s / untraced_pipeline_s, "ratio");
}
