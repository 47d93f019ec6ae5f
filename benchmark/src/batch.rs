//! The batch workloads: `Pipeline::run` (check → infer → apply → check)
//! over a generated corpus, printed to source text and parsed again, so
//! the program sees only the generated inputs.
//!
//! * `pmd-batch` — the PMD-shaped Iterator corpus of `corpus::generate` at
//!   a quarter of paper scale, residual BP, screening on, 2 threads.
//! * `mixed-solve` — `corpus::generate_mixed` over all six protocol
//!   families, residual BP, screening off, 1 thread.
//!
//! Both drain the worklist (`max_iters = 3 × methods`).

use crate::layers::{self, Program, ServeLayers};
use crate::quality::{self, Quality};
use crate::report::RunReport;
use crate::serve;
use crate::stats::{median, peak_rss_mb};
use anek::anek_core::{InferConfig, InferResult};
use anek::corpus::{self, MixedConfig, PmdConfig, PmdCorpus};
use anek::factor_graph::BpSchedule;
use anek::plural::CheckResult;
use anek::{Pipeline, PipelineReport};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups timed before each pipeline run. `setup_s` is the median of all
/// of them, so that, like `pipeline_s`, it samples the whole measurement:
/// on the reference box the median of 51 consecutive set-ups moved by up
/// to 45% within 20 seconds.
const SETUPS_PER_RUN: usize = 5;
/// The fewest pipeline runs a measurement takes, however long they last.
const MIN_RUNS: usize = 2;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// `pmd-batch`.
    Pmd,
    /// `mixed-solve`.
    Mixed,
}

/// A generated batch input: the corpus (with its answers) and the source
/// text the program receives.
struct Workload {
    /// The generator's output, including planted bugs and ground truth.
    corpus: PmdCorpus,
    /// One printed source per unit.
    sources: Vec<String>,
}

/// The PMD corpus configuration for `seed`: a quarter of `paper()` in
/// classes, methods and correct uses, keeping the paper's three planted
/// bugs and its branch trap.
fn pmd_config(seed: u64) -> PmdConfig {
    let paper = PmdConfig::paper();
    PmdConfig {
        seed,
        helper_classes: paper.helper_classes / 4,
        local_loops: paper.local_loops / 4,
        helper_loops: paper.helper_loops / 4,
        state_tests: 1,
        total_classes: paper.total_classes / 4,
        total_methods: paper.total_methods / 4,
        ..paper
    }
}

/// The mixed corpus configuration for `seed`: every family of
/// `MixedConfig::small()` with its planted bugs (straight-line and aliased)
/// and indicator traps, but none of its correct uses, so that a run takes a
/// few seconds and a measurement holds about ten of them. The bug and trap
/// sites alone keep BP on the high-arity WEAKEN factors.
fn mixed_config(seed: u64) -> MixedConfig {
    MixedConfig {
        seed,
        local_uses: 0,
        helper_uses: 0,
        aliased_uses: 0,
        callback_uses: 0,
        aliased_bugs: 0,
        ..MixedConfig::small()
    }
}

impl Batch {
    /// Generates the workload for `seed`.
    fn generate(self, seed: u64) -> Workload {
        let corpus = match self {
            Batch::Pmd => corpus::generate(&pmd_config(seed)),
            Batch::Mixed => corpus::generate_mixed(&mixed_config(seed)),
        };
        let sources = corpus.units.iter().map(anek::java_syntax::print_unit).collect();
        Workload { corpus, sources }
    }

    /// The inference configuration of this workload for a program of
    /// `methods` methods.
    fn config(self, methods: usize) -> InferConfig {
        let mut config = InferConfig { max_iters: 3 * methods, ..InferConfig::default() };
        config.bp.schedule = BpSchedule::Residual;
        match self {
            Batch::Pmd => {
                config.screen = true;
                config.threads = 2;
            }
            Batch::Mixed => {
                config.screen = false;
                config.threads = 1;
            }
        }
        config
    }

    /// Protocol families the workload selects (`&[]` = the standard
    /// Iterator + Stream selection).
    fn protocols(self) -> &'static [&'static str] {
        match self {
            Batch::Pmd => &[],
            Batch::Mixed => &["all"],
        }
    }

    /// Parses the sources and configures the pipeline — the program's
    /// whole input is the source text.
    ///
    /// # Errors
    ///
    /// A source that does not parse.
    fn pipeline(self, work: &Workload) -> Result<Pipeline, String> {
        let pipeline = Pipeline::from_sources(&work.sources)
            .map_err(|e| format!("generated source does not parse: {e}"))?
            .with_config(self.config(work.corpus.stats.methods));
        match self.protocols() {
            [] => Ok(pipeline),
            families => pipeline.with_protocols(families).map_err(|e| e.to_string()),
        }
    }

    /// The workload's program for the traced run.
    fn program(self, work: &Workload) -> Program<'_> {
        Program {
            sources: &work.sources,
            config: self.config(work.corpus.stats.methods),
            protocols: self.protocols(),
        }
    }
}

/// Generates the workload `SETUPS_PER_RUN` times, appending the set-up
/// times to `times` and checking that the seed reproduces `first` byte for
/// byte.
fn setups(batch: Batch, seed: u64, first: &Workload, times: &mut Vec<f64>, report: &mut RunReport) {
    for _ in 0..SETUPS_PER_RUN {
        let t = Instant::now();
        let next = black_box(batch.generate(seed));
        times.push(t.elapsed().as_secs_f64());
        report.check(next.sources == first.sources, || {
            format!("seed {seed} generated two different workloads")
        });
    }
}

/// Everything of a pipeline report that must not change between runs.
fn fingerprint(r: &PipelineReport) -> String {
    let warnings: Vec<String> = r.warnings_after.warnings.iter().map(ToString::to_string).collect();
    format!("{}\n{}\n{}", r.outcome_table(), r.annotated_source, warnings.join("\n"))
}

/// Checks one analysis against the generator's answers: every planted bug
/// flagged, no method `Failed`. Returns its quality.
fn check_outputs(
    corpus: &PmdCorpus,
    warnings_after: &CheckResult,
    result: &InferResult,
    report: &mut RunReport,
) -> Quality {
    let q = quality::score(corpus, warnings_after, &result.specs);
    report.check(q.bug_recall == 1.0, || {
        format!("bug_recall {} < 1: a planted bug was not flagged", q.bug_recall)
    });
    let failed = result.failed_count();
    report.check(failed == 0, || format!("{failed} methods ended Failed"));
    q
}

/// The untraced run: set up, then set up again and run the pipeline for
/// `seconds` (at least `MIN_RUNS` times), checking every run.
pub fn run(batch: Batch, seed: u64, seconds: Duration) -> RunReport {
    let mut report = RunReport::default();
    let t = Instant::now();
    let work = batch.generate(seed);
    let mut setup_times = vec![t.elapsed().as_secs_f64()];
    let mut runs: Vec<f64> = Vec::new();
    let mut first: Option<(String, Quality, f64)> = None;
    let start = Instant::now();
    while runs.len() < MIN_RUNS || start.elapsed() < seconds {
        setups(batch, seed, &work, &mut setup_times, &mut report);
        let t = Instant::now();
        let r = match batch.pipeline(&work) {
            Ok(p) => p.run(),
            Err(e) => {
                report.failures.push(e);
                return report;
            }
        };
        runs.push(t.elapsed().as_secs_f64());
        report.attempted += r.inference.outcomes.len() as u64;
        report.failed += r.inference.failed_count() as u64;
        let print = fingerprint(&r);
        match &first {
            None => {
                let q = check_outputs(&work.corpus, &r.warnings_after, &r.inference, &mut report);
                report.check(r.skipped_sources.is_empty(), || "a source was skipped".into());
                let analysable = r.inference.outcomes.len().max(1) as f64;
                let degraded = r.inference.degraded_count() as f64 / analysable;
                eprintln!(
                    "{batch:?} seed {seed}: {} methods, {} solves, threads {} (effective), \
                     {} screened, {} degraded",
                    r.inference.outcomes.len(),
                    r.inference.solves,
                    r.inference.threads,
                    r.inference.screened_methods,
                    r.inference.degraded_count()
                );
                first = Some((print, q, degraded));
            }
            Some((expected, ..)) => {
                report.check(&print == expected, || "a repeated run changed its output".into());
            }
        }
    }
    let (_, q, degraded) = first.expect("at least one run");
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("pipeline_s", median(&runs), "s");
    report.metric("ok_share", 1.0 - report.failed as f64 / report.attempted.max(1) as f64, "ratio");
    report.metric("undegraded_share", 1.0 - degraded, "ratio");
    report.metric("bug_recall", q.bug_recall, "ratio");
    report.metric("false_warnings", q.false_warnings as f64, "count");
    report.metric("spec_f1", q.spec_f1, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
    eprintln!("pipeline runs: {runs:?}");
    report
}

/// The traced run: an untraced and a traced pass over the program, split
/// into layer calls, then the one-pass replay. `pmd-batch` also runs the
/// `serve-edit` workload for `seconds / 2` for the store and serve layers
/// (stores go under `tmp`). Writes the spans to `spans_path` and prints
/// every per-layer metric.
pub fn run_traced(
    batch: Batch,
    seed: u64,
    seconds: Duration,
    tmp: &Path,
    spans_path: &Path,
) -> RunReport {
    let mut report = RunReport::default();
    let work = batch.generate(seed);
    let (untraced, traced, mut spans) = match layers::passes(&batch.program(&work)) {
        Ok(p) => p,
        Err(e) => {
            report.failures.push(e);
            return report;
        }
    };
    let r = &traced.result;
    check_outputs(&work.corpus, &traced.warnings_after, r, &mut report);
    report
        .check(r.specs == untraced.result.specs && r.outcomes == untraced.result.outcomes, || {
            "tracing changed the inferred specs or outcomes".into()
        });
    let trace_spans = r.trace.as_ref().map_or(0, |t| t.spans.len());
    report.check(trace_spans == r.solves, || {
        format!("{trace_spans} trace spans for {} committed solves", r.solves)
    });
    report.attempted = r.outcomes.len() as u64;
    report.failed = r.failed_count() as u64;
    let replay = layers::replay(&traced, &mut spans);
    eprintln!(
        "{batch:?} seed {seed}: traced {:.3} s, untraced {:.3} s, threads {} (effective), \
         {} methods replayed",
        traced.pipeline_s, untraced.pipeline_s, r.threads, replay.methods
    );
    let serve_layers = match batch {
        Batch::Pmd => {
            let mut serve_report = RunReport::default();
            // Half the run length keeps the traced run, with its serial
            // replay of every edit, well inside the time one run may take.
            let out = serve::layers(seed, seconds / 2, tmp, &mut serve_report);
            report.failures.extend(serve_report.failures);
            report.attempted += serve_report.attempted;
            report.failed += serve_report.failed;
            out.unwrap_or_default()
        }
        Batch::Mixed => ServeLayers::default(),
    };
    layers::emit(&mut report, &traced, untraced.pipeline_s, &replay, &spans, serve_layers);
    spans.save(spans_path);
    report
}
