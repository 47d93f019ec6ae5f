//! The `serve-edit` workload: an in-process `anek::Server` (2 workers, a
//! store in a temporary directory) holding two sessions loaded with the
//! small PMD corpus. An editor client sends seeded one-line body edits to
//! session `edit` in a closed loop; a reader client sends `query_spec` for
//! seeded methods to session `read` in an open loop at a fixed rate, each
//! timed from when it was due.
//!
//! It is not a gated workload of its own: on the reference box its
//! latencies are dominated by the disk's cost for the store's per-run file
//! burst and by vCPU wake-up latency (see `README.md`). It runs as the
//! serve phase of `pmd-batch --trace 1`, which prints its latencies and
//! its store and serve layer figures, ungated.

use crate::layers::ServeLayers;
use crate::quality;
use crate::report::RunReport;
use crate::stats::{median, percentile};
use anek::anek_core::InferConfig;
use anek::corpus::{self, PmdConfig, PmdCorpus};
use anek::factor_graph::BpSchedule;
use anek::json::{self, Json};
use anek::plural::SpecTable;
use anek::spec_lang::{parse_clause, standard_api, MethodSpec};
use anek::store::Store;
use anek::{Client, SendStatus, ServeSession, Server, ServerOptions};
use prng::Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads (one per core of the reference box).
const WORKERS: usize = 2;
/// Open-loop reader rate.
const QUERY_HZ: f64 = 300.0;
/// How long before a query is due the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// The inference configuration of both sessions: residual BP, drained,
/// one thread per request so two requests fill the two workers.
fn config(methods: usize) -> InferConfig {
    let mut config = InferConfig { max_iters: 3 * methods, threads: 1, ..InferConfig::default() };
    config.bp.schedule = BpSchedule::Residual;
    config
}

/// The generated input: the small PMD corpus for the seed, as named files.
struct Fixture {
    /// The generator's output with its answers.
    corpus: PmdCorpus,
    /// `(file name, text)` per unit, in name order.
    files: Vec<(String, String)>,
    /// `Class.method` of every method with a body.
    methods: Vec<String>,
}

impl Fixture {
    /// Generates the fixture for `seed`.
    fn generate(seed: u64) -> Fixture {
        let corpus = corpus::generate(&PmdConfig { seed, ..PmdConfig::small() });
        let mut files: Vec<(String, String)> = corpus
            .units
            .iter()
            .map(|u| {
                let name = u.types.first().map_or("Unit", |t| t.name.as_str());
                (format!("{name}.java"), anek::java_syntax::print_unit(u))
            })
            .collect();
        files.sort();
        let mut methods = Vec::new();
        for unit in &corpus.units {
            for t in &unit.types {
                for m in t.methods().filter(|m| m.body.is_some()) {
                    methods.push(format!("{}.{}", t.name, m.name));
                }
            }
        }
        methods.sort();
        methods.dedup();
        Fixture { corpus, files, methods }
    }

    fn config(&self) -> InferConfig {
        config(self.corpus.stats.methods)
    }
}

fn load_line(id: u64, session: &str, files: &[(String, String)]) -> String {
    let sources = files
        .iter()
        .map(|(name, text)| {
            Json::Obj(vec![("name".into(), Json::str(name)), ("text".into(), Json::str(text))])
        })
        .collect();
    request(id, "load_sources", session, vec![("sources".into(), Json::Arr(sources))])
}

fn request(id: u64, method: &str, session: &str, mut params: Vec<(String, Json)>) -> String {
    params.insert(0, ("session".into(), Json::str(session)));
    Json::Obj(vec![
        ("id".into(), Json::num(id as usize)),
        ("method".into(), Json::str(method)),
        ("params".into(), Json::Obj(params)),
    ])
    .to_string()
}

fn query_line(id: u64, session: &str, method: &str) -> String {
    request(id, "query_spec", session, vec![("method".into(), Json::str(method))])
}

/// A response's `result` object, or `None` for an error response.
fn result_of(response: &str) -> Option<Json> {
    json::parse(response).ok()?.get("result").cloned()
}

/// Whether a response is a plain, undegraded result: no error, not
/// superseded, not truncated by a deadline, not shed to screening.
fn full_result(result: &Json) -> bool {
    result.get("superseded").is_none()
        && result.get("deadline").is_none()
        && result.get("shed").is_none()
}

/// A one-line body edit: `int benchEdit{k} = {k};` as the first statement
/// of the method whose header is the `nth` (modulo the count) in `text`.
/// `None` when the unit has no method body.
fn edit(text: &str, nth: usize, k: u64) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let headers: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("    ") && !l.starts_with("     ") && l.ends_with(") {"))
        .map(|(i, _)| i)
        .collect();
    let at = *headers.get(nth % headers.len().max(1))?;
    let mut out = String::with_capacity(text.len() + 32);
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        out.push('\n');
        if i == at {
            out.push_str(&format!("        int benchEdit{k} = {k};\n"));
        }
    }
    Some(out)
}

/// One served edit.
struct Edit {
    line: String,
    latency_ms: f64,
    response: String,
}

/// One served query.
struct Query {
    line: String,
    /// Due time to ready, in µs.
    latency_us: f64,
    /// Send time minus due time, in ms.
    lateness_ms: f64,
    response: String,
}

/// A started server with its two clients and loaded sessions.
struct Live {
    server: Server,
    editor: Client,
    reader: Client,
    store_dir: PathBuf,
}

fn start(fixture: &Fixture, store_dir: PathBuf) -> Result<Live, String> {
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Store::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
    let server = Server::start(
        fixture.config(),
        Some(Arc::new(store)),
        ServerOptions { workers: WORKERS, ..ServerOptions::default() },
    );
    let (mut editor, mut reader) = (server.connect(), server.connect());
    editor.send(&load_line(0, "edit", &fixture.files));
    reader.send(&load_line(0, "read", &fixture.files));
    for client in [&editor, &reader] {
        let (response, _) = client.recv().ok_or("server hung up during load")?;
        let loaded = result_of(&response).and_then(|r| r.get("loaded").and_then(Json::as_num));
        if loaded != Some(fixture.files.len() as f64) {
            return Err(format!("load_sources failed: {response}"));
        }
    }
    Ok(Live { server, editor, reader, store_dir })
}

fn stop(mut live: Live) -> [u64; 7] {
    let counters = live.server.scheduler().counters.snapshot();
    live.editor.send(&request(9_999_999, "shutdown", "edit", Vec::new()));
    let _ = live.editor.recv();
    live.editor.close();
    live.reader.close();
    while live.reader.recv().is_some() {}
    live.server.join();
    let _ = std::fs::remove_dir_all(&live.store_dir);
    counters
}

/// The start of the response to the request that ends the query stream
/// (the only request with id 0).
const END_OF_QUERIES: &str = "{\"id\":0,";

/// The measured phase: editor closed loop in this thread, reader open loop
/// in two more (sender and receiver), for `seconds`.
fn measure(
    live: &mut Live,
    fixture: &Fixture,
    seed: u64,
    seconds: Duration,
) -> (Vec<Edit>, Vec<Query>, BTreeMap<usize, String>) {
    let mut rng = Rng::new(seed ^ 0xed17);
    let mut query_rng = Rng::new(seed ^ 0x9e41);
    let editable: Vec<usize> =
        (0..fixture.files.len()).filter(|&i| edit(&fixture.files[i].1, 0, 0).is_some()).collect();
    let start = Instant::now();
    let end = start + seconds;
    let mut final_text: BTreeMap<usize, String> = BTreeMap::new();
    let mut edits = Vec::new();
    let reader_out = live.reader.responses();
    let reader = &mut live.reader;
    let editor = &mut live.editor;
    let queries = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut got = Vec::new();
            while let Some(r) = reader_out.pop() {
                if r.0.starts_with(END_OF_QUERIES) {
                    break;
                }
                got.push(r);
            }
            got
        });
        let sender = s.spawn(move || {
            let mut sent: Vec<(String, Instant, Instant)> = Vec::new();
            for i in 0u64.. {
                let due = start + Duration::from_secs_f64(i as f64 / QUERY_HZ);
                if due >= end {
                    break;
                }
                // Sleep to just short of the due time, then spin: a plain
                // sleep overshoots by the timer slack, which would charge
                // the generator's own lateness to the server.
                if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let method: &String = query_rng.pick(&fixture.methods);
                let line = query_line(i + 1, "read", method);
                let at = Instant::now();
                let status = reader.send(&line);
                sent.push((line, due, at));
                if status != SendStatus::Queued {
                    break;
                }
            }
            // Marks the end of the stream for the receiver.
            reader.send(&request(0, "stats", "read", Vec::new()));
            sent
        });
        // Closed-loop editor: every editable file once per cycle, in a
        // seeded order, each time at a seeded method.
        let mut k = 0u64;
        'cycles: loop {
            let mut order = editable.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_index(0..i + 1));
            }
            for file in order {
                if Instant::now() >= end {
                    break 'cycles;
                }
                k += 1;
                let (name, text) = &fixture.files[file];
                let edited = edit(text, rng.gen_index(0..64), k).expect("editable file");
                let line = request(
                    k,
                    "update_source",
                    "edit",
                    vec![("name".into(), Json::str(name)), ("text".into(), Json::str(&edited))],
                );
                let t = Instant::now();
                editor.send(&line);
                let Some((response, ready)) = editor.recv() else { break 'cycles };
                let latency_ms = ready.saturating_duration_since(t).as_secs_f64() * 1e3;
                final_text.insert(file, edited);
                edits.push(Edit { line, latency_ms, response });
            }
        }
        let sent = sender.join().expect("query sender panicked");
        let got = receiver.join().expect("query receiver panicked");
        sent.into_iter()
            .zip(got)
            .map(|((line, due, at), (response, ready))| Query {
                line,
                latency_us: ready.saturating_duration_since(due).as_secs_f64() * 1e6,
                lateness_ms: at.saturating_duration_since(due).as_secs_f64() * 1e3,
                response,
            })
            .collect::<Vec<_>>()
    });
    (edits, queries, final_text)
}

/// Final `query_spec` of every method on `session`, through `client`.
fn final_queries(client: &mut Client, session: &str, methods: &[String]) -> Vec<(String, String)> {
    let lines: Vec<String> = methods
        .iter()
        .enumerate()
        .map(|(i, m)| query_line(1_000_000 + i as u64, session, m))
        .collect();
    for line in &lines {
        client.send(line);
    }
    lines.into_iter().map(|l| (l, client.recv().map(|r| r.0).unwrap_or_default())).collect()
}

/// A store-less serial session loaded with `files`, answering `lines`.
fn serial_answers(
    config: &InferConfig,
    session: &str,
    files: &[(String, String)],
    lines: &[&str],
) -> Vec<String> {
    let mut serial = ServeSession::new(config.clone(), None);
    serial.handle_line(&load_line(0, session, files));
    lines.iter().map(|l| serial.handle_line(l).response).collect()
}

/// Specs parsed back out of `query_spec` responses.
fn served_specs(responses: &[(String, String)]) -> BTreeMap<anek::analysis::MethodId, MethodSpec> {
    let mut specs = BTreeMap::new();
    for (_, response) in responses {
        let Some(r) = result_of(response) else { continue };
        let field = |k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(method), Some(req), Some(ens)) =
            (field("method"), field("requires"), field("ensures"))
        else {
            continue;
        };
        let (Ok(requires), Ok(ensures)) = (parse_clause(&req), parse_clause(&ens)) else {
            continue;
        };
        if let Some((class, name)) = method.split_once('.') {
            specs.insert(
                anek::analysis::MethodId::new(class, name),
                MethodSpec { requires, ensures, ..MethodSpec::default() },
            );
        }
    }
    specs
}

/// Everything a measured serve run produced.
struct Served {
    fixture: Fixture,
    edits: Vec<Edit>,
    queries: Vec<Query>,
    counters: [u64; 7],
}

/// Sets up, measures for `seconds`, then verifies every answer.
fn serve(seed: u64, seconds: Duration, tmp: &Path, report: &mut RunReport) -> Option<Served> {
    let fixture = Fixture::generate(seed);
    let mut live = match start(&fixture, tmp.join(format!("store-{}", std::process::id()))) {
        Ok(l) => l,
        Err(e) => {
            report.failures.push(e);
            return None;
        }
    };
    let (edits, queries, final_text) = measure(&mut live, &fixture, seed, seconds);
    let read_final = final_queries(&mut live.reader, "read", &fixture.methods);
    let edit_final = final_queries(&mut live.editor, "edit", &fixture.methods);
    let counters = stop(live);

    // Byte identity against store-less serial sessions: `read` holds the
    // generated sources, `edit` the final text of every edited file.
    let cfg = fixture.config();
    let final_files: Vec<(String, String)> = fixture
        .files
        .iter()
        .enumerate()
        .map(|(i, (n, t))| (n.clone(), final_text.get(&i).unwrap_or(t).clone()))
        .collect();
    let read_lines: Vec<&str> = queries
        .iter()
        .map(|q| q.line.as_str())
        .chain(read_final.iter().map(|(l, _)| l.as_str()))
        .collect();
    let edit_lines: Vec<&str> = edit_final.iter().map(|(l, _)| l.as_str()).collect();
    let (serial_read, serial_edit) = std::thread::scope(|s| {
        let r = s.spawn(|| serial_answers(&cfg, "read", &fixture.files, &read_lines));
        let e = serial_answers(&cfg, "edit", &final_files, &edit_lines);
        (r.join().expect("serial replay panicked"), e)
    });
    let served_read = queries
        .iter()
        .map(|q| q.response.as_str())
        .chain(read_final.iter().map(|(_, r)| r.as_str()));
    let mismatches = served_read.zip(&serial_read).filter(|(a, b)| a != b).count()
        + edit_final.iter().zip(&serial_edit).filter(|((_, a), b)| a != *b).count();
    report.check(mismatches == 0, || {
        format!("{mismatches} query responses differ from the serial replay")
    });

    let responses = edits
        .iter()
        .map(|e| e.response.as_str())
        .chain(queries.iter().map(|q| q.response.as_str()))
        .chain(read_final.iter().chain(&edit_final).map(|(_, r)| r.as_str()));
    let (mut sent, mut ok, mut full) = (0u64, 0u64, 0u64);
    for response in responses {
        sent += 1;
        match result_of(response) {
            Some(r) => {
                ok += 1;
                full += u64::from(full_result(&r));
            }
            None if sent == ok + 1 => eprintln!("first failed response: {response}"),
            None => {}
        }
    }
    report.attempted = sent;
    report.failed = sent - ok;
    report.check(full == ok, || {
        format!("{} responses were superseded, truncated or shed", ok - full)
    });
    report
        .check(!edits.is_empty() && !queries.is_empty(), || "no edit or no query completed".into());

    // Quality of the served specs: the read session's final answers,
    // overlaid on the program and checked by PLURAL.
    let specs = served_specs(&read_final);
    let units = &fixture.corpus.units;
    let table = SpecTable::from_units(units).overlay_inferred(&specs);
    let warnings = anek::plural::check(units, &standard_api(), &table);
    let quality = quality::score(&fixture.corpus, &warnings, &specs);
    report.check(quality.bug_recall == 1.0, || {
        format!("bug_recall {} < 1 on the served specs", quality.bug_recall)
    });
    Some(Served { fixture, edits, queries, counters })
}

/// The store and serve layer figures: the served workload for `seconds`,
/// then the same edits replayed on a serial, store-attached
/// session with a fresh store for their service time. Correctness checks
/// land in `report`; `None` when the workload could not run.
pub fn layers(
    seed: u64,
    seconds: Duration,
    tmp: &Path,
    report: &mut RunReport,
) -> Option<ServeLayers> {
    let s = serve(seed, seconds, tmp, report)?;
    let store_dir = tmp.join(format!("service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = match Store::open(&store_dir) {
        Ok(store) => store,
        Err(e) => {
            report.failures.push(format!("open store: {e}"));
            return None;
        }
    };
    let mut serial = ServeSession::new(s.fixture.config(), Some(Arc::new(store)));
    serial.handle_line(&load_line(0, "edit", &s.fixture.files));
    let service: Vec<f64> = s
        .edits
        .iter()
        .map(|e| {
            let t = Instant::now();
            serial.handle_line(&e.line);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(serial);
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut out = ServeLayers::default();
    for e in &s.edits {
        let Some(r) = result_of(&e.response) else { continue };
        let num = |k: &str| r.get(k).and_then(Json::as_num).unwrap_or(0.0);
        out.memo_hits += num("memo_hits");
        out.memo_misses += num("memo_misses");
        out.dirty_methods += r.get("dirty").and_then(Json::as_arr).map_or(0, <[Json]>::len) as f64;
    }
    out.dirty_methods /= s.edits.len().max(1) as f64;
    let updates: Vec<f64> = s.edits.iter().map(|e| e.latency_ms).collect();
    out.update_p50_ms = median(&updates);
    out.update_p90_ms = percentile(&updates, 90.0);
    out.update_service_ms = median(&service);
    out.update_wait_ms = out.update_p50_ms - out.update_service_ms;
    let lateness: Vec<f64> = s.queries.iter().map(|q| q.lateness_ms).collect();
    out.generator_lateness_ms = percentile(&lateness, 99.0);
    let queries: Vec<f64> = s.queries.iter().map(|q| q.latency_us).collect();
    out.query_p50_us = median(&queries);
    out.query_p90_us = percentile(&queries, 90.0);
    out.query_p99_us = percentile(&queries, 99.0);
    let [_, _, rejected, coalesced, _, cancelled, _] = s.counters;
    out.coalesced = coalesced as f64;
    out.rejected = rejected as f64;
    out.cancelled = cancelled as f64;
    eprintln!(
        "serve layers seed {seed}: {} edits, {} queries, update p50 {:.2} ms, service p50 \
         {:.2} ms, {WORKERS} workers",
        s.edits.len(),
        s.queries.len(),
        out.update_p50_ms,
        out.update_service_ms
    );
    Some(out)
}
