//! The benchmark's own span recorder: one span (name, start, end, parent)
//! around each call into a layer's public function. Spans stay in memory
//! and are written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function called, as `crate.function`.
    pub name: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span list.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// Spans in start order.
    pub list: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans { origin: Instant::now(), list: Vec::new() }
    }
}

impl Spans {
    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.list.push(Span { name, start: now, end: now, parent });
        self.list.len() - 1
    }

    /// Closes span `id`.
    pub fn exit(&mut self, id: usize) {
        self.list[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Seconds the most recently opened span took.
    pub fn last_s(&self) -> f64 {
        self.list.last().map_or(0.0, |s| (s.end - s.start).as_secs_f64())
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        // A fold from +0.0: `sum` of no spans would give -0.0.
        self.list
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + (s.end - s.start).as_secs_f64())
    }

    /// Writes the spans to `path`; a failure is reported on standard
    /// error and does not fail the run.
    pub fn save(&self, path: &Path) {
        if let Err(e) = self.write_jsonl(path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }

    /// Writes one JSON object per span to `path` (parent directories are
    /// created).
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
