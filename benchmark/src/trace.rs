//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent span, and the simulation run they belong to)
//! and written out as JSON lines once the benchmark ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    id: usize,
    parent: Option<usize>,
    /// The traced simulation run this span belongs to.
    run: usize,
    name: &'static str,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    run: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            run: 0,
        }
    }

    /// Start a new traced run; later spans carry its identifier.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            run: self.run,
            name,
            start: start - self.origin,
            end: end - self.origin,
        });
        id
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.run,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        w.flush()
    }
}
