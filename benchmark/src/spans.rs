//! Spans recorded by the benchmark around its calls into each crate.
//!
//! Every timed call goes through [`Tracer::enter`] / [`Tracer::exit`], which
//! always measure the elapsed time (the latency samples come from here) and,
//! in a traced round, also keep the span in memory: layer, name, start, end,
//! the span that was open when it started, and the id of the statement or
//! shipment it belongs to. Spans inside the crates are a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// One id per statement / shipment / reopen.
    pub op: u64,
}

/// A span that has been entered and not yet left.
pub struct Open {
    started: Instant,
    index: Option<u32>,
}

pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

/// Count, total and self time of the spans sharing one `(layer, name)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switches span recording on or off (between rounds, never inside an
    /// open span).
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    /// Starts the next statement / shipment: spans entered from here on
    /// carry a fresh id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Ops started so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.recording.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                layer,
                name,
                start_ns: (started - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(index);
            index
        });
        Open { started, index }
    }

    /// Leaves the span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans left out of order");
            self.spans[index as usize].end_ns = (now - self.epoch).as_nanos() as u64;
        }
        (now - open.started).as_secs_f64()
    }

    /// Per `(layer, name)`: how many spans, their summed duration, and their
    /// self time — duration minus the part covered by child spans.
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<_, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry((s.layer, s.name)).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// Self time per layer, seconds.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for ((layer, _), t) in self.totals() {
            *out.entry(layer).or_insert(0.0) += t.self_s;
        }
        out
    }

    /// The per-layer table printed by a traced run.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:<10} {:<22} {:>9} {:>12} {:>12}\n",
            "layer", "span", "count", "total_s", "self_s"
        );
        for ((layer, name), t) in self.totals() {
            out.push_str(&format!(
                "{layer:<10} {name:<22} {:>9} {:>12.6} {:>12.6}\n",
                t.count, t.total_s, t.self_s
            ));
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"op\":{}}}{comma}",
                s.layer, s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}
