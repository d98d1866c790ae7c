//! In-memory spans recorded around calls into the crates, plus the
//! small statistics helpers the workloads share.
//!
//! Spans nest by call order (the benchmark is single-threaded): `begin`
//! makes the new span the parent of everything begun before its `end`.
//! Every span is folded into per-name totals; the first `cap` are also
//! kept whole and written out as JSON lines when the run ends.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.hook`.
    pub name: &'static str,
    /// Identifier, unique within one tracer.
    pub id: u32,
    /// The enclosing span (0 = none).
    pub parent: u32,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made.
    pub end_ns: u64,
    /// Allocations made inside the span.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

/// A begun span, closed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    start_ns: u64,
    allocs: u64,
    bytes: u64,
}

/// Per-name totals over every span with that name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    /// Summed duration.
    pub ns: u64,
    /// Number of spans.
    pub count: u64,
    /// Summed allocations.
    pub allocs: u64,
    /// Summed allocated bytes.
    pub bytes: u64,
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    current: u32,
    next_id: u32,
    cap: usize,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// A tracer keeping at most `cap` whole spans in memory.
    pub fn new(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            current: 0,
            next_id: 1,
            cap,
            spans: Vec::with_capacity(cap),
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let open = Open {
            id,
            parent: self.current,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            allocs: alloc::allocs(),
            bytes: alloc::bytes(),
        };
        self.current = id;
        open
    }

    /// Closes `open` under `name` and returns its duration in ns.
    pub fn end(&mut self, open: Open, name: &'static str) -> u64 {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            name,
            id: open.id,
            parent: open.parent,
            start_ns: open.start_ns,
            end_ns,
            allocs: alloc::allocs() - open.allocs,
            bytes: alloc::bytes() - open.bytes,
        };
        self.current = open.parent;
        let t = self.totals.entry(name).or_default();
        t.ns += end_ns - open.start_ns;
        t.count += 1;
        t.allocs += span.allocs;
        t.bytes += span.bytes;
        if self.spans.len() < self.cap {
            self.spans.push(span);
        }
        end_ns - open.start_ns
    }

    /// Totals for `name` (zero when no such span was recorded).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every kept span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.allocs, s.bytes
            );
        }
        out
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 for no samples.
pub fn quantile<T: Copy + PartialOrd + Into<f64>>(v: &mut [T], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1].into()
}

/// The median of `v`; 0 for no samples.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
