//! Spans, kept in memory and written out when the run ends.
//!
//! The traced run replays each op as a *layer ladder*: the root span is
//! the TCP call, and the same logical op is then re-executed against
//! each lower layer's public entry points. Child spans therefore lie
//! *after* their parent in time; they share the root's op index, and a
//! span's self time is its duration minus its children's durations.

use crate::sys::{self, ProcIo};
use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = 0;

pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Index of the op this span belongs to; spans of one op share it.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub alloc_bytes: u64,
    /// `/proc/self/io` deltas; zero for spans opened without I/O counting.
    pub io: ProcIo,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open measurement: clock, allocator and (optionally) I/O counters
/// read at the start.
pub struct Probe {
    start: Instant,
    alloc: u64,
    io: Option<ProcIo>,
}

impl Probe {
    /// `with_io` costs two reads of `/proc/self/io` (tens of µs), so
    /// only spans that touch files ask for it.
    pub fn start(with_io: bool) -> Probe {
        let io = with_io.then(ProcIo::read);
        Probe {
            alloc: sys::alloc_bytes(),
            io,
            start: Instant::now(),
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(&mut self, name: &'static str, parent: SpanId, op: u32, start: Instant, ns: u64, alloc: u64, io: ProcIo) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns + ns,
            alloc_bytes: alloc,
            io,
        });
        id
    }

    /// Closes `probe` as a span.
    pub fn finish(&mut self, probe: Probe, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        let ns = probe.start.elapsed().as_nanos() as u64;
        let alloc = sys::alloc_bytes() - probe.alloc;
        let io = probe.io.map_or_else(ProcIo::default, |io0| ProcIo::read().since(&io0));
        self.push(name, parent, op, probe.start, ns, alloc, io)
    }

    /// Records a span that was timed elsewhere (the TCP call).
    pub fn record(&mut self, name: &'static str, op: u32, start: Instant, ns: u64, alloc: u64) -> SpanId {
        self.push(name, NO_PARENT, op, start, ns, alloc, ProcIo::default())
    }

    /// Runs `work` as a span and returns its id with the result.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, op: u32, with_io: bool, work: impl FnOnce() -> T) -> (SpanId, T) {
        let probe = Probe::start(with_io);
        let out = work();
        (self.finish(probe, name, parent, op), out)
    }

    /// Per span id: duration minus the durations of its children.
    pub fn self_ns(&self) -> HashMap<SpanId, u64> {
        self_times(self.spans.iter().map(|s| (s.id, s.parent, s.ns())))
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"alloc_bytes\":{},\"rchar\":{},\"wchar\":{},\"syscr\":{},\"syscw\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.alloc_bytes, s.io.rchar, s.io.wchar, s.io.syscr, s.io.syscw
            )?;
        }
        out.flush()
    }
}

/// Self time of every span in a tree given as `(id, parent, duration)`.
pub fn self_times(spans: impl Iterator<Item = (SpanId, SpanId, u64)>) -> HashMap<SpanId, u64> {
    let mut own: HashMap<SpanId, u64> = HashMap::new();
    let mut children: HashMap<SpanId, u64> = HashMap::new();
    for (id, parent, ns) in spans {
        own.insert(id, ns);
        *children.entry(parent).or_default() += ns;
    }
    own.into_iter()
        .map(|(id, ns)| (id, ns.saturating_sub(children.get(&id).copied().unwrap_or(0))))
        .collect()
}
