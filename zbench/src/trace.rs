//! In-memory spans recorded around calls into the layers' public
//! functions.
//!
//! Each span records its name, start, end, parent and op id. Spans stay in
//! memory and are written out (as JSON lines) when the run ends. A span's
//! self time is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, `<crate>.<call>`.
    pub name: &'static str,
    /// Op (request or step) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in [`Tracer::spans`], or none for a root.
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Time covered by direct children, ns.
    pub child_ns: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time covered by child spans, ns.
    pub fn self_ns(&self) -> u64 {
        self.ns().saturating_sub(self.child_ns)
    }
}

/// Records nested spans in call order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    enabled: bool,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            enabled: true,
        }
    }

    /// A tracer whose [`Tracer::span`] only runs the closure: no clock
    /// reads, nothing recorded, durations read 0. Runs the same calls as a
    /// traced run, for measuring the tracing overhead.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open span; returns its
    /// index for [`Tracer::get`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(idx);
        idx as usize
    }

    /// The span opened at `idx`.
    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter") as usize;
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let ns = span.ns();
        let parent = span.parent;
        if parent != ROOT {
            self.spans[parent as usize].child_ns += ns;
        }
        ns
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.enabled {
            return (f(), 0);
        }
        self.enter(name);
        let out = f();
        let ns = self.exit();
        (out, ns)
    }

    /// Every closed span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }

    /// Total and self time (ns) and count per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in self.spans() {
            let e = out.entry(s.name).or_default();
            e.0 += s.ns();
            e.1 += s.self_ns();
            e.2 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line to
    /// `zbench/out/spans-<workload>.jsonl`; returns the path.
    pub fn write_out(&self, workload: &str) -> std::io::Result<PathBuf> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in self.spans() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        w.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_op(7);
        t.enter("op");
        let ((), child) = t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].op, 7);
        assert_eq!(spans[0].child_ns, child);
        assert_eq!(spans[0].self_ns(), total - child);
        let summary = t.summary();
        assert_eq!(summary["child"].2, 1);
    }
}
