//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! crate's public API (nothing inside the library is instrumented).  Each
//! span has a name `layer.call`, start and end times, and the index of the
//! span that was open when it started; every span under one root operation
//! carries that root's operation id.  Recording is off unless [`start`] was
//! called, and the benchmark drives everything from one client thread, so
//! the recorder is thread-local.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording (discarding anything recorded before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        })
    });
}

/// Stop recording and return the spans.
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Spans kept in memory at most; past it no new operation is recorded
/// (the one in progress completes).
pub const CAPACITY: usize = 400_000;

/// Whether recording is on and has reached [`CAPACITY`].
pub fn full() -> bool {
    RECORDER.with(|r| r.borrow().as_ref().is_some_and(|rec| rec.spans.len() >= CAPACITY))
}

/// Run `f` inside a span named `name`.  A span opened while no other span
/// is open starts a new operation.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        if rec.open.is_empty() && rec.spans.len() >= CAPACITY {
            return None;
        }
        let parent = rec.open.last().copied();
        let op = match parent {
            Some(p) => rec.spans[p].op,
            None => {
                rec.next_op += 1;
                rec.next_op
            }
        };
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        rec.open.push(rec.spans.len() - 1);
        Some(rec.spans.len() - 1)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// The layer of a span: the part of its name before the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, in seconds: each span's duration minus the part
/// its child spans cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *out.entry(layer(s.name)).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Durations in seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> crate::stats::Samples {
    let mut out = crate::stats::Samples::default();
    for s in spans.iter().filter(|s| s.name == name) {
        out.push(0, (s.end_ns - s.start_ns) as f64 * 1e-9);
    }
    out
}

/// Number of root operations among `spans`.
pub fn operations(spans: &[Span]) -> usize {
    spans.iter().filter(|s| s.parent.is_none()).count()
}

/// Write the first `limit` spans as CSV
/// (`op,index,parent,name,start_ns,end_ns`).
pub fn write_csv(spans: &[Span], limit: usize, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op,index,parent,name,start_ns,end_ns")?;
    for (i, s) in spans.iter().take(limit).enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(out, "{},{i},{parent},{},{},{}", s.op, s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_share_ids() {
        start();
        span("bench.op", || {
            span("client.submit", || std::thread::sleep(std::time::Duration::from_millis(2)))
        });
        span("bench.op", || {});
        let spans = stop();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
        assert_eq!(operations(&spans), 2);
        let by_layer = self_time_by_layer(&spans);
        assert!(by_layer["client"] >= 0.002);
        assert!(by_layer["bench"] < by_layer["client"]);
        // Not recording: spans are free and nothing is kept.
        span("client.submit", || {});
        assert!(stop().is_empty());
    }
}
