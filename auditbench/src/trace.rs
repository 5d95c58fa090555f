//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer: HTTP requests, the daemon's answer source, and the
//! in-process replica's knowledge store and truth source.
//!
//! Recording is off until [`set_enabled`] turns it on, so the untraced
//! run pays one relaxed load per call. Spans nest per thread: a span
//! opened while another is open on the same thread becomes its child.

use std::cell::RefCell;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Id of a span that belongs to no audit or request (the daemon's answer
/// source does not know which job asked).
pub const NO_ID: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer called: `http`, `crowd`, `memo`, `truth`, `core`.
    pub layer: &'static str,
    /// The call within the layer, e.g. `post_jobs` or `point_batch`.
    pub name: &'static str,
    /// Nanoseconds since the first span of the process.
    pub start_ns: u64,
    /// Nanoseconds since the first span of the process.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The audit or request the span belongs to, or [`NO_ID`].
    pub id: u64,
    /// A size carried with the call: objects asked, body bytes.
    pub value: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> MutexGuard<'static, Vec<Span>> {
    // A panicking recorder leaves at worst one unfinished span behind.
    SPANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// An open span; it ends when dropped.
#[must_use = "the span ends when the guard drops"]
pub struct Guard {
    index: Option<usize>,
    value: u64,
}

impl Guard {
    /// Attaches a size to the span.
    pub fn set_value(&mut self, value: u64) {
        self.value = value;
    }
}

/// Opens a span on the current thread.
pub fn enter(layer: &'static str, name: &'static str, id: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            index: None,
            value: 0,
        };
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let index = {
        let mut spans = spans();
        spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            value: 0,
        });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    Guard {
        index: Some(index),
        value: 0,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        if let Some(span) = spans().get_mut(index) {
            span.end_ns = end_ns;
            span.value = self.value;
        }
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap each other or outrun
/// their parent; only the union of their intervals inside the parent's
/// counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Writes spans as tab-separated lines:
/// `index layer name start_ns end_ns parent id value`.
pub fn write(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "index\tlayer\tname\tstart_ns\tend_ns\tparent\tid\tvalue"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let id = if s.id == NO_ID {
            "-".to_string()
        } else {
            s.id.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}\t{id}\t{}",
            s.layer, s.name, s.start_ns, s.end_ns, s.value
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "t",
            name: "t",
            start_ns,
            end_ns,
            parent,
            id: NO_ID,
            value: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,30) > b [12,20); c [50,60) under root.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(12, 20, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children overlap on [30,40); a third runs past the parent.
        let spans = [
            span(0, 100, None),
            span(20, 40, Some(0)),
            span(30, 50, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = [
            span(0, 10, None),
            span(0, 10, Some(0)),
            span(5, 10, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }
}
