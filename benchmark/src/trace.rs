//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program (see `adapter.rs`), on the thread that makes them. A span's
//! name starts with the layer it enters (`service.`, `placement.`, ...);
//! spans named `bench.*` are the benchmark's own frames and count towards
//! no layer. With tracing off, [`span`] costs one thread-local read.

use crate::sys::now_ns;
use std::cell::RefCell;
use std::io::Write;

const NO_PARENT: u32 = u32::MAX;

/// One closed interval on the recording thread.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start and end in ns since process start.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// The repetition / batch / cell the span belongs to.
    pub request: u32,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    current: Option<u32>,
    request: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start recording on this thread.
pub fn enable() {
    RECORDER.with(|r| r.borrow_mut().on = true);
}

/// Stop recording and hand back everything recorded so far.
pub fn disable_and_take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.current = None;
        std::mem::take(&mut r.spans)
    })
}

/// How many spans this thread has recorded; pass it to [`since`].
pub fn mark() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// A copy of the spans recorded after `mark`. Their `parent` indices
/// still count from the start of the recording.
pub fn since(mark: usize) -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans[mark..].to_vec())
}

/// Tag the spans opened from now on with `request`.
pub fn set_request(request: u32) {
    RECORDER.with(|r| r.borrow_mut().request = request);
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Open a span; it closes when the guard drops.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return SpanGuard(None);
        }
        let id = r.spans.len() as u32;
        let parent = r.current.unwrap_or(NO_PARENT);
        let request = r.request;
        r.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            request,
        });
        r.current = Some(id);
        SpanGuard(Some(id))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end = now_ns();
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                // Recording may have been taken while the guard lived.
                if let Some(s) = r.spans.get_mut(id as usize) {
                    s.end = end;
                    let parent = s.parent;
                    r.current = (parent != NO_PARENT).then_some(parent);
                }
            });
        }
    }
}

/// Σ self time of every layer span (anything not named `bench.*`). Self
/// time is a span's duration minus the durations of its direct children.
pub fn layer_self_ns(spans: &[Span]) -> u64 {
    let duration = |s: &Span| s.end.saturating_sub(s.start);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += duration(s);
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .filter(|(s, _)| !s.name.starts_with("bench."))
        .map(|(s, child)| duration(s).saturating_sub(child))
        .sum()
}

/// Write the spans as one JSON array of
/// `{name, start, end, parent, request}` objects (`parent` −1 for roots).
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}{}",
            s.name, s.start, s.end, parent, s.request, comma
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}
