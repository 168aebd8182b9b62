//! In-memory span recording for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span
//! (name, start, end, parent, request id). Spans stay in memory while
//! the run measures and are written out as JSON lines when it ends.
//! Recording can be switched off per pass, which is how the traced run
//! measures its own overhead: traced and untraced passes alternate.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Enclosing span, or 0.
    pub parent: u64,
    /// The request (pass, query or epoch) the span belongs to.
    pub request: u64,
    /// Layer call, e.g. `client.push_batch`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span handle; pass it back to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed with Recorder::exit"]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// Collects spans; disabled recorders cost one branch per call.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder { origin: Instant::now(), enabled, next_id: 1, spans: Vec::new() }
    }

    /// A recorder for another thread: same clock origin, its own id
    /// range, merged back with [`Recorder::absorb`].
    #[must_use]
    pub fn fork(&self, enabled: bool) -> Self {
        Recorder {
            origin: self.origin,
            enabled,
            next_id: self.next_id + (1 << 32),
            spans: Vec::new(),
        }
    }

    /// Appends a forked recorder's spans.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Whether spans are being recorded right now.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced run alternates passes).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (or a root span if `None`), or returns
    /// `None` when recording is off.
    pub fn enter(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<&Open>,
    ) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        Some(Open {
            id,
            parent: parent.map_or(0, |p| p.id),
            request,
            name,
            start_ns: self.now_ns(),
        })
    }

    /// Closes a span opened by [`Recorder::enter`] (a `None` from a
    /// disabled recorder is ignored).
    pub fn exit(&mut self, open: Option<Open>) {
        if let Some(o) = open {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                request: o.request,
                name: o.name,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, request, parent);
        let out = f();
        self.exit(open);
        out
    }

    /// Every finished span, in the order they closed.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans named `name` in timed requests
    /// (request 0 marks untimed work: warm-up and verification).
    #[must_use]
    pub fn timed_durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name && s.request > 0).map(Span::nanos).collect()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_request() {
        let mut rec = Recorder::new(true);
        let pass = rec.enter("pass", 7, None);
        let push = rec.enter("client.push_batch", 7, pass.as_ref());
        rec.exit(push);
        let fin = rec.time("client.finish", 7, pass.as_ref(), || 3);
        assert_eq!(fin, 3);
        rec.exit(pass);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "pass").unwrap();
        assert_eq!(root.parent, 0);
        assert!(spans.iter().filter(|s| s.name != "pass").all(|s| s.parent == root.id));
        assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let children: u64 = spans.iter().filter(|s| s.parent == root.id).map(Span::nanos).sum();
        assert!(children <= root.nanos(), "children sit inside their parent");
        assert_eq!(rec.timed_durations("client.push_batch").len(), 1);
        assert_eq!(rec.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("pass", 1, None);
        assert!(open.is_none());
        rec.exit(open);
        assert_eq!(rec.time("x", 1, None, || 5), 5);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        rec.time("x", 2, None, || ());
        rec.time("x", 0, None, || ());
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.timed_durations("x"), vec![rec.spans()[0].nanos()], "request 0 is untimed");
    }
}
