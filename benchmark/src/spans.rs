//! In-memory spans around calls into a layer's public functions.
//!
//! A span is (name, start, end, parent).  Spans nest by call order, are
//! kept in memory and written out when the traced invocation ends.  A
//! disabled tracer records nothing and reads no clock, so the timed
//! repetitions of an untraced invocation run the same code without it.

use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.advance.join`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn recording() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that ignores every call.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::recording()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, under the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every recorded span (the epoch stays).
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "cannot clear with spans open");
        self.spans.clear();
    }
}

/// Self time of span `i`: its duration minus the durations of its direct
/// children (children of one parent never overlap — spans nest by call
/// order on one thread).
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(Span::dur_ns)
        .sum();
    spans[i].dur_ns() - children
}

/// The spans as a JSON array, one object per span, with self time.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"self_ns\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns(spans, i),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("a", 100, 400, Some(0)),
            span("a.inner", 150, 250, Some(1)),
            span("b", 500, 900, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 1000 - 300 - 400);
        assert_eq!(self_ns(&spans, 1), 300 - 100);
        assert_eq!(self_ns(&spans, 2), 100);
        assert_eq!(self_ns(&spans, 3), 400);
    }

    #[test]
    fn tracer_nests_by_call_order_and_disabled_records_nothing() {
        let mut t = Tracer::recording();
        t.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.span("leaf", |_| ()));
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("first", Some(0)),
                ("second", Some(0)),
                ("leaf", Some(2))
            ]
        );
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        // Children lie inside their parent, so self time never underflows.
        for i in 0..t.spans().len() {
            let _ = self_ns(t.spans(), i);
        }

        let mut off = Tracer::disabled();
        off.span("outer", |t| t.span("inner", |_| ()));
        assert!(off.spans().is_empty());
    }
}
