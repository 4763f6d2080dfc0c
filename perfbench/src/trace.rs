//! Span recording around the calls the benchmark makes into each layer.
//!
//! Nothing inside the program is instrumented: a span is an `Instant` pair
//! taken by the load generator around one public call, or — for the jobs a
//! workflow ran — a child synthesized from the `wall` the returned
//! `JobMetrics` reports. The load generator is one thread, so a stack gives
//! every span its parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The round this span belongs to; set-up spans carry round 0.
    pub round: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the round and set-up code is generic over: the traced run records,
/// the untraced run compiles down to the bare calls.
pub trait Recorder {
    /// Time `f` as a span named `name`, child of the innermost open span.
    /// `f` gets the recorder back so that it can open spans of its own.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T;
    /// Add finished children of the span that just closed, laid end to end
    /// from its start (their real start times are not visible from outside).
    fn children_of_last(&mut self, children: &[(&'static str, u64)]);
    /// Whether spans are kept — lets callers skip work done only to be traced.
    fn enabled(&self) -> bool;
}

pub struct NoTrace;

impl Recorder for NoTrace {
    #[inline]
    fn span<T>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
    fn children_of_last(&mut self, _children: &[(&'static str, u64)]) {}
    fn enabled(&self) -> bool {
        false
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    pub round: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Recorder for Tracer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.last_closed = Some(idx);
        out
    }

    fn children_of_last(&mut self, children: &[(&'static str, u64)]) {
        let Some(parent) = self.last_closed else {
            return;
        };
        let mut cursor = self.spans[parent].start_ns;
        for &(name, ns) in children {
            self.spans.push(Span {
                name,
                start_ns: cursor,
                end_ns: cursor + ns,
                parent: Some(parent),
                round: self.spans[parent].round,
            });
            cursor += ns;
        }
    }

    fn enabled(&self) -> bool {
        true
    }
}

/// Per span name: total time and self time (span minus its direct children),
/// in nanoseconds, over `spans[from..]`.
pub fn totals_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, (u64, u64)> {
    let spans = &spans[from..];
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        // A parent before `from` is outside the part being summed.
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(from)) {
            child_ns[p] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += s.ns();
        e.1 += s.ns().saturating_sub(children);
    }
    out
}

/// The whole trace as one JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            s,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"round\": {}}}{sep}",
            sp.name, sp.start_ns, sp.end_ns, sp.round
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("execute", 10, 90, Some(0)),
            span("job", 10, 40, Some(1)),
            span("job", 40, 70, Some(1)),
        ];
        let t = totals_by_name(&spans, 0);
        assert_eq!(t["round"], (100, 20));
        assert_eq!(t["execute"], (80, 20));
        assert_eq!(t["job"], (60, 60));
        // Self times add up to the root: nothing is counted twice or lost.
        assert_eq!(t.values().map(|v| v.1).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_lays_synthesized_children_end_to_end() {
        let mut tr = Tracer::new();
        tr.round = 3;
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        tr.children_of_last(&[("job", 5), ("job", 7)]);
        let names: Vec<_> = tr
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.round))
            .collect();
        assert_eq!(
            names,
            [
                ("outer", None, 3),
                ("inner", Some(0), 3),
                ("job", Some(0), 3),
                ("job", Some(0), 3)
            ]
        );
        let outer_start = tr.spans[0].start_ns;
        assert_eq!(tr.spans[2].start_ns, outer_start);
        assert_eq!(tr.spans[3].start_ns, outer_start + 5);
        assert_eq!(tr.spans[3].end_ns, outer_start + 12);
        assert!(tr.spans[1].start_ns >= outer_start && tr.spans[1].end_ns <= tr.spans[0].end_ns);
    }
}
