//! In-memory spans for the traced run: one span per call into a layer,
//! with its parent, kept in memory and written out as JSONL when the run
//! ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The program (or request) the call worked on.
    pub label: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id and client id, on serve-mix request spans.
    pub request: Option<(u64, u32)>,
}

/// A span recorder for one thread.  Spans nest: a span opened while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn ns_between(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, label: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.to_string(),
            parent: self.open.last().copied(),
            start_ns: ns_between(self.origin, Instant::now()),
            end_ns: 0,
            request: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = ns_between(self.origin, Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end;
        (end - s.start_ns) as f64 / 1e6
    }

    /// Runs `f` under span `name` on `label`: (milliseconds, `f`'s result).
    pub fn time(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce() -> bool,
    ) -> (f64, bool) {
        let id = self.open(name, label);
        let ok = f();
        (self.close(id), ok)
    }

    /// Tags span `id` with a serve request id and client id.
    pub fn tag_request(&mut self, id: usize, request: u64, client: u32) {
        self.spans[id].request = Some((request, client));
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"label\": \"{}\", \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}",
                s.name,
                s.label.replace(['"', '\\'], "_"),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            );
            if let Some((req, client)) = s.request {
                let _ = write!(out, ", \"request\": {req}, \"client\": {client}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_rebase() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        let outer = a.open("outer", "p");
        let inner = a.open("inner", "p");
        assert!(a.close(inner) >= 0.0);
        a.close(outer);
        let mut b = Tracer::new(t0);
        let r = b.open("request", "q");
        b.tag_request(r, 7, 1);
        let c = b.open("serve", "q");
        b.close(c);
        b.close(r);
        a.absorb(b);
        let text = a.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"parent\": 0"));
        assert!(lines[2].contains("\"request\": 7, \"client\": 1"));
        assert!(lines[3].contains("\"parent\": 2"), "{}", lines[3]);
    }
}
