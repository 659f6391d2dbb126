//! In-memory host-time spans around the benchmark's calls into each
//! layer's public functions. Spans nest strictly (open/close in one call
//! frame); they are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: `name` is `<layer>.<call>`, times are nanoseconds
/// since the recorder started, `parent` indexes the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Wraps a layer call. [`Spans`] records a span around it; [`Untimed`]
/// just makes the call, so one piece of driver code serves both the
/// timed and the traced run.
pub trait Timer {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

/// The [`Timer`] of the timed run: no spans.
pub struct Untimed;

impl Timer for Untimed {
    fn time<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

impl Timer for Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        Spans::time(self, name, f)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span, which must be `name`.
    pub fn close(&mut self, name: &'static str) {
        let idx = self.open.pop().expect("close without open span");
        assert_eq!(self.spans[idx].name, name, "spans must nest strictly");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close(name);
        out
    }

    /// Every closed span named `name`.
    pub fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_owned();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Self time of every span, by index: its duration minus what its
    /// children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time of every span named `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Nanoseconds covered by top-level spans (no parent) that lie
    /// within `[from_ns, to_ns]`.
    pub fn covered_ns_between(&self, from_ns: u64, to_ns: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from_ns && s.end_ns <= to_ns)
            .map(Span::duration_ns)
            .sum()
    }

    /// Nanoseconds since the recorder started.
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Every span as one JSON object per line, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
