//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, workload, rep}`; the spans
//! of one operation share `rep`. They are pushed to a preallocated vector
//! and written once, when the run ends, in Chrome trace-event format. A
//! layer's self time is its span minus the interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::median;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Start the next operation: spans recorded from here share a `rep`.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Run `f` under a span named `name`, nested in whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let start = self.epoch.elapsed();
        let out = f(self);
        let end = self.epoch.elapsed();
        self.open.pop();
        let s = &mut self.spans[id as usize];
        s.start_ns = start.as_nanos() as u64;
        s.end_ns = end.as_nanos() as u64;
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Median over reps of each span name's duration (summed when a name
    /// occurs more than once in a rep), in milliseconds.
    pub fn median_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut by: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for s in &self.spans {
            *by.entry((s.name, s.rep)).or_default() += s.dur_ns();
        }
        let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in by {
            per_rep.entry(name).or_default().push(ns as f64 / 1e6);
        }
        per_rep
            .into_iter()
            .map(|(name, ms)| (name, median(&ms)))
            .collect()
    }

    /// Each span's self time: its duration minus the interval covered by
    /// its direct children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.dur_ns();
            }
        }
        own
    }

    /// For each rep that ran an `op`, in order: the op's duration and the
    /// sum of the layers' self times in it — every span of the rep except
    /// `op` itself and the facade's own (`ldl1.*`) — in milliseconds.
    /// `answer_ms` minus the layer sum is what the facade itself costs.
    pub fn ops_and_layers_ms(&self) -> Vec<(f64, f64)> {
        let own = self.self_ns();
        let mut by_rep: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let (op, layers) = by_rep.entry(s.rep).or_default();
            if s.name == "op" {
                *op += s.dur_ns();
            } else if !s.name.starts_with("ldl1.") {
                *layers += own;
            }
        }
        by_rep
            .into_values()
            .filter(|(op, _)| *op > 0)
            .map(|(op, layers)| (op as f64 / 1e6, layers as f64 / 1e6))
            .collect()
    }

    /// The spans as a Chrome trace-event array body (`ph: "X"` complete
    /// events, microsecond timestamps), one event per line, no brackets —
    /// the parent process joins the workloads' files into `trace.json`.
    pub fn chrome_events(&self, pid: usize) -> String {
        let mut out = String::with_capacity(self.spans.len() * 140);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":1,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\",\"rep\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                self.workload,
                s.rep,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new("test");
        t.next_rep();
        t.span("op", |t| {
            t.span("eval.outer", |t| {
                t.span("eval.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
            t.span("ldl1.own", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let total = t.median_ms();
        let own = t.self_ns();
        assert_eq!(own[1], t.spans[1].dur_ns() - t.spans[2].dur_ns());
        // Layers are counted once however they nest; the facade's own span is not a layer.
        let ops = t.ops_and_layers_ms();
        assert_eq!(ops.len(), 1);
        assert!((ops[0].0 - total["op"]).abs() < 1e-9);
        assert!((ops[0].1 - total["eval.outer"]).abs() < 1e-9);
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(t.chrome_events(1).contains("\"name\":\"eval.inner\""));
    }
}
