//! Spans around the benchmark's calls into each layer.
//!
//! One `Tracer` per traced run, one driver thread, spans kept in memory
//! and written out as JSON lines when the run ends. A span's parent is
//! the span that was open when it started; a layer's self time is its
//! span minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `pop` value of a span that belongs to no single PoP.
pub const NO_POP: u16 = u16::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub epoch: u32,
    pub pop: u16,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Epoch stamped on spans opened from now on.
    pub epoch: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            epoch: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, pop: u16) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            epoch: self.epoch,
            pop,
        });
        self.stack.push(id);
        // Read the clock last, so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        self.spans[open.0 as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of every span called `name`, µs, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Total time in spans called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let pop = if s.pop == NO_POP {
                "null".to_string()
            } else {
                s.pop.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{},\"pop\":{pop}}}",
                s.name, s.start_ns, s.end_ns, s.epoch
            )?;
        }
        out.flush()
    }
}

/// Self time per span, ns: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed by span name, ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            epoch: 0,
            pop: NO_POP,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // epoch[0,100] ⊃ step[10,90] ⊃ project[20,50]
        let spans = vec![
            span("epoch", 0, 100, None),
            span("step", 10, 90, Some(0)),
            span("project", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn siblings_both_come_off_the_parent() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["epoch"], 30);
        assert_eq!(by_name["a"] + by_name["b"], 70);
    }

    #[test]
    fn zero_length_spans_cost_nothing() {
        let spans = vec![
            span("epoch", 5, 5, None),
            span("noop", 5, 5, Some(0)),
            span("other", 7, 9, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 0, 2]);
    }

    #[test]
    fn tracer_records_parents_epochs_and_nesting() {
        let mut t = Tracer {
            epoch: 3,
            ..Tracer::default()
        };
        let outer = t.enter("outer", NO_POP);
        let inner = t.enter("inner", 2);
        t.exit(inner);
        t.exit(outer);
        let top = t.enter("top", 0);
        t.exit(top);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|s| s.epoch == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
        assert!(text.lines().next().unwrap().contains("\"pop\":null"));
    }
}
