//! Flamegraph-style text report: pairs span begin/end events into a
//! tree and attributes cycle cost to each frame.
//!
//! For every span the report shows *total* cycles (end minus begin) and
//! *self* cycles (total minus the children's totals) — the number that
//! tells you where time actually went, which is the paper's point about
//! fork: the cost hides in page-table walks nested three spans deep.
//!
//! ```
//! use fpr_trace::{report, sink};
//!
//! let ((), events) = sink::with_sink(|| {
//!     sink::span_begin("fork", "api", 0);
//!     sink::span_begin("clone_address_space", "mem", 400);
//!     sink::span_end("clone_address_space", 10_000);
//!     sink::span_end("fork", 12_000);
//! });
//! let tree = report::build_tree(&events);
//! assert_eq!(tree.len(), 1);
//! assert_eq!(tree[0].total(), 12_000);
//! assert_eq!(tree[0].self_cycles(), 2_400);
//! let text = report::render(&events, 3_000);
//! assert!(text.contains("clone_address_space"));
//! ```

use crate::event::{Phase, TraceEvent};

/// One node of the reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Category of the begin event.
    pub cat: &'static str,
    /// Begin timestamp (cycles).
    pub start: u64,
    /// End timestamp (cycles).
    pub end: u64,
    /// Nested child spans, in order.
    pub children: Vec<SpanNode>,
    /// Instant events that fired inside this span (excluding ones
    /// attributed to a deeper child).
    pub instants: u64,
}

impl SpanNode {
    /// Total cycles spent in the span, children included.
    pub fn total(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Cycles spent in the span itself, children excluded.
    pub fn self_cycles(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.total()).sum();
        self.total().saturating_sub(children)
    }
}

/// Reconstructs the span forest from an event stream. Unbalanced input
/// is tolerated: an unmatched `End` is dropped, an unmatched `Begin` is
/// closed at the last timestamp seen (so a partial trace still reports).
pub fn build_tree(events: &[TraceEvent]) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    let mut last_ts = 0u64;
    for ev in events {
        last_ts = last_ts.max(ev.ts);
        match ev.ph {
            Phase::Begin => stack.push(SpanNode {
                name: ev.name.to_string(),
                cat: ev.cat,
                start: ev.ts,
                end: ev.ts,
                children: Vec::new(),
                instants: 0,
            }),
            Phase::End => {
                if let Some(mut node) = stack.pop() {
                    node.end = ev.ts;
                    attach(&mut roots, &mut stack, node);
                }
            }
            Phase::Instant => {
                if let Some(open) = stack.last_mut() {
                    open.instants += 1;
                }
            }
            Phase::Counter => {}
        }
    }
    while let Some(mut node) = stack.pop() {
        node.end = last_ts;
        attach(&mut roots, &mut stack, node);
    }
    roots
}

fn attach(roots: &mut Vec<SpanNode>, stack: &mut [SpanNode], node: SpanNode) {
    match stack.last_mut() {
        Some(parent) => parent.children.push(node),
        None => roots.push(node),
    }
}

/// Renders the cost-attribution report: one line per span frame,
/// indented by depth, with total/self cycles and the share of the
/// outermost span's total.
pub fn render(events: &[TraceEvent], cycles_per_us: u64) -> String {
    let roots = build_tree(events);
    let grand: u64 = roots.iter().map(|r| r.total()).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "# cost attribution ({} cycles = 1 us; {} events, {} root spans)\n",
        cycles_per_us,
        events.len(),
        roots.len()
    ));
    out.push_str(&format!(
        "{:<44} {:>12} {:>12} {:>7}\n",
        "span", "total", "self", "%"
    ));
    for root in &roots {
        render_node(&mut out, root, 0, grand.max(1));
    }
    out
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize, grand: u64) {
    let label = format!(
        "{}{}{}",
        "  ".repeat(depth),
        node.name,
        if node.instants > 0 {
            format!(" [{}i]", node.instants)
        } else {
            String::new()
        }
    );
    out.push_str(&format!(
        "{:<44} {:>12} {:>12} {:>6.1}%\n",
        label,
        node.total(),
        node.self_cycles(),
        100.0 * node.total() as f64 / grand as f64
    ));
    for c in &node.children {
        render_node(out, c, depth + 1, grand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ph: Phase, ts: u64) -> TraceEvent {
        TraceEvent::new(name, "api", ph, ts)
    }

    #[test]
    fn nested_spans_become_a_tree_with_self_cost() {
        let events = vec![
            ev("a", Phase::Begin, 0),
            ev("b", Phase::Begin, 10),
            ev("x", Phase::Instant, 15),
            ev("b", Phase::End, 30),
            ev("c", Phase::Begin, 40),
            ev("c", Phase::End, 90),
            ev("a", Phase::End, 100),
        ];
        let tree = build_tree(&events);
        assert_eq!(tree.len(), 1);
        let a = &tree[0];
        assert_eq!(a.total(), 100);
        assert_eq!(a.children.len(), 2);
        assert_eq!(a.children[0].total(), 20);
        assert_eq!(a.children[0].instants, 1);
        assert_eq!(a.self_cycles(), 100 - 20 - 50);
    }

    #[test]
    fn unmatched_begin_closed_at_last_ts() {
        let events = vec![ev("a", Phase::Begin, 0), ev("b", Phase::Instant, 70)];
        let tree = build_tree(&events);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].total(), 70);
    }

    #[test]
    fn unmatched_end_is_dropped() {
        let events = vec![ev("a", Phase::End, 10)];
        assert!(build_tree(&events).is_empty());
    }

    #[test]
    fn render_includes_header_and_percentages() {
        let events = vec![
            ev("fork", Phase::Begin, 0),
            ev("pt", Phase::Begin, 100),
            ev("pt", Phase::End, 900),
            ev("fork", Phase::End, 1000),
        ];
        let text = render(&events, 3000);
        assert!(text.contains("cost attribution"));
        assert!(text.contains("fork"));
        assert!(text.contains("100.0%"));
        assert!(text.contains("80.0%"), "pt is 80% of the root:\n{text}");
    }
}
