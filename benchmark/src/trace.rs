//! Span recorder, JSON writer, and self time by subtraction.
//!
//! This change may not put spans inside the program, so the trace is
//! recorded from outside, around the calls into each layer (see
//! `ladder.rs`). A span is `(name, start, end, parent)`; spans of one
//! request share its `req` id. They stay in memory until the run ends
//! and are then written out as one JSON document.
//!
//! A span's **self time** is its duration minus the durations of its
//! direct children. The ladder measures a child in a different replay
//! from its parent, so the subtraction is over durations, not over
//! interval coverage, and a residual can come out negative (noise, or
//! children the program runs in parallel but the ladder measured one at
//! a time). A negative residual is clamped to zero and counted, so the
//! report shows how often the subtraction failed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The request this call belongs to (its index in the stream).
    pub req: u32,
    /// The span that caused this one: the same request's span one
    /// level up.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        req: u32,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span { name, req, parent, start_ns, end_ns });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (self.push(name, req, parent, start, end), out)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as `{"workload": .., "seed": .., "spans": [..]}`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{sep}\n{{\"id\":{id},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self times of a span set, grouped by span name.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Per name: each span's self time in nanoseconds, in recording order.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
    /// Spans whose children summed to more than the span itself.
    pub negative_residuals: u64,
}

impl SelfTimes {
    /// Sum of the self times recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.iter().sum())
    }
}

/// Self time by subtraction: each span's duration minus its direct
/// children's durations, clamped at zero (and counted when clamped).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out = SelfTimes::default();
    for (s, &kids) in spans.iter().zip(&children_ns) {
        let own = s.duration_ns();
        if kids > own {
            out.negative_residuals += 1;
        }
        out.by_name.entry(s.name).or_default().push(own.saturating_sub(kids));
    }
    out
}

/// Durations of every span called `name`, in nanoseconds.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// The unattributed share of the spans called `parent`: their total
/// self time (from `selfs`, the [`self_times`] of the same spans) over
/// their total duration — for `core.summarize`, what osgen + algo +
/// project do not account for. `None` without samples.
pub fn other_share(spans: &[Span], selfs: &SelfTimes, parent: &str) -> Option<f64> {
    let total: u64 = spans.iter().filter(|s| s.name == parent).map(Span::duration_ns).sum();
    (total > 0).then(|| selfs.total_ns(parent) as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span { name, req: 0, parent, start_ns: start, end_ns: end }
    }

    /// net(0..100) -> cluster(10..80) -> {serve(20..40), serve(40..70)}
    /// -> core(25..35) under the first serve, a zero-length probe under
    /// the second.
    fn tree() -> Vec<Span> {
        vec![
            span("net", None, 0, 100),
            span("cluster", Some(0), 10, 80),
            span("serve", Some(1), 20, 40),
            span("serve", Some(1), 40, 70),
            span("core", Some(2), 25, 35),
            span("probe", Some(3), 50, 50),
        ]
    }

    #[test]
    fn nested_and_sibling_spans_subtract_their_children() {
        let st = self_times(&tree());
        assert_eq!(st.by_name["net"], vec![30]); // 100 - 70
        assert_eq!(st.by_name["cluster"], vec![20]); // 70 - (20 + 30)
        assert_eq!(st.by_name["serve"], vec![10, 30]); // 20 - 10, 30 - 0
        assert_eq!(st.by_name["core"], vec![10]);
        assert_eq!(st.negative_residuals, 0);
        assert_eq!(st.total_ns("serve"), 40);
        assert_eq!(st.total_ns("absent"), 0);
    }

    #[test]
    fn zero_length_spans_are_kept_and_cost_nothing() {
        let st = self_times(&tree());
        assert_eq!(st.by_name["probe"], vec![0]);
        assert_eq!(tree()[5].duration_ns(), 0);
    }

    #[test]
    fn negative_residual_is_clamped_and_counted() {
        // Two children measured one at a time (30 + 30) under a parent
        // that ran them in parallel (40).
        let spans = vec![
            span("cluster", None, 0, 40),
            span("serve", Some(0), 0, 30),
            span("serve", Some(0), 100, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st.by_name["cluster"], vec![0]);
        assert_eq!(st.negative_residuals, 1);
    }

    #[test]
    fn other_share_is_self_over_total() {
        let spans = vec![
            span("core.summarize", None, 0, 100),
            span("core.osgen", Some(0), 0, 50),
            span("core.algo", Some(0), 0, 25),
            span("core.project", Some(0), 0, 5),
            span("core.summarize", None, 200, 300),
            span("core.osgen", Some(4), 0, 80),
        ];
        // (20 + 20) / 200
        let selfs = self_times(&spans);
        assert_eq!(other_share(&spans, &selfs, "core.summarize"), Some(0.2));
        assert_eq!(other_share(&spans, &selfs, "absent"), None);
        assert_eq!(durations_of(&spans, "core.osgen"), vec![50.0, 80.0]);
    }

    #[test]
    fn recorder_times_calls_and_links_them() {
        let mut rec = Recorder::new();
        let (top, ()) = rec.time("net.call", 7, None, || ());
        let (kid, v) = rec.time("cluster.call", 7, Some(top), || 42);
        assert_eq!(v, 42);
        assert_eq!(rec.spans()[kid as usize].parent, Some(top));
        assert!(rec.spans()[0].end_ns >= rec.spans()[0].start_ns);
    }

    #[test]
    fn json_writer_output_is_pinned() {
        let mut rec = Recorder::new();
        let top = rec.push("net.call", 7, None, 5, 105);
        rec.push("cluster.query", 7, Some(top), 10, 90);
        let dir = crate::stack::ScratchDir::new("trace-test");
        let path = dir.path().join("trace_test.json");
        rec.write_json(&path, "hot_read", 3).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"workload\":\"hot_read\",\"seed\":3,\"spans\":[\n\
             {\"id\":0,\"req\":7,\"name\":\"net.call\",\"parent\":null,\"start_ns\":5,\"end_ns\":105},\n\
             {\"id\":1,\"req\":7,\"name\":\"cluster.query\",\"parent\":0,\"start_ns\":10,\"end_ns\":90}\n\
             ]}\n"
        );
        // No spans: still one valid document.
        Recorder::new().write_json(&path, "hot_read", 3).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"workload\":\"hot_read\",\"seed\":3,\"spans\":[\n]}\n"
        );
    }
}
