//! In-memory spans around the calls the benchmark makes into each layer's
//! public functions. Spans are recorded only in the traced run, kept in
//! memory, and written out when the run ends; end-to-end numbers always
//! come from the untraced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` is an index into the recorder's span list;
/// all spans of one repetition share its `rep` identifier.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled recorder (the untraced run) does no work at
/// all — not even a clock read — so `time` can stay in the workload code
/// on both paths.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Identifier stamped on every span opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `layer.name`, child of whichever span is
    /// open; `f` gets the recorder back so it can open children.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total duration and self time per `layer.name`, in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    let own = self_times(spans);
    let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let key = format!("{}.{}", s.layer, s.name);
        match rows.iter_mut().find(|r| r.0 == key) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_ns();
                r.3 += own_ns;
            }
            None => rows.push((key, 1, s.dur_ns(), own_ns)),
        }
    }
    rows
}

/// Share of span `id`'s duration covered by its direct children.
pub fn child_coverage(spans: &[Span], id: usize) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    covered as f64 / spans[id].dur_ns().max(1) as f64
}

/// The span file: one JSON object per span plus the per-name roll-up.
/// Workloads with thousands of identical calls (campaign_small) would write
/// megabytes of leaf spans, so leaves beyond `max_leaf_spans` per name are
/// folded into the roll-up only; the roll-up always covers every span.
pub fn to_json(spans: &[Span], max_leaf_spans: usize) -> String {
    let own = self_times(spans);
    let mut written: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut out = String::from("{\n\"spans\": [\n");
    let mut first = true;
    for (i, s) in spans.iter().enumerate() {
        let n = written.entry((s.layer, s.name)).or_insert(0);
        *n += 1;
        if *n > max_leaf_spans {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {}, \"parent\": {parent}, \"rep\": {}}}",
            s.name, s.layer, s.start_ns, s.end_ns, own[i], s.rep
        ));
    }
    out.push_str("\n],\n\"by_name\": [\n");
    let rows: Vec<String> = by_name(spans)
        .into_iter()
        .map(|(name, calls, total, own)| {
            format!("{{\"name\": \"{name}\", \"calls\": {calls}, \"total_ns\": {total}, \"self_ns\": {own}}}")
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "t",
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("workload", 0, 100, None),
            span("rep", 10, 90, Some(0)),
            span("a", 10, 40, Some(1)),
            span("b", 50, 80, Some(1)),
            span("leaf", 55, 60, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 25, 5]);
        assert!((child_coverage(&spans, 1) - 0.75).abs() < 1e-12);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn roll_up_groups_by_layer_and_name() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("call", 0, 30, Some(0)),
            span("call", 30, 70, Some(0)),
        ];
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("t.rep".to_string(), 1, 100, 30));
        assert_eq!(rows[1], ("t.call".to_string(), 2, 70, 70));
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut r = Recorder::new(true);
        r.set_rep(3);
        let v = r.time("x", "outer", |r| r.time("y", "inner", |_| 7));
        assert_eq!(v, 7);
        let s = r.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].rep), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.time("x", "outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn span_file_caps_leaves_but_rolls_up_everything() {
        let mut spans = vec![span("rep", 0, 100, None)];
        for i in 0..10 {
            spans.push(span("call", i * 10, i * 10 + 10, Some(0)));
        }
        let json = to_json(&spans, 3);
        assert_eq!(json.matches("\"name\": \"call\"").count(), 3);
        assert!(json.contains(
            "{\"name\": \"t.call\", \"calls\": 10, \"total_ns\": 100, \"self_ns\": 100}"
        ));
    }
}
