//! Host-time spans the benchmark records around its calls into each
//! layer (build, mint, execute or step, functional check, report). Spans
//! stay in memory and are written out once, at the end of a traced run,
//! as Chrome trace events (Perfetto-loadable).

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span covers.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, relative to the recorder's origin.
    pub start_ns: u64,
    /// End, relative to the recorder's origin.
    pub end_ns: u64,
    /// Work items the span covered (requests, events), 0 when not counted.
    pub count: u64,
}

/// An in-memory span recorder. Disabled recorders drop every span, so
/// untraced runs pay nothing beyond the `Instant` reads the timed metrics
/// need anyway.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]` and returns its index, usable as
    /// a parent of later spans.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        count: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Spans::close`]. Returns its index
    /// (`None` when disabled) and the start time.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> (Option<usize>, Instant) {
        let now = Instant::now();
        (self.record(name, parent, (now, now), 0), now)
    }

    /// Closes a span opened by [`Spans::open`], setting its end and count.
    pub fn close(&mut self, id: Option<usize>, count: u64) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
            self.spans[i].count = count;
        }
    }

    /// Host time of span `i` not covered by its direct children.
    pub fn self_ns(&self, i: usize) -> u64 {
        let own = self.spans[i].end_ns - self.spans[i].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children)
    }

    /// Chrome trace-event `"X"` records, one per span, with the parent
    /// index, count and self time as arguments.
    pub fn trace_events(&self) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{i},\"parent\":{},\"count\":{},\"self_us\":{:.3}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.count,
                    self.self_ns(i) as f64 / 1e3,
                )
            })
            .collect()
    }
}
