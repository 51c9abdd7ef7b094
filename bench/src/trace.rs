//! In-memory spans around the calls into each layer, written out when the
//! run ends as Chrome trace-event JSON (opens in Perfetto).

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<module>.<call>`, e.g. `core.flat_cache.lookup_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Spans of one batch share its sequence number.
    pub batch_id: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans while switched on; a switched-off tracer costs one
/// branch per call, so the same code path serves warm-up and the
/// untraced reference phase.
pub struct Tracer {
    origin: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, batch_id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch_id,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping is outside the span.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(id) = id.0 {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = now;
        }
    }
}

/// Summed duration and call count per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += 1;
    }
    out
}

/// Self time per span name: each span's duration minus the part its
/// direct children cover.
pub fn self_totals(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *out.entry(s.name).or_default() += ns;
    }
    out
}

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, µs).
pub fn write_chrome(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            w,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"batch_id\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            parent,
            s.batch_id
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer {
            enabled: true,
            ..Tracer::default()
        };
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        let total = totals(&t.spans);
        let own = self_totals(&t.spans);
        assert_eq!(own["inner"], total["inner"].0);
        assert_eq!(own["outer"], total["outer"].0 - total["inner"].0);
        assert!(total["inner"].0 >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
