//! Chrome-trace export.
//!
//! Serializes a [`Timeline`] into the Chrome Trace Event
//! JSON format (`chrome://tracing`, Perfetto), so a batch's host/device
//! interleaving — launches, syncs, copies, kernel executions, the
//! decoupled-copy/DRAM-query overlap — can be inspected visually. The
//! writer is hand-rolled (the format needs only strings and numbers), so
//! no serialization dependency is pulled in.

use crate::time::Ns;
use crate::timeline::{Category, Timeline, Track};

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn category_name(c: Category) -> &'static str {
    match c {
        Category::Launch => "launch",
        Category::Sync => "sync",
        Category::Copy => "copy",
        Category::KernelExec => "kernel",
        Category::HostCompute => "host",
    }
}

/// Renders `timeline` as a Chrome Trace Event JSON document.
///
/// Host spans go to tid 0, device kernel executions to tid 1. Durations
/// are emitted in microseconds (the format's native unit). Spans outside
/// `[from, to)` are clipped; pass `Ns::ZERO` and `Ns(f64::MAX)` for
/// everything.
pub fn to_chrome_trace(timeline: &Timeline, from: Ns, to: Ns) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for span in timeline.spans() {
        let s = span.start.max(from);
        let e = span.end.min(to);
        if e.as_ns() <= s.as_ns() {
            continue;
        }
        let tid = match span.track {
            Track::Host => 0,
            Track::Device => 1,
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{}}}",
            json_escape(span.label),
            category_name(span.category),
            s.as_us(),
            (e - s).as_us(),
            tid
        ));
    }
    out.push_str(
        "\n],\"displayTimeUnit\":\"ns\",\
         \"otherData\":{\"source\":\"fleche-gpu simulated timeline\"}}",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Category, Timeline, Track};

    fn sample_timeline() -> Timeline {
        let mut t = Timeline::new();
        t.record(
            Track::Host,
            Category::Launch,
            "launch-k0",
            Ns(0.0),
            Ns(4_000.0),
        );
        t.record(
            Track::Device,
            Category::KernelExec,
            "fleche-index",
            Ns(4_000.0),
            Ns(30_000.0),
        );
        t.record(
            Track::Host,
            Category::HostCompute,
            "dram-query",
            Ns(4_000.0),
            Ns(25_000.0),
        );
        t
    }

    #[test]
    fn emits_valid_shape() {
        let json = to_chrome_trace(&sample_timeline(), Ns::ZERO, Ns(f64::MAX));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"name\":\"fleche-index\""));
        assert!(json.contains("\"tid\":1"), "device span on its own lane");
        assert!(json.contains("\"tid\":0"), "host spans on lane 0");
        // Durations in microseconds.
        assert!(json.contains("\"dur\":26.000"));
    }

    #[test]
    fn clips_to_window() {
        let json = to_chrome_trace(&sample_timeline(), Ns(10_000.0), Ns(20_000.0));
        // The launch span [0, 4us) is fully outside the window.
        assert!(!json.contains("launch-k0"));
        // The kernel span is clipped to 10 us of duration.
        assert!(json.contains("\"dur\":10.000"));
    }

    #[test]
    fn escapes_are_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn empty_timeline_is_valid_json_shell() {
        let t = Timeline::new();
        let json = to_chrome_trace(&t, Ns::ZERO, Ns(f64::MAX));
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }

    #[test]
    fn real_batch_exports() {
        use crate::{DeviceSpec, Gpu, KernelDesc, KernelWork};
        let mut gpu = Gpu::new(DeviceSpec::t4());
        let s = gpu.default_stream();
        gpu.launch(
            s,
            KernelDesc::new("k", 4096, KernelWork::streaming(1 << 20)),
        );
        gpu.elapse_host("host-work", Ns::from_us(10.0));
        gpu.sync_stream(s);
        let json = to_chrome_trace(gpu.timeline(), Ns::ZERO, Ns(f64::MAX));
        assert!(json.contains("\"name\":\"k\""));
        assert!(json.contains("host-work"));
        assert!(json.contains("streamSync"));
    }
}
