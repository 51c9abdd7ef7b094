//! Timeline recording and attribution.
//!
//! Every host and device interval the simulator charges is recorded as a
//! [`Span`]. The log feeds the Chrome-trace export, [`Timeline::device_busy`]
//! (the paper's maintenance-vs-execution split) and the golden digests; the
//! per-phase breakdowns are accumulated by the workflows themselves.

use crate::time::Ns;

/// Which timeline a span belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Track {
    /// The (single) launching CPU thread.
    Host,
    /// The device's SMs / copy engines.
    Device,
}

/// Semantic class of a span, used by breakdown figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// CPU-side kernel launch work (driver + runtime).
    Launch,
    /// CPU-side stream/device synchronization.
    Sync,
    /// Blocking host<->device copy (fixed cost + wire time).
    Copy,
    /// Kernel execution on the device.
    KernelExec,
    /// Host CPU compute charged via `elapse_host` (e.g. DRAM-layer query,
    /// key re-encoding, dedup bookkeeping).
    HostCompute,
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Timeline this span occupies.
    pub track: Track,
    /// Semantic class.
    pub category: Category,
    /// Free-form label (kernel name, workflow stage).
    pub label: &'static str,
    /// Start time.
    pub start: Ns,
    /// End time (`>= start`).
    pub end: Ns,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> Ns {
        self.end.saturating_sub(self.start)
    }
}

/// Append-only span log.
#[derive(Default, Debug)]
pub struct Timeline {
    spans: Vec<Span>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub(crate) fn new() -> Timeline {
        Timeline::default()
    }

    /// Records a span. Zero-length spans are kept (they still mark events).
    pub(crate) fn record(
        &mut self,
        track: Track,
        category: Category,
        label: &'static str,
        start: Ns,
        end: Ns,
    ) {
        debug_assert!(
            start.is_valid() && end.is_valid(),
            "span times must be finite"
        );
        debug_assert!(end.0 >= start.0 - 1e-9, "span ends before it starts");
        self.spans.push(Span {
            track,
            category,
            label,
            start,
            end: end.max(start),
        });
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Discards all spans (measurement-window reset).
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
    }

    /// Length of the *union* of device kernel-execution spans within
    /// `[from, to)`: the time the device was doing useful work. The wall
    /// time minus this is the paper's "kernel maintenance" time.
    pub(crate) fn device_busy(&self, from: Ns, to: Ns) -> Ns {
        let mut intervals: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.track == Track::Device && s.category == Category::KernelExec)
            .filter_map(|s| {
                let a = s.start.max(from).0;
                let b = s.end.min(to).0;
                (b > a).then_some((a, b))
            })
            .collect();
        intervals.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite span times"));
        let mut busy = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in intervals {
            match cur {
                Some((cs, ce)) if a <= ce => cur = Some((cs, ce.max(b))),
                Some((cs, ce)) => {
                    busy += ce - cs;
                    cur = Some((a, b));
                    let _ = cs;
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((cs, ce)) = cur {
            busy += ce - cs;
        }
        Ns(busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> Timeline {
        Timeline::new()
    }

    #[test]
    fn device_busy_takes_union_not_sum() {
        let mut t = tl();
        t.record(Track::Device, Category::KernelExec, "a", Ns(0.0), Ns(100.0));
        t.record(
            Track::Device,
            Category::KernelExec,
            "b",
            Ns(50.0),
            Ns(150.0),
        );
        t.record(
            Track::Device,
            Category::KernelExec,
            "c",
            Ns(200.0),
            Ns(210.0),
        );
        // Host spans must not count.
        t.record(Track::Host, Category::HostCompute, "h", Ns(0.0), Ns(1000.0));
        assert_eq!(t.device_busy(Ns(0.0), Ns(1000.0)).0, 160.0);
        assert_eq!(t.device_busy(Ns(0.0), Ns(75.0)).0, 75.0);
        assert_eq!(t.device_busy(Ns(300.0), Ns(400.0)).0, 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut t = tl();
        t.record(Track::Host, Category::Copy, "c", Ns(0.0), Ns(1.0));
        assert_eq!(t.spans().len(), 1);
        t.clear();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_duration_is_end_minus_start() {
        let s = Span {
            track: Track::Host,
            category: Category::Copy,
            label: "x",
            start: Ns(10.0),
            end: Ns(20.0),
        };
        assert_eq!(s.duration().0, 10.0);
    }
}
