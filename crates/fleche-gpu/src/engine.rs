//! The discrete-event device engine.
//!
//! Kernels enqueued on streams serialize per stream and overlap across
//! streams. While several kernels execute concurrently they share global
//! memory bandwidth by *water-filling*: total HBM bandwidth is divided
//! fairly, but no kernel receives more than its own parallelism-derived cap
//! ([`DeviceSpec::bandwidth_cap`]). This is the mechanism that makes the
//! paper's phenomena emerge: a swarm of tiny per-table kernels neither
//! saturates bandwidth nor hides launch overhead, while one fused kernel
//! does both.

use std::collections::VecDeque;

use crate::kernel::KernelDesc;
use crate::spec::DeviceSpec;
use crate::time::{BytesPerNs, Ns};

/// Identifies a stream created on a [`crate::Gpu`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamId(pub(crate) u32);

/// Identifies one enqueued kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KernelId(pub(crate) u64);

/// Execution record of one finished kernel, consumed by the timeline.
#[derive(Clone, Debug)]
pub struct KernelCompletion {
    /// The kernel's id as returned by [`DeviceEngine::enqueue`].
    pub id: KernelId,
    /// Stream it ran on.
    pub stream: StreamId,
    /// Label from the [`KernelDesc`].
    pub label: &'static str,
    /// Time execution began on the device.
    pub start: Ns,
    /// Time execution finished on the device.
    pub end: Ns,
}

#[derive(Debug)]
struct Pending {
    id: KernelId,
    desc: KernelDesc,
    /// Host time at which the launch call returned; the kernel cannot start
    /// earlier.
    eligible: Ns,
    /// When set, the job's bandwidth is capped by this link instead of the
    /// kernel's SM-occupancy cap (async DMA copies).
    cap_override: Option<BytesPerNs>,
}

#[derive(Debug)]
struct Job {
    id: KernelId,
    stream: StreamId,
    label: &'static str,
    start: Ns,
    /// End of the serial (latency/compute) portion; the job cannot complete
    /// before this.
    floor_end: Ns,
    /// Global-memory bytes still to move.
    remaining_bytes: f64,
    /// This job's individual bandwidth cap.
    cap: BytesPerNs,
    /// Rate allocated in the current water-filling round.
    rate: f64,
}

/// Sub-byte transfer remainders are floating-point artifacts, not work;
/// treating them as done keeps every pending completion event strictly in
/// the future (at 0.5 B even at TB/s rates the event is >1e-3 ns away),
/// which the event loop's progress guarantee relies on.
const BYTE_EPSILON: f64 = 0.5;

impl Job {
    fn is_done(&self, now: Ns) -> bool {
        self.remaining_bytes <= BYTE_EPSILON && now.0 + 1e-9 >= self.floor_end.0
    }
}

/// Discrete-event simulator of the device side: per-stream FIFO queues plus
/// a set of running jobs sharing bandwidth.
#[derive(Debug)]
pub struct DeviceEngine {
    spec: DeviceSpec,
    now: Ns,
    queues: Vec<VecDeque<Pending>>,
    /// Whether a job from this stream is currently running (streams
    /// serialize their own kernels).
    stream_busy: Vec<bool>,
    running: Vec<Job>,
    completions: Vec<KernelCompletion>,
    next_id: u64,
}

impl DeviceEngine {
    /// Creates an idle engine at time zero.
    pub fn new(spec: DeviceSpec) -> DeviceEngine {
        DeviceEngine {
            spec,
            now: Ns::ZERO,
            queues: Vec::new(),
            stream_busy: Vec::new(),
            running: Vec::new(),
            completions: Vec::new(),
            next_id: 0,
        }
    }

    /// Registers a new stream and returns its id.
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.queues.len() as u32);
        self.queues.push(VecDeque::new());
        self.stream_busy.push(false);
        id
    }

    /// Number of streams created so far.
    pub fn stream_count(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a kernel on `stream`, eligible to start at `eligible` (the
    /// host time its launch call completed).
    pub fn enqueue(&mut self, stream: StreamId, desc: KernelDesc, eligible: Ns) -> KernelId {
        self.enqueue_inner(stream, desc, eligible, None)
    }

    /// Enqueues an async DMA transfer as a bandwidth-capped job.
    pub fn enqueue_transfer(
        &mut self,
        stream: StreamId,
        desc: KernelDesc,
        eligible: Ns,
        link: BytesPerNs,
    ) -> KernelId {
        self.enqueue_inner(stream, desc, eligible, Some(link))
    }

    fn enqueue_inner(
        &mut self,
        stream: StreamId,
        desc: KernelDesc,
        eligible: Ns,
        cap_override: Option<BytesPerNs>,
    ) -> KernelId {
        debug_assert!(eligible.is_valid(), "eligible time must be finite");
        let id = KernelId(self.next_id);
        self.next_id += 1;
        self.queues[stream.0 as usize].push_back(Pending {
            id,
            desc,
            eligible,
            cap_override,
        });
        id
    }

    /// True when `stream` has neither queued nor running work.
    pub fn stream_idle(&self, stream: StreamId) -> bool {
        self.queues[stream.0 as usize].is_empty() && !self.stream_busy[stream.0 as usize]
    }

    /// True when no stream has pending or running work.
    pub fn all_idle(&self) -> bool {
        self.running.is_empty() && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Drains completion records accumulated since the last call.
    pub fn take_completions(&mut self) -> Vec<KernelCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Runs the event loop until `stream` is fully drained, returning the
    /// device time at which its last kernel completed (or the current time
    /// if it was already idle).
    pub fn drain_stream(&mut self, stream: StreamId) -> Ns {
        let mut last = self.now;
        self.run(|engine| engine.stream_idle(stream));
        for c in &self.completions {
            if c.stream == stream {
                last = last.max(c.end);
            }
        }
        last
    }

    /// Runs the event loop until every stream is drained, returning the
    /// final device time.
    pub fn drain_all(&mut self) -> Ns {
        self.run(DeviceEngine::all_idle);
        self.now
    }

    /// Core event loop: repeatedly start eligible kernels, allocate rates,
    /// and advance to the next event until `done` returns true.
    fn run(&mut self, done: impl Fn(&DeviceEngine) -> bool) {
        loop {
            self.start_ready_kernels();
            self.retire_finished();
            if done(self) {
                return;
            }
            let Some(next) = self.next_event_time() else {
                // Nothing running and nothing can start: only future
                // eligibility times remain; jump to the earliest.
                match self.earliest_eligibility() {
                    Some(t) => {
                        debug_assert!(t.0 >= self.now.0 - 1e-9);
                        self.now = self.now.max(t);
                        continue;
                    }
                    None => return, // Truly nothing left to do.
                }
            };
            self.advance_to(next);
        }
    }

    /// Starts every queue-head kernel whose stream is idle and whose
    /// eligibility has arrived.
    fn start_ready_kernels(&mut self) {
        for s in 0..self.queues.len() {
            if self.stream_busy[s] {
                continue;
            }
            let ready = self.queues[s]
                .front()
                .is_some_and(|p| p.eligible.0 <= self.now.0 + 1e-9);
            if !ready {
                continue;
            }
            let p = self.queues[s].pop_front().expect("checked non-empty");
            let start = self.now;
            let floor_end = start + p.desc.serial_floor(&self.spec);
            let cap = p
                .cap_override
                .unwrap_or_else(|| self.spec.bandwidth_cap(p.desc.threads));
            self.stream_busy[s] = true;
            self.running.push(Job {
                id: p.id,
                stream: StreamId(s as u32),
                label: p.desc.label,
                start,
                floor_end,
                remaining_bytes: p.desc.work.global_bytes as f64,
                cap,
                rate: 0.0,
            });
        }
        self.allocate_rates();
    }

    /// Water-fills total HBM bandwidth across running jobs that still have
    /// bytes to move, honoring per-job caps.
    fn allocate_rates(&mut self) {
        let mut demanding: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].remaining_bytes > BYTE_EPSILON)
            .collect();
        for &i in &demanding {
            self.running[i].rate = 0.0;
        }
        let mut budget = self.spec.hbm_bandwidth.0;
        // Water-filling: repeatedly grant the fair share, capping jobs whose
        // limit is below it and redistributing the slack.
        demanding.sort_by(|&a, &b| {
            self.running[a]
                .cap
                .0
                .partial_cmp(&self.running[b].cap.0)
                .expect("caps are finite")
        });
        let mut remaining = demanding.len();
        for &i in &demanding {
            if remaining == 0 || budget <= 0.0 {
                break;
            }
            let fair = budget / remaining as f64;
            let grant = fair.min(self.running[i].cap.0);
            self.running[i].rate = grant;
            budget -= grant;
            remaining -= 1;
        }
    }

    /// Earliest of: any running job finishing, or any queue-head becoming
    /// eligible on an idle stream.
    fn next_event_time(&self) -> Option<Ns> {
        let mut next: Option<Ns> = None;
        let mut consider = |t: Ns| {
            if t.0 > self.now.0 + 1e-9 {
                next = Some(match next {
                    Some(cur) => cur.min(t),
                    None => t,
                });
            }
        };
        for job in &self.running {
            if job.remaining_bytes > BYTE_EPSILON {
                if job.rate > 0.0 {
                    consider(Ns(self.now.0 + job.remaining_bytes / job.rate));
                }
                // rate == 0 means another event must free bandwidth first.
            } else {
                consider(job.floor_end);
            }
            consider(job.floor_end);
        }
        for (s, q) in self.queues.iter().enumerate() {
            if !self.stream_busy[s] {
                if let Some(p) = q.front() {
                    consider(p.eligible);
                }
            }
        }
        next
    }

    fn earliest_eligibility(&self) -> Option<Ns> {
        self.queues
            .iter()
            .filter_map(|q| q.front().map(|p| p.eligible))
            .reduce(Ns::min)
    }

    /// Advances the clock to `t`, progressing byte transfers at the current
    /// rates.
    fn advance_to(&mut self, t: Ns) {
        let dt = t.0 - self.now.0;
        debug_assert!(dt >= -1e-9, "time went backwards: {} -> {}", self.now, t);
        for job in &mut self.running {
            if job.remaining_bytes > 0.0 {
                job.remaining_bytes = (job.remaining_bytes - job.rate * dt).max(0.0);
            }
        }
        self.now = t;
        self.retire_finished();
    }

    /// Moves finished jobs to the completion log and frees their streams.
    fn retire_finished(&mut self) {
        let now = self.now;
        let mut i = 0;
        let mut retired = false;
        while i < self.running.len() {
            if self.running[i].is_done(now) {
                let job = self.running.swap_remove(i);
                self.stream_busy[job.stream.0 as usize] = false;
                self.completions.push(KernelCompletion {
                    id: job.id,
                    stream: job.stream,
                    label: job.label,
                    start: job.start,
                    end: now,
                });
                retired = true;
            } else {
                i += 1;
            }
        }
        if retired {
            self.allocate_rates();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelWork;

    fn engine() -> DeviceEngine {
        DeviceEngine::new(DeviceSpec::t4())
    }

    fn k(label: &'static str, threads: u32, bytes: u64) -> KernelDesc {
        KernelDesc::new(label, threads, KernelWork::streaming(bytes))
    }

    #[test]
    fn single_kernel_runs_for_isolated_time() {
        let spec = DeviceSpec::t4();
        let mut e = engine();
        let s = e.create_stream();
        let desc = k("solo", 1 << 20, 64 << 20);
        let expect = desc.isolated_exec_time(&spec);
        e.enqueue(s, desc, Ns::ZERO);
        let end = e.drain_all();
        assert!((end.as_ns() - expect.as_ns()).abs() < 1.0);
        let c = e.take_completions();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].label, "solo");
        assert_eq!(c[0].start, Ns::ZERO);
    }

    #[test]
    fn same_stream_serializes() {
        let mut e = engine();
        let s = e.create_stream();
        e.enqueue(s, k("a", 1 << 20, 30 << 20), Ns::ZERO);
        e.enqueue(s, k("b", 1 << 20, 30 << 20), Ns::ZERO);
        e.drain_all();
        let c = e.take_completions();
        assert_eq!(c.len(), 2);
        let (a, b) = (&c[0], &c[1]);
        assert!(b.start.0 + 1e-6 >= a.end.0, "b must start after a ends");
    }

    #[test]
    fn different_streams_share_bandwidth() {
        let spec = DeviceSpec::t4();
        let mut e = engine();
        let s0 = e.create_stream();
        let s1 = e.create_stream();
        let bytes = 64 << 20;
        let solo = k("x", 1 << 20, bytes).isolated_exec_time(&spec);
        e.enqueue(s0, k("x", 1 << 20, bytes), Ns::ZERO);
        e.enqueue(s1, k("y", 1 << 20, bytes), Ns::ZERO);
        let end = e.drain_all();
        // Two saturating kernels take ~2x a solo one (not 1x, not 2x+).
        let ratio = end / solo;
        assert!(
            (1.9..=2.1).contains(&ratio),
            "expected ~2x slowdown, got {ratio}"
        );
    }

    #[test]
    fn concurrent_small_kernels_never_beat_the_fused_equivalent() {
        // Bandwidth conservation: N small kernels running concurrently can
        // at best match (never beat) one fused kernel carrying the same
        // total traffic with the same total parallelism. The fused kernel's
        // real advantage — N launch/sync overheads collapsing to one — lives
        // on the host timeline and is asserted in `device::tests`.
        let spec = DeviceSpec::t4();
        let n = 32u64;
        let per_bytes = 1 << 20;
        let mut e = engine();
        let streams: Vec<_> = (0..n).map(|_| e.create_stream()).collect();
        for &s in &streams {
            e.enqueue(s, k("tiny", 256, per_bytes), Ns::ZERO);
        }
        let multi = e.drain_all();

        let fused = k("fused", 256 * n as u32, per_bytes * n).isolated_exec_time(&spec);
        assert!(
            multi.as_ns() >= fused.as_ns() * 0.99,
            "{n} tiny kernels ({multi}) must not beat the fused kernel ({fused})"
        );
    }

    #[test]
    fn eligibility_delays_start() {
        let mut e = engine();
        let s = e.create_stream();
        e.enqueue(s, k("late", 4096, 1 << 10), Ns::from_us(50.0));
        e.drain_all();
        let c = e.take_completions();
        assert!((c[0].start.as_us() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn drain_stream_ignores_other_streams() {
        let mut e = engine();
        let s0 = e.create_stream();
        let s1 = e.create_stream();
        e.enqueue(s0, k("fast", 1 << 20, 1 << 10), Ns::ZERO);
        e.enqueue(s1, k("slow", 1 << 20, 256 << 20), Ns::ZERO);
        let t0 = e.drain_stream(s0);
        assert!(e.stream_idle(s0));
        assert!(!e.stream_idle(s1));
        let t_all = e.drain_all();
        assert!(t0 < t_all);
    }

    #[test]
    fn idle_engine_drains_instantly() {
        let mut e = engine();
        let s = e.create_stream();
        assert_eq!(e.drain_stream(s), Ns::ZERO);
        assert_eq!(e.drain_all(), Ns::ZERO);
        assert!(e.all_idle());
    }

    #[test]
    fn transfer_jobs_use_link_cap() {
        let spec = DeviceSpec::t4();
        let mut e = engine();
        let s = e.create_stream();
        let bytes = 12 << 20;
        e.enqueue_transfer(s, k("h2d", 1 << 20, bytes), Ns::ZERO, spec.pcie_bandwidth);
        let end = e.drain_all();
        let expect = spec.pcie_bandwidth.transfer_time(bytes);
        assert!((end.as_ns() - expect.as_ns()).abs() / expect.as_ns() < 0.01);
    }

    #[test]
    fn completion_log_drains() {
        let mut e = engine();
        let s = e.create_stream();
        e.enqueue(s, k("a", 128, 0), Ns::ZERO);
        e.drain_all();
        assert_eq!(e.take_completions().len(), 1);
        assert!(e.take_completions().is_empty());
    }
}
