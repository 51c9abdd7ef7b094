//! The `Gpu` facade: what client code (caches, models, harnesses) talks to.
//!
//! It owns a single host timeline (the launching CPU thread), the device
//! engine and a span timeline. Launches are asynchronous exactly as in
//! CUDA: the host pays launch overhead and moves on; only `sync_*` joins
//! the two timelines. This is what lets Fleche's
//! decoupled workflow overlap the CPU-DRAM query with the device-side copy
//! kernel without any special-case code.

use crate::engine::{DeviceEngine, KernelCompletion, KernelId, StreamId};
use crate::fault::{DeviceFault, FaultCounters, LaunchFault, LaunchFaultHook};
use crate::kernel::KernelDesc;
use crate::race::RaceChecker;
use crate::spec::{CopyApi, DeviceSpec};
use crate::time::Ns;
use crate::timeline::{Category, Timeline, Track};

/// Simulated GPU attached to a single host thread.
#[derive(Debug)]
pub struct Gpu {
    spec: DeviceSpec,
    engine: DeviceEngine,
    timeline: Timeline,
    host_now: Ns,
    default_stream: StreamId,
    fault_hook: Option<Box<dyn LaunchFaultHook>>,
    fault_counters: FaultCounters,
    race: Option<RaceChecker>,
    lost: bool,
}

impl Gpu {
    /// Brings up a device with one default stream.
    pub fn new(spec: DeviceSpec) -> Gpu {
        let mut engine = DeviceEngine::new(spec.clone());
        let default_stream = engine.create_stream();
        Gpu {
            spec,
            engine,
            timeline: Timeline::new(),
            host_now: Ns::ZERO,
            default_stream,
            fault_hook: None,
            fault_counters: FaultCounters::default(),
            race: None,
            lost: false,
        }
    }

    /// Turns on happens-before race checking. Sync edges (launch, stream
    /// order, stream/device sync) are recorded automatically from here on;
    /// instrumented callers declare slot accesses via
    /// [`Gpu::race_checker_mut`]. Costs nothing when never enabled.
    pub fn enable_race_checker(&mut self) {
        self.race = Some(RaceChecker::new());
    }

    /// The active race checker, for declaring accesses and event-sync
    /// edges. `None` unless [`Gpu::enable_race_checker`] was called.
    pub fn race_checker_mut(&mut self) -> Option<&mut RaceChecker> {
        self.race.as_mut()
    }

    /// Read access to the active race checker (reports, counts).
    pub fn race_checker(&self) -> Option<&RaceChecker> {
        self.race.as_ref()
    }

    /// Installs (or clears) the per-launch fault decision source. The
    /// default is a fault-free device.
    pub fn set_fault_hook(&mut self, hook: Option<Box<dyn LaunchFaultHook>>) {
        self.fault_hook = hook;
    }

    /// Running totals of injected faults this device has absorbed. Callers
    /// that need per-batch deltas (e.g. a circuit breaker) sample before and
    /// after and use [`FaultCounters::since`].
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// Applies a whole-device fault. `Lost` marks the device unreachable
    /// (its HBM contents are gone); `Restored` brings it back after a
    /// reset with empty HBM. Repeated applications of the current state
    /// are no-ops. The simulated clocks are untouched: a lost device is a
    /// routing decision for the owner, not a timeline event.
    pub fn inject_device_fault(&mut self, fault: DeviceFault) {
        match fault {
            DeviceFault::Lost => {
                if !self.lost {
                    self.fault_counters.device_losses += 1;
                }
                self.lost = true;
            }
            DeviceFault::Restored => {
                if self.lost {
                    self.fault_counters.device_restores += 1;
                }
                self.lost = false;
            }
        }
    }

    /// Whether the device is currently lost (see
    /// [`Gpu::inject_device_fault`]). Owners poll this before routing a
    /// batch — launching on a lost device is a caller bug in production
    /// and a modeling error here.
    pub fn device_lost(&self) -> bool {
        self.lost
    }

    /// The calibration constants this device runs with.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Current host time.
    pub fn now(&self) -> Ns {
        self.host_now
    }

    /// The always-present stream 0.
    pub fn default_stream(&self) -> StreamId {
        self.default_stream
    }

    /// Creates an additional stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.engine.create_stream()
    }

    /// Ensures at least `n` streams exist and returns them (including the
    /// default stream as element 0).
    pub fn streams(&mut self, n: usize) -> Vec<StreamId> {
        while self.engine.stream_count() < n {
            self.engine.create_stream();
        }
        (0..n).map(|i| StreamId(i as u32)).collect()
    }

    /// Read access to the recorded timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Clears the recorded timeline (does not touch clocks), for framing a
    /// fresh measurement window.
    pub fn clear_timeline(&mut self) {
        self.timeline.clear();
    }

    /// Launches `desc` on `stream`: the host pays launch overhead; the
    /// kernel becomes eligible when the launch call returns.
    ///
    /// With a fault hook installed, a launch may transiently fail (the
    /// driver-level retry succeeds but costs a second launch overhead) or
    /// its stream may stall (eligibility pushed back by the stall time).
    pub fn launch(&mut self, stream: StreamId, desc: KernelDesc) -> KernelId {
        let mut eligible_delay = Ns::ZERO;
        if let Some(hook) = self.fault_hook.as_mut() {
            match hook.on_launch(self.host_now, desc.label) {
                LaunchFault::None => {}
                LaunchFault::TransientFail => {
                    let t0 = self.host_now;
                    self.host_now += self.spec.kernel_launch_overhead;
                    self.timeline.record(
                        Track::Host,
                        Category::Launch,
                        "launch-retry",
                        t0,
                        self.host_now,
                    );
                    self.fault_counters.transient_launch_failures += 1;
                }
                LaunchFault::Stall(d) => {
                    debug_assert!(d.is_valid(), "stall durations must be finite");
                    eligible_delay = d;
                    self.fault_counters.stream_stalls += 1;
                    self.fault_counters.stall_time += d;
                }
            }
        }
        let t0 = self.host_now;
        self.host_now += self.spec.kernel_launch_overhead;
        let label = desc.label;
        self.timeline
            .record(Track::Host, Category::Launch, label, t0, self.host_now);
        let id = self
            .engine
            .enqueue(stream, desc, self.host_now + eligible_delay);
        if let Some(race) = self.race.as_mut() {
            race.on_launch(stream, id, label);
        }
        id
    }

    /// Launches a pre-captured graph of kernels: one fixed cost plus a small
    /// per-node cost, all nodes eligible when the call returns. Nodes are
    /// spread round-robin over `streams` to mimic the captured topology.
    pub fn launch_graph(
        &mut self,
        streams: &[StreamId],
        kernels: Vec<KernelDesc>,
    ) -> Vec<KernelId> {
        assert!(
            !streams.is_empty(),
            "graph launch needs at least one stream"
        );
        let t0 = self.host_now;
        let cost = self.spec.graph_launch_fixed
            + self.spec.graph_per_kernel_overhead * kernels.len() as f64;
        self.host_now += cost;
        self.timeline.record(
            Track::Host,
            Category::Launch,
            "cudaGraphLaunch",
            t0,
            self.host_now,
        );
        kernels
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let s = streams[i % streams.len()];
                let label = k.label;
                let id = self.engine.enqueue(s, k, self.host_now);
                if let Some(race) = self.race.as_mut() {
                    race.on_launch(s, id, label);
                }
                id
            })
            .collect()
    }

    /// Blocking host<->device copy: fixed API cost plus wire time, all on
    /// the host timeline.
    pub fn copy_blocking(&mut self, label: &'static str, bytes: u64, api: CopyApi) {
        let t0 = self.host_now;
        let cost = self.spec.copy_fixed(api) + self.spec.copy_bandwidth(api).transfer_time(bytes);
        self.host_now += cost;
        self.timeline
            .record(Track::Host, Category::Copy, label, t0, self.host_now);
    }

    /// Charges host CPU time (DRAM-layer queries, re-encoding, dedup).
    pub fn elapse_host(&mut self, label: &'static str, dt: Ns) {
        debug_assert!(dt.is_valid(), "host time increments must be finite");
        let t0 = self.host_now;
        self.host_now += dt;
        self.timeline
            .record(Track::Host, Category::HostCompute, label, t0, self.host_now);
    }

    /// Blocks the host until `stream` has drained, then charges sync
    /// overhead. Returns the new host time.
    pub fn sync_stream(&mut self, stream: StreamId) -> Ns {
        let done = self.engine.drain_stream(stream);
        self.absorb_completions();
        if let Some(race) = self.race.as_mut() {
            race.on_sync_stream(stream);
        }
        let woke = self.host_now.max(done);
        let end = woke + self.spec.stream_sync_overhead;
        self.timeline.record(
            Track::Host,
            Category::Sync,
            "streamSync",
            self.host_now,
            end,
        );
        self.host_now = end;
        self.host_now
    }

    /// Blocks the host until every stream has drained.
    pub fn sync_all(&mut self) -> Ns {
        let done = self.engine.drain_all();
        self.absorb_completions();
        if let Some(race) = self.race.as_mut() {
            race.on_sync_all();
        }
        let woke = self.host_now.max(done);
        let end = woke + self.spec.stream_sync_overhead;
        self.timeline.record(
            Track::Host,
            Category::Sync,
            "deviceSync",
            self.host_now,
            end,
        );
        self.host_now = end;
        self.host_now
    }

    fn absorb_completions(&mut self) {
        for KernelCompletion {
            label, start, end, ..
        } in self.engine.take_completions()
        {
            self.timeline
                .record(Track::Device, Category::KernelExec, label, start, end);
        }
    }

    /// Device-busy time (union of kernel execution) within `[from, to)`.
    /// `wall - busy` is the paper's kernel-maintenance time.
    pub fn device_busy(&self, from: Ns, to: Ns) -> Ns {
        self.timeline.device_busy(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelWork;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::t4())
    }

    #[test]
    fn launch_charges_host_overhead_and_sync_joins() {
        let mut g = gpu();
        let s = g.default_stream();
        let t0 = g.now();
        g.launch(
            s,
            KernelDesc::new("k", 4096, KernelWork::streaming(1 << 20)),
        );
        let after_launch = g.now();
        assert!(
            (after_launch - t0 - g.spec().kernel_launch_overhead)
                .as_ns()
                .abs()
                < 1e-9
        );
        let end = g.sync_stream(s);
        assert!(end > after_launch);
    }

    #[test]
    fn n_launches_cost_n_overheads_on_host() {
        let mut g = gpu();
        let streams = g.streams(8);
        let t0 = g.now();
        for (i, &s) in streams.iter().enumerate() {
            let _ = i;
            g.launch(s, KernelDesc::new("k", 256, KernelWork::streaming(1 << 12)));
        }
        let launch_time = g.now() - t0;
        let expect = g.spec().kernel_launch_overhead * 8.0;
        assert!((launch_time - expect).as_ns().abs() < 1e-6);
    }

    #[test]
    fn graph_launch_is_cheaper_than_individual_launches() {
        let spec = DeviceSpec::t4();
        let mk = || KernelDesc::new("k", 256, KernelWork::streaming(1 << 12));
        let mut g1 = Gpu::new(spec.clone());
        let streams = g1.streams(16);
        let t0 = g1.now();
        for &s in &streams {
            g1.launch(s, mk());
        }
        let individual = g1.now() - t0;

        let mut g2 = Gpu::new(spec);
        let streams2 = g2.streams(16);
        let t0 = g2.now();
        g2.launch_graph(&streams2, (0..16).map(|_| mk()).collect());
        let graphed = g2.now() - t0;
        assert!(graphed < individual * 0.5);
    }

    #[test]
    fn decoupled_overlap_host_work_with_device_kernel() {
        // Launch a long kernel, do host work while it runs, then sync: the
        // wall time must be close to max(kernel, host work), not the sum.
        let mut g = gpu();
        let s = g.default_stream();
        let kernel = KernelDesc::new("long", 1 << 20, KernelWork::streaming(150 << 20));
        let kernel_time = kernel.isolated_exec_time(g.spec());
        g.launch(s, kernel);
        let host_work = kernel_time * 0.8;
        g.elapse_host("dram-query", host_work);
        let end = g.sync_stream(s);
        let overhead = g.spec().kernel_launch_overhead + g.spec().stream_sync_overhead;
        assert!(
            end.as_ns() <= (kernel_time + overhead).as_ns() + 1.0,
            "host work should hide under the kernel: end={end} kernel={kernel_time}"
        );
    }

    #[test]
    fn blocking_copy_api_costs_differ() {
        let mut g = gpu();
        let t0 = g.now();
        g.copy_blocking("meta", 128, CopyApi::CudaMemcpy);
        let memcpy = g.now() - t0;
        let t1 = g.now();
        g.copy_blocking("meta", 128, CopyApi::GdrCopy);
        let gdr = g.now() - t1;
        assert!(memcpy > gdr * 10.0);
    }

    #[derive(Debug)]
    struct ScriptedFaults(Vec<LaunchFault>);

    impl LaunchFaultHook for ScriptedFaults {
        fn on_launch(&mut self, _now: Ns, _label: &str) -> LaunchFault {
            if self.0.is_empty() {
                LaunchFault::None
            } else {
                self.0.remove(0)
            }
        }
    }

    #[test]
    fn transient_launch_failure_costs_an_extra_overhead() {
        let mut clean = gpu();
        let mut faulty = gpu();
        faulty.set_fault_hook(Some(Box::new(ScriptedFaults(vec![
            LaunchFault::TransientFail,
        ]))));
        let desc = || KernelDesc::new("k", 4096, KernelWork::streaming(1 << 20));
        let s = clean.default_stream();
        clean.launch(s, desc());
        let s = faulty.default_stream();
        faulty.launch(s, desc());
        let extra = faulty.now() - clean.now();
        assert!(
            (extra - faulty.spec().kernel_launch_overhead).as_ns().abs() < 1e-9,
            "retry should cost exactly one extra launch overhead, got {extra}"
        );
        assert_eq!(faulty.fault_counters().transient_launch_failures, 1);
        assert_eq!(clean.fault_counters().transient_launch_failures, 0);
    }

    #[test]
    fn stream_stall_delays_completion() {
        let stall = Ns::from_us(500.0);
        let mut clean = gpu();
        let mut faulty = gpu();
        faulty.set_fault_hook(Some(Box::new(ScriptedFaults(vec![LaunchFault::Stall(
            stall,
        )]))));
        let desc = || KernelDesc::new("k", 4096, KernelWork::streaming(1 << 20));
        let s = clean.default_stream();
        clean.launch(s, desc());
        let clean_end = clean.sync_stream(s);
        let s = faulty.default_stream();
        faulty.launch(s, desc());
        let faulty_end = faulty.sync_stream(s);
        let delta = faulty_end - clean_end;
        assert!(
            (delta - stall).as_ns().abs() < 1e-6,
            "stall should push completion by {stall}, got {delta}"
        );
        assert_eq!(faulty.fault_counters().stream_stalls, 1);
        assert_eq!(faulty.fault_counters().stall_time, stall);
    }

    #[test]
    fn fault_counter_deltas() {
        let a = crate::fault::FaultCounters {
            transient_launch_failures: 3,
            stream_stalls: 2,
            stall_time: Ns::from_us(10.0),
            ..Default::default()
        };
        let b = crate::fault::FaultCounters {
            transient_launch_failures: 5,
            stream_stalls: 4,
            stall_time: Ns::from_us(30.0),
            // Device losses are failover events, not breaker events: they
            // must not show up in the per-batch delta.
            device_losses: 7,
            device_restores: 7,
        };
        assert_eq!(b.since(a), 4);
        assert_eq!(a.since(a), 0);
    }

    #[test]
    fn device_loss_is_a_state_with_transition_counters() {
        let mut g = gpu();
        assert!(!g.device_lost());
        g.inject_device_fault(DeviceFault::Lost);
        g.inject_device_fault(DeviceFault::Lost); // idempotent
        assert!(g.device_lost());
        assert_eq!(g.fault_counters().device_losses, 1);
        g.inject_device_fault(DeviceFault::Restored);
        assert!(!g.device_lost());
        assert_eq!(g.fault_counters().device_restores, 1);
        // A restore does not feed the breaker delta.
        assert_eq!(g.fault_counters().since(FaultCounters::default()), 0);
    }

    #[test]
    fn maintenance_vs_execution_attribution() {
        // Many tiny kernels: wall time dominated by launches; device busy
        // time is a small fraction. This is the paper's Figure 4 phenomenon.
        let mut g = gpu();
        let streams = g.streams(32);
        let t0 = g.now();
        for &s in &streams {
            g.launch(
                s,
                KernelDesc::new("tiny", 128, KernelWork::streaming(4 << 10)),
            );
        }
        g.sync_all();
        let wall = g.now() - t0;
        let busy = g.device_busy(t0, g.now());
        assert!(busy < wall * 0.8, "busy={busy} wall={wall}");
    }
}
