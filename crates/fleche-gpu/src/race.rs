//! Dynamic happens-before race detection for the simulated device.
//!
//! The discrete-event engine executes kernels at simulated-time
//! granularity, so a true synchronization bug — say, epoch reclamation
//! freeing a cache slot while a decoupled copy kernel still reads it —
//! does not crash the simulator; it silently yields a plausible wrong
//! number. This module checks the *ordering discipline* instead of the
//! outcome: every logical thread (the host, plus one per stream, since
//! kernels on one CUDA stream serialize) carries a vector clock, sync
//! operations create happens-before edges, and instrumented code declares
//! which cache slots each kernel or host phase reads and writes. Two
//! accesses to the same resource with at least one write and unordered
//! clocks are reported as a race.
//!
//! Happens-before edges, mirroring the CUDA model the engine simulates:
//!
//! * **launch**: host work before a launch happens-before the kernel
//!   (the kernel's clock joins the host clock at launch time);
//! * **stream order**: kernels on one stream serialize (each launch joins
//!   the stream's frontier and advances it);
//! * **event sync**: [`RaceChecker::record_event`] snapshots a stream's
//!   frontier; [`RaceChecker::wait_event`] joins it into another stream —
//!   `cudaEventRecord`/`cudaStreamWaitEvent`;
//! * **stream/device sync**: the host joins the drained stream(s);
//! * **epoch advance**: a host-side tick marking reclamation boundaries,
//!   so reports can say which epoch a racy reclamation belonged to.
//!
//! Per-resource state follows FastTrack's shape (last write + reads since
//! that write) with full vector clocks — thread counts here are tiny.
//! Reports are sorted by event id ([`RaceChecker::report`]), so the same
//! scenario always prints the same races in the same order.

use crate::engine::{KernelId, StreamId};
use std::collections::BTreeMap;

/// A vector clock over logical threads (host = component 0, stream `s` =
/// component `s + 1`). Grows on demand; missing components are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock.
    pub(crate) fn new() -> VectorClock {
        VectorClock::default()
    }

    fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    /// Increments `thread`'s own component.
    pub(crate) fn tick(&mut self, thread: usize) {
        if self.0.len() <= thread {
            self.0.resize(thread + 1, 0);
        }
        self.0[thread] += 1;
    }

    /// Componentwise max with `other`.
    pub(crate) fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if v > self.0[i] {
                self.0[i] = v;
            }
        }
    }

    /// `self` happens-before-or-equals `other` (componentwise `<=`).
    pub(crate) fn leq(&self, other: &VectorClock) -> bool {
        (0..self.0.len().max(other.0.len())).all(|i| self.get(i) <= other.get(i))
    }
}

/// What performed an access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Actor {
    /// The launching CPU thread (label names the phase, e.g. "reclaim").
    Host,
    /// A kernel, identified by launch id and stream.
    Kernel {
        /// The id returned by the launch.
        kernel: KernelId,
        /// The stream it ran on.
        stream: StreamId,
    },
}

impl std::fmt::Display for Actor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::Host => write!(f, "host"),
            Actor::Kernel { kernel, stream } => {
                write!(f, "kernel #{} (stream {})", kernel.0, stream.0)
            }
        }
    }
}

/// One declared access, as it appears in a race report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Monotonic id: the order accesses were declared in. Reports sort by
    /// this, which keeps diagnostics deterministic run to run.
    pub event: u64,
    /// Who accessed.
    pub actor: Actor,
    /// Kernel label or host phase name.
    pub label: &'static str,
    /// True for writes.
    pub write: bool,
    /// Epoch counter at declaration time (see
    /// [`RaceChecker::note_epoch_advance`]).
    pub epoch: u64,
    clock: VectorClock,
}

/// A pair of conflicting accesses not ordered by any happens-before path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Race {
    /// The shared resource (see [`slot_resource`]).
    pub resource: u64,
    /// The earlier-declared access.
    pub first: Access,
    /// The later-declared access.
    pub second: Access,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = |a: &Access| if a.write { "write" } else { "read" };
        write!(
            f,
            "race on resource {:#x}: {} `{}` ({}, event {}) vs {} `{}` ({}, event {}) — no happens-before edge",
            self.resource,
            kind(&self.first),
            self.first.label,
            self.first.actor,
            self.first.event,
            kind(&self.second),
            self.second.label,
            self.second.actor,
            self.second.event,
        )
    }
}

/// Encodes a cache slot as a checker resource id.
pub fn slot_resource(class: u16, slot: u32) -> u64 {
    ((class as u64) << 32) | slot as u64
}

/// Encodes a per-table version-ledger shard as a checker resource id.
/// Bit 63 namespaces ledger resources away from every possible
/// [`slot_resource`] (whose class field tops out at bit 47), so the
/// update pipeline's ledger reads can never alias a pool slot.
pub fn ledger_resource(table: u16) -> u64 {
    (1u64 << 63) | table as u64
}

/// Encodes one ring slot of a serving-pipeline hand-off channel as a
/// checker resource id. Bit 62 namespaces pipeline slots away from both
/// [`slot_resource`] (class tops out at bit 47) and [`ledger_resource`]
/// (bit 63), so a prepared-batch publish can never alias a pool slot or a
/// ledger shard.
pub(crate) fn pipeline_resource(worker: u16, slot: u32) -> u64 {
    (1u64 << 62) | ((worker as u64) << 32) | slot as u64
}

#[derive(Clone, Debug, Default)]
struct ResourceState {
    last_write: Option<Access>,
    /// Reads since the last write, one (most recent) per actor thread.
    reads: BTreeMap<usize, Access>,
}

/// The happens-before checker. Create via [`RaceChecker::new`], feed it
/// sync edges (the [`crate::Gpu`] facade does this automatically when the
/// checker is enabled) and access declarations, then [`RaceChecker::report`].
#[derive(Clone, Debug, Default)]
pub struct RaceChecker {
    host: VectorClock,
    /// Per-stream frontier: the clock the next kernel on that stream
    /// inherits; also what a sync on that stream releases to the host.
    streams: Vec<VectorClock>,
    kernels: BTreeMap<u64, (VectorClock, StreamId, &'static str)>,
    events: Vec<VectorClock>,
    resources: BTreeMap<u64, ResourceState>,
    races: Vec<Race>,
    next_event: u64,
    epoch: u64,
}

impl RaceChecker {
    /// A fresh checker: host at the zero clock, no streams yet.
    pub fn new() -> RaceChecker {
        RaceChecker::default()
    }

    fn stream_frontier(&mut self, stream: StreamId) -> &mut VectorClock {
        let i = stream.0 as usize;
        if self.streams.len() <= i {
            self.streams.resize(i + 1, VectorClock::new());
        }
        &mut self.streams[i]
    }

    /// Declares a kernel launch: the kernel inherits
    /// host-before-launch and everything earlier on its stream.
    pub(crate) fn on_launch(&mut self, stream: StreamId, kernel: KernelId, label: &'static str) {
        self.host.tick(0);
        let host = self.host.clone();
        let thread = stream.0 as usize + 1;
        let frontier = self.stream_frontier(stream);
        frontier.join(&host);
        frontier.tick(thread);
        let clock = frontier.clone();
        self.kernels.insert(kernel.0, (clock, stream, label));
    }

    /// Declares that the host drained `stream` (`cudaStreamSynchronize`).
    pub(crate) fn on_sync_stream(&mut self, stream: StreamId) {
        let frontier = self.stream_frontier(stream).clone();
        self.host.join(&frontier);
    }

    /// Declares that the host drained every stream (`cudaDeviceSynchronize`).
    pub(crate) fn on_sync_all(&mut self) {
        let frontiers: Vec<VectorClock> = self.streams.clone();
        for f in &frontiers {
            self.host.join(f);
        }
    }

    /// Snapshots `stream`'s frontier (`cudaEventRecord`); the returned id
    /// can be waited on from another stream.
    pub(crate) fn record_event(&mut self, stream: StreamId) -> u32 {
        let snap = self.stream_frontier(stream).clone();
        self.events.push(snap);
        (self.events.len() - 1) as u32
    }

    /// Makes future work on `stream` wait for a recorded event
    /// (`cudaStreamWaitEvent`).
    pub(crate) fn wait_event(&mut self, stream: StreamId, event: u32) {
        let Some(snap) = self.events.get(event as usize).cloned() else {
            debug_assert!(false, "wait on unrecorded event {event}");
            return;
        };
        self.stream_frontier(stream).join(&snap);
    }

    /// Marks an epoch advance: a host-side tick, so host work after the
    /// advance is ordered after host work before it, and subsequent
    /// accesses are tagged with the new epoch number in reports.
    pub fn note_epoch_advance(&mut self) {
        self.host.tick(0);
        self.epoch += 1;
    }

    /// Declares that kernel `kernel` reads `resource`.
    pub fn kernel_read(&mut self, kernel: KernelId, resource: u64) {
        self.kernel_access(kernel, resource, false);
    }

    /// Declares that kernel `kernel` writes `resource`.
    pub fn kernel_write(&mut self, kernel: KernelId, resource: u64) {
        self.kernel_access(kernel, resource, true);
    }

    fn kernel_access(&mut self, kernel: KernelId, resource: u64, write: bool) {
        let Some((clock, stream, label)) = self.kernels.get(&kernel.0).cloned() else {
            debug_assert!(false, "access declared for unknown kernel #{}", kernel.0);
            return;
        };
        let thread = stream.0 as usize + 1;
        let access = Access {
            event: self.next_event,
            actor: Actor::Kernel { kernel, stream },
            label,
            write,
            epoch: self.epoch,
            clock,
        };
        self.next_event += 1;
        self.check(resource, thread, access);
    }

    /// Declares a host-side read of `resource` during phase `label`.
    pub fn host_read(&mut self, label: &'static str, resource: u64) {
        self.host_access(label, resource, false);
    }

    /// Declares a host-side write of `resource` during phase `label`
    /// (e.g. epoch reclamation freeing a slot).
    pub fn host_write(&mut self, label: &'static str, resource: u64) {
        self.host_access(label, resource, true);
    }

    fn host_access(&mut self, label: &'static str, resource: u64, write: bool) {
        let access = Access {
            event: self.next_event,
            actor: Actor::Host,
            label,
            write,
            epoch: self.epoch,
            clock: self.host.clone(),
        };
        self.next_event += 1;
        self.check(resource, 0, access);
    }

    /// FastTrack-style per-resource check: a new access races with the
    /// last write unless ordered after it, and a new write additionally
    /// races with every read since that write.
    fn check(&mut self, resource: u64, thread: usize, access: Access) {
        let state = self.resources.entry(resource).or_default();
        if let Some(w) = &state.last_write {
            if !w.clock.leq(&access.clock) {
                self.races.push(Race {
                    resource,
                    first: w.clone(),
                    second: access.clone(),
                });
            }
        }
        if access.write {
            for r in state.reads.values() {
                if !r.clock.leq(&access.clock) {
                    self.races.push(Race {
                        resource,
                        first: r.clone(),
                        second: access.clone(),
                    });
                }
            }
            state.reads.clear();
            state.last_write = Some(access);
        } else {
            state.reads.insert(thread, access);
        }
    }

    /// Number of races found so far.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// All races, sorted by (second, first) event id — the declaration
    /// order — so diagnostics are deterministic run to run.
    pub fn report(&self) -> Vec<Race> {
        let mut out = self.races.clone();
        out.sort_by_key(|r| (r.second.event, r.first.event));
        out
    }
}

/// Replays the ordering discipline of one bounded producer→consumer
/// hand-off ring into `checker`: `handoffs` messages through a ring of
/// `depth` slots, the producer modelled as stream 0 and the consumer as
/// stream 1 (two independent logical threads — deliberately *not* the
/// host, whose clock every launch joins and which would therefore hide
/// missing edges).
///
/// Each hand-off declares the edges a real bounded channel provides:
///
/// * **publish** — the producer writes the pipeline resource of ring slot
///   `(worker, slot_base + seq % depth)` and records an event (the send);
/// * **acquire** — the consumer waits on that event before reading the
///   slot (the blocking receive);
/// * **credit** — when `credit_edge` is true, the producer waits on the
///   consumer's post-read event before reusing the slot (the bounded
///   channel's capacity return: `send` of message `seq` cannot complete
///   until message `seq - depth` was received).
///
/// With `credit_edge` false the replay omits the capacity edge, the bug
/// the checker exists to catch: every slot reuse (each `seq >= depth`)
/// races write-after-read, so `handoffs.saturating_sub(depth)` races
/// accumulate — drills use that closed form as a checker self-test.
///
/// `worker` and `slot_base` only namespace the resource ids, so several
/// rings (e.g. one per serving worker, or a worker's arrival queue next
/// to its prep→exec pipeline) can be replayed into one checker without
/// aliasing. Use a fresh checker per ring when replaying many hand-offs;
/// event history grows with each one.
pub fn declare_pipeline_handoffs(
    checker: &mut RaceChecker,
    worker: u16,
    slot_base: u32,
    depth: u32,
    handoffs: u64,
    credit_edge: bool,
) {
    let depth = depth.max(1) as u64;
    let producer = StreamId(0);
    let consumer = StreamId(1);
    let mut credits: Vec<Option<u32>> = vec![None; depth as usize];
    for seq in 0..handoffs {
        let slot = (seq % depth) as usize;
        let resource = pipeline_resource(worker, slot_base + slot as u32);
        if credit_edge {
            if let Some(credit) = credits[slot] {
                checker.wait_event(producer, credit);
            }
        }
        checker.on_launch(producer, KernelId(seq * 2), "pipeline-publish");
        checker.kernel_write(KernelId(seq * 2), resource);
        let published = checker.record_event(producer);
        checker.wait_event(consumer, published);
        checker.on_launch(consumer, KernelId(seq * 2 + 1), "pipeline-consume");
        checker.kernel_read(KernelId(seq * 2 + 1), resource);
        credits[slot] = Some(checker.record_event(consumer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> KernelId {
        KernelId(n)
    }

    fn s(n: u32) -> StreamId {
        StreamId(n)
    }

    #[test]
    fn same_stream_kernels_are_ordered() {
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "write-a");
        c.on_launch(s(0), k(2), "write-b");
        c.kernel_write(k(1), 7);
        c.kernel_write(k(2), 7);
        assert_eq!(c.race_count(), 0);
    }

    #[test]
    fn cross_stream_unsynced_write_write_races() {
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "write-a");
        c.on_launch(s(1), k(2), "write-b");
        c.kernel_write(k(1), 7);
        c.kernel_write(k(2), 7);
        let races = c.report();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].resource, 7);
        assert!(races[0].first.event < races[0].second.event);
    }

    #[test]
    fn cross_stream_read_read_is_fine() {
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "read-a");
        c.on_launch(s(1), k(2), "read-b");
        c.kernel_read(k(1), 7);
        c.kernel_read(k(2), 7);
        assert_eq!(c.race_count(), 0);
    }

    #[test]
    fn sync_then_relaunch_orders_cross_stream() {
        // Stream 0 writes; host syncs stream 0; then launches on stream 1.
        // The second kernel inherits the host clock, which absorbed the
        // first kernel at sync — ordered, no race.
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "producer");
        c.kernel_write(k(1), 7);
        c.on_sync_stream(s(0));
        c.on_launch(s(1), k(2), "consumer");
        c.kernel_read(k(2), 7);
        assert_eq!(c.race_count(), 0);
    }

    #[test]
    fn event_sync_orders_without_host_join() {
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "producer");
        c.kernel_write(k(1), 7);
        let ev = c.record_event(s(0));
        c.wait_event(s(1), ev);
        c.on_launch(s(1), k(2), "consumer");
        c.kernel_read(k(2), 7);
        assert_eq!(c.race_count(), 0);
        // And without the wait, the same shape races.
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "producer");
        c.kernel_write(k(1), 7);
        let _ev = c.record_event(s(0));
        c.on_launch(s(1), k(2), "consumer");
        c.kernel_read(k(2), 7);
        assert_eq!(c.race_count(), 1);
    }

    #[test]
    fn host_reclaim_after_sync_is_ordered() {
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "fleche-copy");
        c.kernel_read(k(1), slot_resource(0, 3));
        c.on_sync_all();
        c.note_epoch_advance();
        c.host_write("reclaim", slot_resource(0, 3));
        assert_eq!(c.race_count(), 0);
    }

    #[test]
    fn host_reclaim_without_sync_races_with_inflight_read() {
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "fleche-copy");
        c.kernel_read(k(1), slot_resource(0, 3));
        // No sync: reclamation while the copy is conceptually in flight.
        c.note_epoch_advance();
        c.host_write("reclaim", slot_resource(0, 3));
        let races = c.report();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].resource, slot_resource(0, 3));
        assert!(!races[0].first.write && races[0].second.write);
        assert_eq!(races[0].second.label, "reclaim");
        assert_eq!(races[0].second.epoch, 1);
    }

    #[test]
    fn launch_after_host_write_is_ordered() {
        let mut c = RaceChecker::new();
        c.host_write("init", 9);
        c.on_launch(s(2), k(1), "reader");
        c.kernel_read(k(1), 9);
        assert_eq!(c.race_count(), 0);
    }

    #[test]
    fn report_is_sorted_by_event_id() {
        let mut c = RaceChecker::new();
        // Three unsynced writers to two resources, declared interleaved.
        c.on_launch(s(0), k(1), "a");
        c.on_launch(s(1), k(2), "b");
        c.on_launch(s(2), k(3), "c");
        c.kernel_write(k(1), 1); // event 0
        c.kernel_write(k(2), 2); // event 1
        c.kernel_write(k(3), 1); // event 2: races with event 0
        c.kernel_write(k(1), 2); // event 3: races with event 1
        c.kernel_write(k(2), 1); // event 4: races with event 2 (FastTrack
                                 // keeps only the last write per resource)
        let report = c.report();
        let keys: Vec<(u64, u64)> = report
            .iter()
            .map(|r| (r.second.event, r.first.event))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(report.len(), 3);
    }

    #[test]
    fn slot_resource_is_injective_across_classes() {
        assert_ne!(slot_resource(0, 5), slot_resource(1, 5));
        assert_ne!(slot_resource(0, 5), slot_resource(0, 6));
        assert_eq!(slot_resource(3, 9) >> 32, 3);
    }

    #[test]
    fn pipeline_handoff_with_both_edges_is_race_free() {
        // A prep stage publishes prepared batches into a 2-deep ring; the
        // executor acquires each publish via the channel's event edge and
        // releases the slot back with a credit event the producer waits on
        // before reusing it. Fully edged, the protocol is race-free.
        let mut c = RaceChecker::new();
        declare_pipeline_handoffs(&mut c, 0, 0, 2, 6, true);
        assert_eq!(c.race_count(), 0);
    }

    #[test]
    fn pipeline_reuse_without_credit_edge_races() {
        // Same shape, but the producer never waits for the consumer's
        // release before overwriting a ring slot: write-after-read with no
        // ordering — the exact bug the credit edge exists to prevent. One
        // race per slot reuse, so `handoffs - depth` in total.
        let mut c = RaceChecker::new();
        declare_pipeline_handoffs(&mut c, 0, 0, 2, 6, false);
        let races = c.report();
        assert_eq!(races.len(), 4);
        for r in &races {
            assert_eq!(r.resource >> 62, 1);
            assert_eq!(r.first.label, "pipeline-consume");
            assert_eq!(r.second.label, "pipeline-publish");
            assert!(!r.first.write && r.second.write);
        }
    }

    #[test]
    fn pipeline_rings_namespace_by_worker_and_slot_base() {
        // Two workers' rings and one worker's queue ring (offset slot
        // base) replay into one checker without aliasing each other.
        let mut c = RaceChecker::new();
        declare_pipeline_handoffs(&mut c, 0, 0, 2, 8, true);
        declare_pipeline_handoffs(&mut c, 1, 0, 2, 8, true);
        declare_pipeline_handoffs(&mut c, 0, 1 << 16, 4, 8, true);
        assert_eq!(c.race_count(), 0);
    }

    #[test]
    fn host_wait_event_acquires_publish() {
        // Without the event edge the host read is unordered against the
        // stream's publish.
        let mut c = RaceChecker::new();
        c.on_launch(s(0), k(1), "pipeline-publish");
        c.kernel_write(k(1), pipeline_resource(3, 1));
        c.host_read("pipeline-consume", pipeline_resource(3, 1));
        assert_eq!(c.race_count(), 1);
    }

    #[test]
    fn pipeline_resources_never_alias_slots_or_ledgers() {
        assert_ne!(pipeline_resource(0, 0), pipeline_resource(0, 1));
        assert_ne!(pipeline_resource(0, 0), pipeline_resource(1, 0));
        for w in [0u16, 5, u16::MAX] {
            assert_eq!(pipeline_resource(w, u32::MAX) >> 62, 1);
            assert_eq!(slot_resource(w, u32::MAX) >> 62, 0);
            assert_eq!(ledger_resource(w) >> 63, 1);
            assert_eq!(pipeline_resource(w, 0) >> 63, 0);
        }
    }

    #[test]
    fn ledger_resources_never_alias_slots() {
        assert_ne!(ledger_resource(0), ledger_resource(1));
        for table in [0u16, 7, u16::MAX] {
            assert_eq!(ledger_resource(table) >> 63, 1);
            assert_eq!(slot_resource(table, u32::MAX) >> 63, 0);
        }
    }

    #[test]
    fn vector_clock_partial_order() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(0);
        b.tick(1);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j));
        assert!(b.leq(&j));
        assert!(VectorClock::new().leq(&a));
    }
}
