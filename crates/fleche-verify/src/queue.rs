//! The per-shard bounded MPMC queue ([`fleche_model::ShardedQueue`]),
//! explored over its shipped critical sections.
//!
//! Each lane of the real queue is a `Mutex<Lane>` with two condvars
//! (`not_empty`, `not_full`); [`Lane::try_push`], [`Lane::try_pop`] and
//! [`Lane::close`] are the code that runs under the mutex, and their
//! answers tell the caller which condvar to wait on or signal. The model
//! runs those same functions on a real `Lane<u64>` of stamps, under the
//! modeled [`Mutex`] and [`Condvar`]s, so an edit to the shipped lane is
//! an edit to what the explorer searches. One *feeder* thread pushes
//! `items` round-robin over the lanes and then closes them (exactly the
//! serving front-end's feeder), and `consumers` threads pop — so a lane
//! can have two consumers, which is the schedule family that breaks
//! `if`-based wait conditions.
//!
//! Checked: lane occupancy never exceeds the capacity bound, pops leave
//! each lane in exact push order (stamps are consecutive), and every
//! schedule terminates with every pushed item popped (a lost wakeup
//! surfaces as a deadlock, which the explorer reports with the schedule
//! that loses the signal). The mutants live here, in the waits and
//! signals the model performs around the shipped lane, never in it.

use crate::explore::{Access, Model, Step};
use crate::sync::{Condvar, Mutex};
use fleche_model::concurrent::{Lane, Pop, Push};

/// Which deliberate bug to build in, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueMutant {
    /// The faithful protocol.
    None,
    /// Wait conditions are not re-checked after wakeup (`if` instead of
    /// `while`): a barging thread can steal the condition between the
    /// notify and the resume.
    IfWait,
    /// The model ignores the `not_full` signal `Pop::Item` asks for: a
    /// producer blocked on a full lane never wakes (lost wakeup).
    MissingNotify,
}

/// Model configuration.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Lane count (the real queue uses one per worker).
    pub lanes: usize,
    /// Per-lane capacity bound (the real bound is
    /// [`fleche_model::concurrent::DEFAULT_SHARD_CAPACITY`]; the model
    /// shrinks it so full-lane schedules are reachable).
    pub capacity: usize,
    /// Items the feeder pushes, round-robin over lanes.
    pub items: usize,
    /// Consumer threads; consumer `c` serves lane `c % lanes`.
    pub consumers: usize,
    /// Seeded bug.
    pub mutant: QueueMutant,
}

impl QueueConfig {
    /// The shipped property configuration: two lanes, capacity 1 (so
    /// producers block), four items, three consumers (lane 0 gets two —
    /// the barging schedule family).
    pub fn default_property() -> QueueConfig {
        QueueConfig {
            lanes: 2,
            capacity: 1,
            items: 4,
            consumers: 3,
            mutant: QueueMutant::None,
        }
    }
}

#[derive(Clone, Debug)]
struct ModelLane {
    mutex: Mutex,
    not_empty: Condvar,
    not_full: Condvar,
    /// The shipped lane, holding stamps (1-based, per lane).
    state: Lane<u64>,
    /// Stamps handed out so far.
    pushed: u64,
    /// Last stamp popped; FIFO means pops see `1, 2, 3, ...` exactly.
    last_popped: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum FeederPc {
    /// Push item `next` (enabled when the lane mutex is free).
    Push {
        next: usize,
    },
    /// Blocked on `not_full` with `item` in hand.
    BlockedFull {
        item: usize,
    },
    /// Close lane `lane` (one step per lane, like the real `close`).
    Close {
        lane: usize,
    },
    Done,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum ConsumerPc {
    /// Try to pop (enabled when the lane mutex is free).
    Pop,
    /// Blocked on `not_empty`.
    Blocked,
    Done,
}

/// The queue model. Thread 0 is the feeder; threads `1..=consumers` are
/// consumers.
#[derive(Clone, Debug)]
pub struct QueueModel {
    cfg: QueueConfig,
    lanes: Vec<ModelLane>,
    feeder: FeederPc,
    consumers: Vec<ConsumerPc>,
    violation: Option<String>,
}

fn mutex_res(lane: usize) -> u64 {
    lane as u64 * 4
}
fn not_empty_res(lane: usize) -> u64 {
    lane as u64 * 4 + 1
}
fn not_full_res(lane: usize) -> u64 {
    lane as u64 * 4 + 2
}

impl QueueModel {
    /// Builds the model; panics on configs that cannot terminate (a lane
    /// that receives more items than its capacity needs a consumer).
    pub fn new(cfg: QueueConfig) -> QueueModel {
        assert!(cfg.lanes > 0 && cfg.capacity > 0 && cfg.consumers >= cfg.lanes);
        QueueModel {
            lanes: (0..cfg.lanes)
                .map(|l| ModelLane {
                    mutex: Mutex::new(mutex_res(l)),
                    not_empty: Condvar::new(not_empty_res(l)),
                    not_full: Condvar::new(not_full_res(l)),
                    state: Lane::default(),
                    pushed: 0,
                    last_popped: 0,
                })
                .collect(),
            feeder: if cfg.items > 0 {
                FeederPc::Push { next: 0 }
            } else {
                FeederPc::Close { lane: 0 }
            },
            consumers: vec![ConsumerPc::Pop; cfg.consumers],
            violation: None,
            cfg,
        }
    }

    fn consumer_lane(&self, c: usize) -> usize {
        c % self.cfg.lanes
    }

    /// The feeder's pass through `ShardedQueue::push`'s loop for `item`,
    /// shared by the first attempt and the post-wakeup retry. `recheck`
    /// is false only in the [`QueueMutant::IfWait`] retry, which takes
    /// any answer but `Queued` as the bug surfacing.
    fn push_body(
        &mut self,
        item: usize,
        recheck: bool,
        accesses: &mut Vec<Access>,
    ) -> (FeederPc, String) {
        let lane_idx = item % self.cfg.lanes;
        let lane = &mut self.lanes[lane_idx];
        let stamp = lane.pushed + 1;
        match lane.state.try_push(stamp, self.cfg.capacity) {
            Push::Queued => {
                lane.pushed = stamp;
                accesses.push(lane.not_empty.notify_one());
                (
                    FeederPc::Push { next: item + 1 },
                    format!("push({item}) -> lane {lane_idx} stamp {stamp}"),
                )
            }
            _ if !recheck => {
                self.violation = Some(format!(
                    "push to lane {lane_idx} refused after wakeup: wait condition not re-checked"
                ));
                (
                    FeederPc::Push { next: item },
                    format!("push({item}) -> lane {lane_idx} REFUSED"),
                )
            }
            Push::Full(_) => {
                accesses.push(lane.not_full.wait_begin(0));
                (
                    FeederPc::BlockedFull { item },
                    format!("push({item}) blocks: lane {lane_idx} full"),
                )
            }
            Push::Closed => (
                FeederPc::Push { next: item + 1 },
                format!("push({item}) -> lane {lane_idx} closed, dropped"),
            ),
        }
    }

    /// A consumer's pass through `ShardedQueue::pop`'s loop, shared by
    /// the first attempt and the post-wakeup retry.
    fn pop_body(
        &mut self,
        c: usize,
        recheck: bool,
        accesses: &mut Vec<Access>,
    ) -> (ConsumerPc, String) {
        let tid = c + 1;
        let lane_idx = self.consumer_lane(c);
        let lane = &mut self.lanes[lane_idx];
        match lane.state.try_pop() {
            Pop::Item(stamp) => {
                if stamp != lane.last_popped + 1 {
                    self.violation = Some(format!(
                        "FIFO violated on lane {lane_idx}: popped stamp {stamp} after {}",
                        lane.last_popped
                    ));
                }
                lane.last_popped = stamp;
                if self.cfg.mutant != QueueMutant::MissingNotify {
                    accesses.push(lane.not_full.notify_one());
                }
                (
                    ConsumerPc::Pop,
                    format!("pop -> lane {lane_idx} stamp {stamp}"),
                )
            }
            _ if !recheck => {
                // IfWait retry: the item it was woken for is already gone.
                self.violation = Some(format!(
                    "pop from empty lane {lane_idx}: wait condition not re-checked"
                ));
                (ConsumerPc::Pop, format!("pop -> lane {lane_idx} EMPTY"))
            }
            Pop::Closed => (ConsumerPc::Done, format!("pop -> lane {lane_idx} closed")),
            Pop::Empty => {
                accesses.push(lane.not_empty.wait_begin(tid));
                (
                    ConsumerPc::Blocked,
                    format!("pop blocks: lane {lane_idx} empty"),
                )
            }
        }
    }

    /// The feeder's next pc after a push step: close once every item has
    /// been handed over.
    fn after_push(&self, pc: FeederPc) -> FeederPc {
        match pc {
            FeederPc::Push { next } if next >= self.cfg.items => FeederPc::Close { lane: 0 },
            pc => pc,
        }
    }
}

impl Model for QueueModel {
    fn thread_count(&self) -> usize {
        1 + self.cfg.consumers
    }

    fn thread_name(&self, tid: usize) -> String {
        if tid == 0 {
            "feeder".to_string()
        } else {
            format!("consumer{}/lane{}", tid - 1, self.consumer_lane(tid - 1))
        }
    }

    fn done(&self, tid: usize) -> bool {
        if tid == 0 {
            self.feeder == FeederPc::Done
        } else {
            self.consumers[tid - 1] == ConsumerPc::Done
        }
    }

    fn enabled(&self, tid: usize) -> bool {
        if tid == 0 {
            match &self.feeder {
                FeederPc::Push { next } => self.lanes[next % self.cfg.lanes].mutex.free(),
                FeederPc::BlockedFull { item } => {
                    let lane = &self.lanes[item % self.cfg.lanes];
                    lane.not_full.woken(0) && lane.mutex.free()
                }
                FeederPc::Close { lane } => self.lanes[*lane].mutex.free(),
                FeederPc::Done => false,
            }
        } else {
            let lane = &self.lanes[self.consumer_lane(tid - 1)];
            match &self.consumers[tid - 1] {
                ConsumerPc::Pop => lane.mutex.free(),
                ConsumerPc::Blocked => lane.not_empty.woken(tid) && lane.mutex.free(),
                ConsumerPc::Done => false,
            }
        }
    }

    fn step(&mut self, tid: usize) -> Step {
        let mut accesses = Vec::new();
        let recheck = self.cfg.mutant != QueueMutant::IfWait;
        let label;
        if tid == 0 {
            match self.feeder.clone() {
                FeederPc::Push { next } => {
                    let lane_idx = next % self.cfg.lanes;
                    accesses.push(self.lanes[lane_idx].mutex.acquire(0));
                    let (pc, l) = self.push_body(next, true, &mut accesses);
                    accesses.push(self.lanes[lane_idx].mutex.release(0));
                    self.feeder = self.after_push(pc);
                    label = l;
                }
                FeederPc::BlockedFull { item } => {
                    let lane_idx = item % self.cfg.lanes;
                    accesses.push(self.lanes[lane_idx].not_full.resume(0));
                    accesses.push(self.lanes[lane_idx].mutex.acquire(0));
                    let (pc, l) = self.push_body(item, recheck, &mut accesses);
                    accesses.push(self.lanes[lane_idx].mutex.release(0));
                    self.feeder = self.after_push(pc);
                    label = l;
                }
                FeederPc::Close { lane } => {
                    let lane_state = &mut self.lanes[lane];
                    accesses.push(lane_state.mutex.acquire(0));
                    lane_state.state.close();
                    accesses.push(lane_state.not_empty.notify_all());
                    accesses.push(lane_state.not_full.notify_all());
                    accesses.push(lane_state.mutex.release(0));
                    self.feeder = if lane + 1 < self.cfg.lanes {
                        FeederPc::Close { lane: lane + 1 }
                    } else {
                        FeederPc::Done
                    };
                    label = format!("close lane {lane}");
                }
                FeederPc::Done => unreachable!("stepping a done feeder"),
            }
        } else {
            let c = tid - 1;
            let lane_idx = self.consumer_lane(c);
            let retry = match self.consumers[c] {
                ConsumerPc::Pop => false,
                ConsumerPc::Blocked => true,
                ConsumerPc::Done => unreachable!("stepping a done consumer"),
            };
            if retry {
                accesses.push(self.lanes[lane_idx].not_empty.resume(tid));
            }
            accesses.push(self.lanes[lane_idx].mutex.acquire(tid));
            let (pc, l) = self.pop_body(c, !retry || recheck, &mut accesses);
            accesses.push(self.lanes[lane_idx].mutex.release(tid));
            self.consumers[c] = pc;
            label = l;
        }
        Step { label, accesses }
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        for (l, lane) in self.lanes.iter().enumerate() {
            let held = lane.state.items().len();
            if held > self.cfg.capacity {
                return Err(format!(
                    "lane {l} holds {held} items, capacity {}",
                    self.cfg.capacity
                ));
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let pushed: u64 = self.lanes.iter().map(|l| l.pushed).sum();
        if pushed != self.cfg.items as u64 {
            return Err(format!(
                "feeder pushed {pushed} of {} items",
                self.cfg.items
            ));
        }
        for (l, lane) in self.lanes.iter().enumerate() {
            let held = lane.state.items().len();
            if held > 0 {
                return Err(format!("lane {l} still holds {held} items after close"));
            }
            if lane.last_popped != lane.pushed {
                return Err(format!(
                    "lane {l}: pushed {} items but consumers saw {}",
                    lane.pushed, lane.last_popped
                ));
            }
        }
        Ok(())
    }

    fn snapshot(&self, out: &mut Vec<u64>) {
        for lane in &self.lanes {
            lane.mutex.snapshot(out);
            lane.not_empty.snapshot(out);
            lane.not_full.snapshot(out);
            out.push(lane.state.items().len() as u64);
            out.extend(lane.state.items().iter().copied());
            out.push(u64::from(lane.state.is_closed()));
            out.push(lane.pushed);
            out.push(lane.last_popped);
        }
        out.push(match &self.feeder {
            FeederPc::Push { next } => 1 + *next as u64 * 4,
            FeederPc::BlockedFull { item } => 2 + *item as u64 * 4,
            FeederPc::Close { lane } => 3 + *lane as u64 * 4,
            FeederPc::Done => 0,
        });
        for c in &self.consumers {
            out.push(match c {
                ConsumerPc::Pop => 1,
                ConsumerPc::Blocked => 2,
                ConsumerPc::Done => 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};

    #[test]
    fn faithful_protocol_passes_exhaustively() {
        let m = QueueModel::new(QueueConfig::default_property());
        let r = explore(&m, &ExploreConfig::default());
        assert!(r.passed(), "{}", r.failure.unwrap().render());
        assert!(r.stats.complete_runs > 0);
    }

    #[test]
    fn if_wait_mutant_pops_an_empty_lane() {
        let m = QueueModel::new(QueueConfig {
            mutant: QueueMutant::IfWait,
            ..QueueConfig::default_property()
        });
        let r = explore(&m, &ExploreConfig::default());
        let f = r.failure.expect("if-wait must fail under some schedule");
        assert!(f.reason.contains("not re-checked"), "{}", f.reason);
    }

    #[test]
    fn missing_notify_mutant_deadlocks() {
        let m = QueueModel::new(QueueConfig {
            mutant: QueueMutant::MissingNotify,
            ..QueueConfig::default_property()
        });
        let r = explore(&m, &ExploreConfig::default());
        let f = r.failure.expect("a lost wakeup must deadlock");
        assert!(f.reason.contains("deadlock"), "{}", f.reason);
    }
}
