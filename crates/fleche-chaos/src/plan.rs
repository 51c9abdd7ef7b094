//! Fault plans and the per-domain injectors they hand out.

use crate::in_periodic_window;
use crate::rng::ChaosRng;
use fleche_gpu::{LaunchFault, LaunchFaultHook, Ns};

/// Remote parameter-server fault model.
#[derive(Clone, Debug, Default)]
pub struct RemoteFaultSpec {
    /// Probability that one fetch attempt times out (dropped request,
    /// server-side overload). Independent per attempt, so retries help.
    pub fetch_failure_rate: f64,
    /// An outage window opens every this often (`ZERO` = never). During a
    /// window *every* fetch attempt times out, so retries alone don't help —
    /// only stale-serve or the deadline fallback do.
    pub outage_period: Ns,
    /// Length of each outage window.
    pub outage_duration: Ns,
}

/// GPU engine fault model.
#[derive(Clone, Debug, Default)]
pub struct GpuFaultSpec {
    /// Probability a kernel launch transiently fails (driver retries).
    pub launch_failure_rate: f64,
    /// Probability a launch's stream stalls before execution.
    pub stall_rate: f64,
    /// Duration of each injected stall.
    pub stall: Ns,
}

/// Slab-pool corruption model.
#[derive(Clone, Debug, Default)]
pub struct CorruptionSpec {
    /// Expected bit flips injected into live pool slots per batch. Values
    /// above 1 flip multiple bits per batch.
    pub bitflips_per_batch: f64,
}

/// Snapshot (checkpoint image) corruption model: bit rot between the
/// write and the restore read-back.
#[derive(Clone, Debug, Default)]
pub struct SnapshotFaultSpec {
    /// Probability that a snapshot image is corrupted — one byte flipped
    /// at a seeded offset — before restore reads it.
    pub corruption_rate: f64,
}

/// Trainer-push channel fault model: what the lossy update stream between
/// the training side and the serving cache can do to pushes in flight.
/// Commits to the parameter-server version ledger are reliable; only the
/// cache-bound push channel rots.
#[derive(Clone, Debug, Default)]
pub struct UpdateFaultSpec {
    /// Probability one push is silently dropped in flight.
    pub drop_rate: f64,
    /// Probability one delivered push is duplicated (at-least-once
    /// delivery showing through).
    pub duplicate_rate: f64,
    /// Probability two adjacent delivered pushes swap order.
    pub reorder_rate: f64,
    /// An update-burst storm lands every this many batches (0 = never):
    /// the trainer emits `burst_factor`× the nominal push volume.
    pub burst_every: u64,
    /// Push-volume multiplier on storm batches.
    pub burst_factor: u64,
    /// An update-stream outage opens every this many batches (0 = never).
    /// During an outage no push reaches the cache at all; ledger commits
    /// keep flowing, so staleness lag climbs.
    pub outage_every: u64,
    /// Length of each outage in batches.
    pub outage_batches: u64,
}

/// Arrival-overload model: periodic bursts during which the offered
/// request rate is multiplied, driving the admission queue and deadline
/// shedding machinery. It injects *load*, not failures, so it is not a
/// [`FaultPlan`] domain — the serving front-end must shed deterministically
/// under it, serially and across concurrent workers alike.
#[derive(Clone, Debug, Default)]
pub struct OverloadSpec {
    /// A burst opens every this often in arrival time (`ZERO` = never).
    pub burst_period: Ns,
    /// Length of each burst window.
    pub burst_duration: Ns,
    /// Offered-rate multiplier inside a burst (`> 1` is an overload).
    pub burst_factor: f64,
}

impl OverloadSpec {
    /// Expands the periodic schedule into concrete rate-modulation
    /// windows covering `horizon` of arrival time, in the shape the
    /// workload-side arrival generator consumes.
    pub fn windows(&self, horizon: Ns) -> Vec<fleche_workload::BurstWindow> {
        if self.burst_period <= Ns::ZERO || self.burst_duration <= Ns::ZERO {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut start = self.burst_period;
        while start < horizon {
            out.push(fleche_workload::BurstWindow {
                start_ns: start.as_ns(),
                end_ns: (start + self.burst_duration).as_ns(),
                factor: self.burst_factor,
            });
            start += self.burst_period;
        }
        out
    }
}

/// Flash-crowd injection: one tenant's traffic spikes in *rate* and
/// concentrates in *key space* for a bounded window. The two halves are
/// consumed by different layers — the rate spike by that tenant's arrival
/// generator, the key churn by its trace generator — and both derive from
/// the same window so they land together.
#[derive(Clone, Debug)]
pub struct FlashCrowdSpec {
    /// Tenant index the crowd lands on.
    pub tenant: usize,
    /// Arrival time at which the crowd forms.
    pub start: Ns,
    /// Crowd lifetime.
    pub duration: Ns,
    /// Offered-rate multiplier for the victim tenant inside the window.
    pub rate_factor: f64,
    /// Fraction of the tenant's draws redirected onto the crowd keys.
    pub crowd_fraction: f64,
    /// Number of distinct crowd keys per table.
    pub crowd_size: u64,
    /// Salt for crowd-key placement (see
    /// [`fleche_workload::HotChurnSpec::crowd_id`]).
    pub salt: u64,
}

impl FlashCrowdSpec {
    /// Whether the spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.duration > Ns::ZERO && (self.rate_factor > 1.0 || self.crowd_fraction > 0.0)
    }

    /// The rate-modulation window for the victim tenant's arrival
    /// generator (empty when the spec is quiet).
    pub fn windows(&self) -> Vec<fleche_workload::BurstWindow> {
        if !self.is_active() {
            return Vec::new();
        }
        vec![fleche_workload::BurstWindow {
            start_ns: self.start.as_ns(),
            end_ns: (self.start + self.duration).as_ns(),
            factor: self.rate_factor.max(1.0),
        }]
    }

    /// The key-churn half of the crowd, converted from arrival time to
    /// the victim tenant's sample counts at `offered_load` requests/s.
    /// Inside the window the tenant also produces samples `rate_factor`×
    /// faster, which the duration conversion accounts for.
    pub fn churn(&self, offered_load: f64) -> fleche_workload::HotChurnSpec {
        let start = (self.start.as_secs() * offered_load).round() as u64;
        let duration =
            (self.duration.as_secs() * offered_load * self.rate_factor.max(1.0)).round() as u64;
        fleche_workload::HotChurnSpec {
            start,
            duration,
            crowd_fraction: if self.is_active() {
                self.crowd_fraction
            } else {
                0.0
            },
            crowd_size: self.crowd_size.max(1),
            salt: self.salt,
        }
    }
}

/// A complete, seeded description of the fault environment.
///
/// Each injector draws from an independent substream of `seed`, so turning
/// one fault domain on or off never perturbs the schedule of another — a
/// property the chaos suite's ablation columns rely on.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Master seed; all substreams derive from it.
    pub seed: u64,
    /// Remote parameter-server faults.
    pub remote: RemoteFaultSpec,
    /// GPU engine faults.
    pub gpu: GpuFaultSpec,
    /// Slab-pool corruption.
    pub corruption: CorruptionSpec,
    /// Snapshot-image corruption.
    pub snapshot: SnapshotFaultSpec,
    /// Trainer-push channel faults.
    pub update: UpdateFaultSpec,
}

const DOMAIN_REMOTE: u64 = 0x01;
const DOMAIN_GPU: u64 = 0x02;
const DOMAIN_CORRUPTION: u64 = 0x03;
const DOMAIN_SNAPSHOT: u64 = 0x04;
const DOMAIN_UPDATE: u64 = 0x05;

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            remote: RemoteFaultSpec::default(),
            gpu: GpuFaultSpec::default(),
            corruption: CorruptionSpec::default(),
            snapshot: SnapshotFaultSpec::default(),
            update: UpdateFaultSpec::default(),
        }
    }

    /// The remote-fetch injector for this plan.
    pub fn remote_injector(&self) -> RemoteFaultInjector {
        RemoteFaultInjector {
            spec: self.remote.clone(),
            rng: ChaosRng::substream(self.seed, DOMAIN_REMOTE),
        }
    }

    /// The GPU launch-fault injector for this plan; install it with
    /// [`fleche_gpu::Gpu::set_fault_hook`].
    pub fn gpu_injector(&self) -> GpuFaultInjector {
        GpuFaultInjector {
            spec: self.gpu.clone(),
            rng: ChaosRng::substream(self.seed, DOMAIN_GPU),
        }
    }

    /// The slab-pool corruption injector for this plan.
    pub fn corruption_injector(&self) -> CorruptionInjector {
        CorruptionInjector {
            spec: self.corruption.clone(),
            rng: ChaosRng::substream(self.seed, DOMAIN_CORRUPTION),
        }
    }

    /// The snapshot-corruption injector for this plan.
    pub fn snapshot_injector(&self) -> SnapshotFaultInjector {
        SnapshotFaultInjector {
            spec: self.snapshot.clone(),
            rng: ChaosRng::substream(self.seed, DOMAIN_SNAPSHOT),
        }
    }

    /// The trainer-push channel injector for this plan.
    pub fn update_injector(&self) -> UpdateFaultInjector {
        UpdateFaultInjector {
            spec: self.update.clone(),
            rng: ChaosRng::substream(self.seed, DOMAIN_UPDATE),
            dropped: 0,
            duplicated: 0,
            reordered: 0,
        }
    }
}

/// Draws outcomes for remote fetch attempts.
#[derive(Clone, Debug)]
pub struct RemoteFaultInjector {
    spec: RemoteFaultSpec,
    rng: ChaosRng,
}

impl RemoteFaultInjector {
    /// True when `now` falls inside a scheduled outage window.
    pub fn in_outage(&self, now: Ns) -> bool {
        in_periodic_window(now, self.spec.outage_period, self.spec.outage_duration)
    }

    /// Whether one fetch attempt issued at `now` never answers, so the
    /// caller waits out its timeout; otherwise it succeeds at nominal cost.
    /// Inside an outage window no draw is made.
    pub fn times_out(&mut self, now: Ns) -> bool {
        self.in_outage(now) || self.rng.chance(self.spec.fetch_failure_rate)
    }
}

/// Draws per-launch GPU faults; implements the device facade's hook.
#[derive(Clone, Debug)]
pub struct GpuFaultInjector {
    spec: GpuFaultSpec,
    rng: ChaosRng,
}

impl LaunchFaultHook for GpuFaultInjector {
    fn on_launch(&mut self, _now: Ns, _label: &str) -> LaunchFault {
        if self.rng.chance(self.spec.launch_failure_rate) {
            return LaunchFault::TransientFail;
        }
        if self.rng.chance(self.spec.stall_rate) {
            return LaunchFault::Stall(self.spec.stall);
        }
        LaunchFault::None
    }
}

/// Draws bit-flip targets for the slab pool.
#[derive(Clone, Debug)]
pub struct CorruptionInjector {
    spec: CorruptionSpec,
    rng: ChaosRng,
}

impl CorruptionInjector {
    /// How many bits to flip this batch (integer part of the rate plus a
    /// Bernoulli draw on the fractional part).
    pub fn flips_this_batch(&mut self) -> u32 {
        let rate = self.spec.bitflips_per_batch;
        if rate <= 0.0 {
            return 0;
        }
        let whole = rate.floor() as u32;
        let frac = rate - rate.floor();
        whole + u32::from(self.rng.chance(frac))
    }

    /// Uniform draw from `[0, n)` for choosing a victim slot or word.
    pub fn pick(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.rng.below(n)
    }

    /// Which bit of a 32-bit float word to flip. Bits 20–30 cover mantissa
    /// high bits and exponent: flips that change the value materially
    /// without routinely producing NaN payload-only corruption.
    pub fn pick_bit(&mut self) -> u32 {
        20 + (self.rng.below(11) as u32)
    }
}

/// Draws snapshot-image corruption: which byte of a checkpoint flips
/// between write and restore.
#[derive(Clone, Debug)]
pub struct SnapshotFaultInjector {
    spec: SnapshotFaultSpec,
    rng: ChaosRng,
}

impl SnapshotFaultInjector {
    /// For a snapshot of `len` bytes: `Some(offset)` of the byte to flip
    /// when this image rots, `None` when it survives intact. One draw per
    /// snapshot written.
    pub fn corrupt_offset(&mut self, len: u64) -> Option<u64> {
        if len == 0 || !self.rng.chance(self.spec.corruption_rate) {
            return None;
        }
        Some(self.rng.below(len))
    }
}

/// Applies the push-channel fault model to each batch's push traffic.
/// Generic over the push type so the crate stays decoupled from the
/// store-side `UpdatePush` — any cloneable item works.
#[derive(Clone, Debug)]
pub struct UpdateFaultInjector {
    spec: UpdateFaultSpec,
    rng: ChaosRng,
    dropped: u64,
    duplicated: u64,
    reordered: u64,
}

impl UpdateFaultInjector {
    /// True when batch `batch` falls inside a scheduled update-stream
    /// outage (first window opens at batch `outage_every`, matching the
    /// time-domain outage convention).
    pub fn in_outage(&self, batch: u64) -> bool {
        let every = self.spec.outage_every;
        every > 0 && batch >= every && batch % every < self.spec.outage_batches
    }

    /// Push-volume multiplier for batch `batch` (1 off-storm).
    pub fn burst_multiplier(&self, batch: u64) -> u64 {
        let every = self.spec.burst_every;
        if every > 0 && batch >= every && batch.is_multiple_of(every) {
            self.spec.burst_factor.max(1)
        } else {
            1
        }
    }

    /// Runs one batch's pushes through the channel: drops, duplicates,
    /// then adjacent reorders, all from the plan's seeded substream.
    /// Returns what actually arrives at the cache, in arrival order.
    pub fn filter<T: Clone>(&mut self, pushes: Vec<T>) -> Vec<T> {
        let mut delivered = Vec::with_capacity(pushes.len());
        for p in pushes {
            if self.rng.chance(self.spec.drop_rate) {
                self.dropped += 1;
                continue;
            }
            if self.rng.chance(self.spec.duplicate_rate) {
                self.duplicated += 1;
                delivered.push(p.clone());
            }
            delivered.push(p);
        }
        if delivered.len() >= 2 {
            for i in 0..delivered.len() - 1 {
                if self.rng.chance(self.spec.reorder_rate) {
                    delivered.swap(i, i + 1);
                    self.reordered += 1;
                }
            }
        }
        delivered
    }

    /// Pushes dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Pushes duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Adjacent swaps applied so far.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_windows_tile_the_horizon() {
        let spec = OverloadSpec {
            burst_period: Ns::from_ms(1.0),
            burst_duration: Ns::from_us(200.0),
            burst_factor: 8.0,
        };
        let w = spec.windows(Ns::from_ms(3.5));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].start_ns, 1e6);
        assert_eq!(w[0].end_ns, 1.2e6);
        assert_eq!(w[2].start_ns, 3e6);
        assert!(w.iter().all(|b| b.factor == 8.0));
        // Quiet spec ⇒ no windows.
        assert!(OverloadSpec::default()
            .windows(Ns::from_ms(10.0))
            .is_empty());
    }

    #[test]
    fn flash_crowd_halves_share_one_window() {
        let spec = FlashCrowdSpec {
            tenant: 0,
            start: Ns::from_ms(2.0),
            duration: Ns::from_ms(1.0),
            rate_factor: 4.0,
            crowd_fraction: 0.7,
            crowd_size: 8,
            salt: 5,
        };
        assert!(spec.is_active());
        let w = spec.windows();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].start_ns, 2e6);
        assert_eq!(w[0].end_ns, 3e6);
        assert_eq!(w[0].factor, 4.0);
        // At 1M req/s: crowd starts at sample 2000, and the 1 ms window
        // holds 4000 samples at the boosted rate.
        let churn = spec.churn(1_000_000.0);
        assert_eq!(churn.start, 2_000);
        assert_eq!(churn.duration, 4_000);
        assert_eq!(churn.crowd_fraction, 0.7);
        // A zero-length crowd injects nothing anywhere.
        let quiet = FlashCrowdSpec {
            duration: Ns::ZERO,
            ..spec
        };
        assert!(!quiet.is_active());
        assert!(quiet.windows().is_empty());
        assert_eq!(quiet.churn(1_000_000.0).crowd_fraction, 0.0);
    }

    #[test]
    fn plans_replay_identically() {
        let plan = FaultPlan {
            remote: RemoteFaultSpec {
                fetch_failure_rate: 0.3,
                ..RemoteFaultSpec::default()
            },
            gpu: GpuFaultSpec {
                launch_failure_rate: 0.1,
                stall_rate: 0.05,
                stall: Ns::from_us(20.0),
            },
            corruption: CorruptionSpec {
                bitflips_per_batch: 0.5,
            },
            snapshot: SnapshotFaultSpec {
                corruption_rate: 0.5,
            },
            update: UpdateFaultSpec {
                drop_rate: 0.2,
                duplicate_rate: 0.1,
                reorder_rate: 0.1,
                burst_every: 16,
                burst_factor: 4,
                outage_every: 32,
                outage_batches: 4,
            },
            ..FaultPlan::quiet(77)
        };
        let mut a = plan.remote_injector();
        let mut b = plan.remote_injector();
        for i in 0..256 {
            let t = Ns::from_us(i as f64);
            assert_eq!(a.times_out(t), b.times_out(t));
        }
        let mut ga = plan.gpu_injector();
        let mut gb = plan.gpu_injector();
        for _ in 0..256 {
            assert_eq!(ga.on_launch(Ns::ZERO, "k"), gb.on_launch(Ns::ZERO, "k"));
        }
        let mut ca = plan.corruption_injector();
        let mut cb = plan.corruption_injector();
        for _ in 0..64 {
            assert_eq!(ca.flips_this_batch(), cb.flips_this_batch());
            assert_eq!(ca.pick(1000), cb.pick(1000));
            assert_eq!(ca.pick_bit(), cb.pick_bit());
        }
        let mut sa = plan.snapshot_injector();
        let mut sb = plan.snapshot_injector();
        for _ in 0..64 {
            assert_eq!(sa.corrupt_offset(4096), sb.corrupt_offset(4096));
        }
        let mut ua = plan.update_injector();
        let mut ub = plan.update_injector();
        for batch in 0..64u64 {
            let pushes: Vec<u64> = (0..8).map(|i| batch * 8 + i).collect();
            assert_eq!(ua.filter(pushes.clone()), ub.filter(pushes));
            assert_eq!(ua.in_outage(batch), ub.in_outage(batch));
            assert_eq!(ua.burst_multiplier(batch), ub.burst_multiplier(batch));
        }
        assert_eq!(ua.dropped(), ub.dropped());
        assert_eq!(ua.duplicated(), ub.duplicated());
        assert_eq!(ua.reordered(), ub.reordered());
    }

    #[test]
    fn update_channel_faults_behave_as_specified() {
        let plan = FaultPlan {
            update: UpdateFaultSpec {
                drop_rate: 0.25,
                duplicate_rate: 0.1,
                reorder_rate: 0.0,
                burst_every: 10,
                burst_factor: 8,
                outage_every: 20,
                outage_batches: 3,
            },
            ..FaultPlan::quiet(21)
        };
        let mut inj = plan.update_injector();
        // Outage windows: first at batch 20, none before.
        assert!(!inj.in_outage(0));
        assert!(!inj.in_outage(19));
        assert!(inj.in_outage(20));
        assert!(inj.in_outage(22));
        assert!(!inj.in_outage(23));
        assert!(inj.in_outage(40));
        // Burst storms: batches 10, 20, 30...
        assert_eq!(inj.burst_multiplier(0), 1);
        assert_eq!(inj.burst_multiplier(9), 1);
        assert_eq!(inj.burst_multiplier(10), 8);
        assert_eq!(inj.burst_multiplier(15), 1);
        // Drop/duplicate rates hold over volume.
        let mut delivered = 0usize;
        for _ in 0..1_000 {
            delivered += inj.filter(vec![0u8; 10]).len();
        }
        // E[delivered per push] = (1 - 0.25) * (1 + 0.1) = 0.825.
        assert!(
            (7_900..8_600).contains(&delivered),
            "delivered {delivered} far from expected ~8250"
        );
        assert!(inj.dropped() > 2_000);
        assert!(inj.duplicated() > 500);
        assert_eq!(inj.reordered(), 0, "reorder rate zero");
    }

    #[test]
    fn reorder_swaps_adjacent_pushes() {
        let plan = FaultPlan {
            update: UpdateFaultSpec {
                reorder_rate: 1.0,
                ..UpdateFaultSpec::default()
            },
            ..FaultPlan::quiet(4)
        };
        let mut inj = plan.update_injector();
        // Every adjacent pair swaps in sequence: [1,2,3] → [2,3,1].
        assert_eq!(inj.filter(vec![1, 2, 3]), vec![2, 3, 1]);
        assert_eq!(inj.reordered(), 2);
        // Nothing is ever lost or invented by reordering.
        let mut out = inj.filter((0..100u64).collect());
        out.sort_unstable();
        assert_eq!(out, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_corruption_offsets_stay_in_bounds() {
        let plan = FaultPlan {
            snapshot: SnapshotFaultSpec {
                corruption_rate: 1.0,
            },
            ..FaultPlan::quiet(9)
        };
        let mut inj = plan.snapshot_injector();
        for _ in 0..256 {
            let off = inj.corrupt_offset(100).expect("rate 1.0 always corrupts");
            assert!(off < 100);
        }
        assert_eq!(inj.corrupt_offset(0), None, "empty images cannot rot");
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::quiet(1);
        let mut remote = plan.remote_injector();
        let mut gpu = plan.gpu_injector();
        let mut corr = plan.corruption_injector();
        let mut snap = plan.snapshot_injector();
        for i in 0..128 {
            let t = Ns::from_ms(i as f64);
            assert!(!remote.times_out(t));
            assert_eq!(gpu.on_launch(t, "k"), LaunchFault::None);
            assert_eq!(corr.flips_this_batch(), 0);
            assert_eq!(snap.corrupt_offset(1024), None);
        }
    }

    #[test]
    fn outage_windows_time_out_every_attempt() {
        let plan = FaultPlan {
            remote: RemoteFaultSpec {
                outage_period: Ns::from_ms(10.0),
                outage_duration: Ns::from_ms(1.0),
                ..RemoteFaultSpec::default()
            },
            ..FaultPlan::quiet(5)
        };
        let mut inj = plan.remote_injector();
        assert!(!inj.in_outage(Ns::from_ms(5.0)));
        assert!(inj.in_outage(Ns::from_ms(10.2)));
        for _ in 0..32 {
            assert!(inj.times_out(Ns::from_ms(10.5)));
        }
        assert!(!inj.times_out(Ns::from_ms(12.0)));
    }

    #[test]
    fn fetch_failure_rate_is_respected() {
        let plan = FaultPlan {
            remote: RemoteFaultSpec {
                fetch_failure_rate: 0.25,
                ..RemoteFaultSpec::default()
            },
            ..FaultPlan::quiet(11)
        };
        let mut inj = plan.remote_injector();
        let timeouts = (0..10_000).filter(|_| inj.times_out(Ns::ZERO)).count();
        assert!(
            (2_100..2_900).contains(&timeouts),
            "timeouts {timeouts} far from 25%"
        );
    }

    #[test]
    fn corruption_rate_above_one_flips_multiple() {
        let plan = FaultPlan {
            corruption: CorruptionSpec {
                bitflips_per_batch: 2.5,
            },
            ..FaultPlan::quiet(13)
        };
        let mut inj = plan.corruption_injector();
        let total: u32 = (0..1_000).map(|_| inj.flips_this_batch()).sum();
        assert!(
            (2_300..2_700).contains(&total),
            "expected ~2500 flips, got {total}"
        );
        for _ in 0..100 {
            let bit = inj.pick_bit();
            assert!((20..31).contains(&bit));
        }
    }
}
