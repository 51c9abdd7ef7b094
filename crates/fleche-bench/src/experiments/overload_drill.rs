//! Overload drill: flash crowds, diurnal rotation, sustained overload.
//!
//! Three deterministic drills over the multi-tenant admission-control
//! layer (token-bucket quotas, over-quota-first shedding, bounded-queue
//! backpressure, the adaptive SLO controller, and per-tenant cache
//! partitioning): a flash crowd, a diurnal rotation, sustained overload.
//!
//! Writes `results/BENCH_overload.json`. Run: `cargo run --release -p fleche-bench -- overload_drill [--quick] [--analyze]`

use std::process::ExitCode;

use crate::drill::{batches_to_recover, field_batches, serve, Drill, RacesFound, BATCH};
use crate::{fmt_ns, fmt_pct, rolling_mean, xeon_store, Args, Engine, JsonEmitter, TextTable};
use fleche_chaos::FlashCrowdSpec;
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::Ns;
use fleche_model::{
    serve_multi_tenant, DenseModel, InferenceEngine, ModelMode, MultiTenantConfig, MultiTenantRun,
};
use fleche_workload::{spec, DatasetSpec, DiurnalSpec, TraceDynamics, TraceGenerator};

const TENANTS: usize = 2;
/// HBM cache share each tenant may occupy (the rest is headroom).
const CACHE_QUOTAS: [f64; TENANTS] = [0.45, 0.45];
/// Per-tenant offered load outside any crowd window (requests/s).
const QUIET_LOAD: f64 = 400_000.0;
const HEADER: [&str; 8] = [
    "run",
    "offered",
    "served",
    "shed quota",
    "shed queue",
    "shed deadline",
    "hit rate",
    "p99",
];

fn mt_dataset() -> DatasetSpec {
    spec::synthetic(8, 5_000, 16, -1.3)
}

/// A fresh two-tenant engine with per-tenant cache partitioning, plus one
/// trace generator per tenant carrying that tenant's dynamics.
fn build_mt(
    d: &Drill,
    ds: &DatasetSpec,
    dynamics: [TraceDynamics; TENANTS],
) -> (InferenceEngine<FlecheSystem>, Vec<TraceGenerator>) {
    let mut sys = FlecheSystem::new(ds, xeon_store(ds), FlecheConfig::full(0.05));
    sys.enable_tenant_partitioning(&CACHE_QUOTAS);
    let dense = DenseModel::dcn_paper(Engine::concat_dim(ds));
    let engine = InferenceEngine::new(d.gpu(), sys, dense, ModelMode::EmbeddingOnly, ds);
    let gens = dynamics
        .into_iter()
        .map(|d| TraceGenerator::with_dynamics(ds, d))
        .collect();
    (engine, gens)
}

/// Writes each of `run`'s tenants as a row of `table` (labelled `label`)
/// and as an element of the report's `tenants` array, then the run's
/// batch count and deepest queue.
fn tenant_report(table: &mut TextTable, j: &mut JsonEmitter, label: &str, run: &MultiTenantRun) {
    j.begin_arr("tenants");
    for (t, r) in run.tenants.iter().enumerate() {
        let (hit, p99) = (r.hit_rate(), r.latency.p99());
        table.row(&[
            format!("{label} t{t}"),
            format!("{}", r.offered),
            format!("{}", r.served),
            format!("{}", r.shed_quota),
            format!("{}", r.shed_queue),
            format!("{}", r.shed_deadline),
            fmt_pct(hit),
            fmt_ns(p99),
        ]);
        j.begin_elem();
        j.field_u64("offered", r.offered);
        j.field_u64("served", r.served);
        j.field_u64("over_quota", r.over_quota);
        j.field_u64("shed_quota", r.shed_quota);
        j.field_u64("shed_queue", r.shed_queue);
        j.field_u64("shed_deadline", r.shed_deadline);
        j.field_f64("hit_rate", hit);
        j.field_f64("p99_ns", p99.as_ns());
        j.field_u64("tighten_entries", r.tighten_entries);
        j.field_u64("tighten_exits", r.tighten_exits);
        j.end_obj();
    }
    j.end_arr();
    j.field_u64("batches", run.batches);
    j.field_u64("max_queue_depth", run.max_queue_depth as u64);
}

/// Samples tenant 0's generator produces during [`serve_multi_tenant`]'s
/// warm-up (`warmup_requests.div_ceil(max_batch)` rounds of
/// `min(max_batch, 256)` samples, walked round-robin over the tenants),
/// used to offset the crowd's key-churn window from arrival time into the
/// generator's sample-index domain.
fn warmup_samples_tenant0(cfg: &MultiTenantConfig) -> u64 {
    let rounds = cfg.warmup_requests.div_ceil(cfg.max_batch);
    (rounds.div_ceil(TENANTS) * cfg.max_batch.min(256)) as u64
}

/// Drill A — flash-crowd isolation. Two tenants share one
/// [`FlecheSystem`] with per-tenant cache quotas. A quiet baseline run
/// measures each tenant's p99 and hit rate; then an identical run adds
/// a [`FlashCrowdSpec`] on tenant 0 — its offered rate multiplies and a
/// fraction of its draws concentrate on a crowd of previously-cold
/// keys. Admission quotas shed the crowd's over-quota surge and the
/// cache partition stops it from evicting tenant 1's working set, so
/// the innocent tenant's p99 must stay within **1.5×** its quiet
/// baseline and its hit rate within **5 points**.
fn drill_flash_crowd(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    let ds = mt_dataset();
    let requests: usize = if d.args.quick { 1_500 } else { 3_000 };
    let crowd = FlashCrowdSpec {
        tenant: 0,
        start: Ns::from_ms(2.0),
        duration: Ns::from_ms(2.0),
        rate_factor: 8.0,
        crowd_fraction: 0.6,
        crowd_size: 256,
        salt: 0xF1A5,
    };

    // Quiet baseline: both tenants at QUIET_LOAD, stationary traces.
    let mut cfg = MultiTenantConfig::symmetric(TENANTS, QUIET_LOAD, requests);
    cfg.warmup_requests = 2_048;
    cfg.queue_capacity = 256;
    cfg.deadline = Some(Ns::from_us(400.0));
    for t in &mut cfg.tenants {
        // Quota sits above the quiet load (no shedding at rest) but far
        // below the crowd's surge, so only the flash crowd is over-quota.
        t.quota = 500_000.0;
        t.quota_burst = 64.0;
    }
    let (mut engine, mut gens) = build_mt(d, &ds, [TraceDynamics::none(), TraceDynamics::none()]);
    let base = serve_multi_tenant(&mut engine, &mut gens, &cfg);
    d.check_races(engine.gpu(), "drill A baseline")?;

    // Crowd run: identical config plus the flash crowd on tenant 0 — a
    // rate spike on its arrival stream and key churn on its trace.
    let mut crowd_cfg = cfg.clone();
    crowd_cfg.tenants[crowd.tenant].bursts = crowd.windows();
    let mut churn = crowd.churn(QUIET_LOAD);
    churn.start += warmup_samples_tenant0(&crowd_cfg);
    let dynamics = [
        TraceDynamics {
            hot_churn: Some(churn),
            ..TraceDynamics::none()
        },
        TraceDynamics::none(),
    ];
    let (mut engine, mut gens) = build_mt(d, &ds, dynamics);
    let run = serve_multi_tenant(&mut engine, &mut gens, &crowd_cfg);
    d.check_races(engine.gpu(), "drill A flash crowd")?;

    println!("drill A: flash crowd on tenant 0 (8x rate, 60% of draws on 256 cold keys) with");
    println!(
        "per-tenant admission quotas and cache partitions ({}% / {}% of HBM)",
        (CACHE_QUOTAS[0] * 100.0) as u64,
        (CACHE_QUOTAS[1] * 100.0) as u64
    );
    let mut ta = TextTable::new(&HEADER);
    j.begin_obj("drill_a");
    j.begin_obj("baseline");
    tenant_report(&mut ta, j, "baseline", &base);
    j.end_obj();
    j.begin_obj("flash_crowd");
    tenant_report(&mut ta, j, "crowd", &run);
    j.end_obj();
    println!("{}", ta.render());
    j.begin_arr("cache_partitions");
    for t in 0..TENANTS {
        let s = engine.system().tenant_cache_stats(t);
        println!(
            "  cache partition t{t}: {} / {} bytes resident, {} admissions denied, {} evictions",
            s.occupancy_bytes, s.quota_bytes, s.denied, s.evictions
        );
        j.begin_elem();
        j.field_u64("occupancy_bytes", s.occupancy_bytes);
        j.field_u64("quota_bytes", s.quota_bytes);
        j.field_u64("denied", s.denied);
        j.field_u64("evictions", s.evictions);
        j.end_obj();
    }
    j.end_arr();
    let p99_ratio =
        run.tenants[1].latency.p99().as_ns() / base.tenants[1].latency.p99().as_ns().max(1.0);
    let hit_delta = (run.tenants[1].hit_rate() - base.tenants[1].hit_rate()).abs();
    j.field_f64("innocent_p99_ratio", p99_ratio);
    j.field_f64("innocent_hit_delta", hit_delta);
    j.end_obj();
    println!(
        "  innocent tenant 1: p99 ratio {p99_ratio:.3} (bound 1.5), hit-rate delta {:.2} points (bound 5)",
        hit_delta * 100.0
    );
    println!();

    let crowd_t0 = &run.tenants[0];
    d.accept(
        "a",
        crowd_t0.over_quota > 0 && crowd_t0.shed_quota > 0 && p99_ratio <= 1.5 && hit_delta <= 0.05,
        &format!(
            "flash crowd shed {} over-quota requests; tenant 1 p99 ratio {p99_ratio:.3} <= 1.5, \
             hit-rate delta {:.2}pt <= 5",
            crowd_t0.shed_quota,
            hit_delta * 100.0,
        ),
    );
    Ok(())
}

/// Drill B — diurnal rotation. A single serving loop runs a trace
/// whose popularity rotates through distinct phases on a fixed cadence
/// ([`DiurnalSpec`]). At each rotation the resident hot set goes cold;
/// the drill measures the **adaptation time** — batches until the
/// rolling hit rate recovers to 98% of the pre-rotation steady state —
/// and requires every rotation to recover before the next one lands.
fn drill_diurnal(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    let ds = spec::synthetic(6, 8_000, 16, -1.2);
    let warm_batches: u64 = 24;
    let (batches, period, phases): (u64, u64, u64) = if d.args.quick {
        (120, 10_000, 3)
    } else {
        (240, 15_000, 4)
    };
    let diurnal = DiurnalSpec { period, phases };

    let mut s = d.single(FlecheSystem::new(
        &ds,
        xeon_store(&ds),
        FlecheConfig::full(0.05),
    ));
    let mut gen = TraceGenerator::with_dynamics(
        &ds,
        TraceDynamics {
            diurnal: Some(diurnal),
            ..TraceDynamics::none()
        },
    );
    s.warm_up(&mut gen, warm_batches);
    let log = serve(&mut s, &mut gen, batches, |_, _, _| {});
    d.check_races(&s.gpu, "drill B diurnal")?;
    let rates = &log.rates;

    // Rotation points: the measured batch in which each phase boundary
    // (sample index k * period) lands, once 16 batches of steady state
    // precede it.
    let warm_samples = warm_batches * BATCH as u64;
    let rotation_batches: Vec<(u64, u64)> = (1..)
        .map(|k| k * period)
        .filter(|&sample| sample >= warm_samples)
        .map(|sample| {
            (
                (sample - warm_samples) / BATCH as u64,
                diurnal.phase_at(sample),
            )
        })
        .take_while(|&(batch, _)| batch < batches)
        .filter(|&(batch, _)| batch >= 16)
        .collect();

    println!("drill B: popularity rotates every {period} samples through {phases} phases over {batches} batches");
    j.begin_obj("drill_b");
    j.field_u64("period_samples", period);
    j.field_u64("phases", phases);
    j.field_u64("batches", batches);
    j.field_f64("mean_hit_rate", log.mean_hit());
    let mut tb = TextTable::new(&["rotation batch", "phase", "steady hit", "dip", "adaptation"]);
    let mut adapted: Vec<u64> = Vec::new();
    j.begin_arr("rotations");
    for (i, &(r, phase)) in rotation_batches.iter().enumerate() {
        let r = r as usize;
        let steady = rolling_mean(&rates[..r], 16);
        let next = rotation_batches
            .get(i + 1)
            .map(|&(b, _)| b as usize)
            .unwrap_or(batches as usize);
        let dip = steady
            - rates[r..(r + 8).min(next)]
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
        // Batches from the rotation until the rolling hit rate recovered
        // to 98% of `steady`, before the next rotation.
        let adaptation = batches_to_recover(&rates[..next], r, 0.98 * steady);
        adapted.extend(adaptation);
        tb.row(&[
            format!("{r}"),
            format!("{phase}"),
            fmt_pct(steady),
            format!("{:.2}pt", dip * 100.0),
            adaptation.map_or("NOT REACHED".to_string(), |n| format!("{n} batches")),
        ]);
        j.begin_elem();
        j.field_u64("batch", r as u64);
        j.field_u64("phase", phase);
        j.field_f64("steady_hit_rate", steady);
        j.field_f64("dip", dip);
        field_batches(j, "adaptation_batches", adaptation);
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    println!("{}", tb.render());
    let mean_adaptation = if adapted.is_empty() {
        0.0
    } else {
        adapted.iter().sum::<u64>() as f64 / adapted.len() as f64
    };
    let rotations = rotation_batches.len();
    println!(
        "  mean hit rate {}, mean adaptation {mean_adaptation:.1} batches over {rotations} rotations",
        fmt_pct(log.mean_hit()),
    );
    println!();

    d.accept(
        "b",
        rotations >= 2 && adapted.len() == rotations,
        &format!("{rotations} rotations, all recovered to 98% of steady before the next"),
    );
    Ok(())
}

/// Drill C — sustained overload. Both tenants offer far more than
/// the engine can serve. The run must stay bounded: the shared queue
/// never exceeds its configured bound, every request is served or shed
/// exactly once, the per-interval shed rate converges instead of
/// climbing, and the adaptive controller observes the SLO violation
/// and tightens admission.
fn drill_overload(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    let ds = mt_dataset();
    let requests: usize = if d.args.quick { 2_500 } else { 5_000 };
    let offered: f64 = 4_000_000.0;
    let mut cfg = MultiTenantConfig::symmetric(TENANTS, offered, requests);
    cfg.warmup_requests = 2_048;
    // Small batches keep the shed cadence fine-grained: a 256-deep drain
    // would empty the whole queue at once and make the per-interval shed
    // accounting lumpy.
    cfg.max_batch = 64;
    cfg.queue_capacity = 128;
    cfg.deadline = Some(Ns::from_us(500.0));
    cfg.controller_observe_every = 4;
    cfg.controller_min_samples = 16;
    for t in &mut cfg.tenants {
        t.quota = 600_000.0;
        t.quota_burst = 64.0;
        // An SLO the overloaded tail cannot meet: the controller must
        // observe the violation and tighten admission.
        t.slo_p99 = Ns::from_us(150.0);
    }

    let (mut engine, mut gens) = build_mt(d, &ds, [TraceDynamics::none(), TraceDynamics::none()]);
    let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
    d.check_races(engine.gpu(), "drill C overload")?;

    let capacity = cfg.queue_capacity;
    let conserved = run
        .tenants
        .iter()
        .all(|t| t.served + t.shed_quota + t.shed_queue + t.shed_deadline == t.offered);
    let shed_rate = (run.offered() - run.served()) as f64 / run.offered() as f64;
    let rates: Vec<f64> = run.intervals.iter().map(|iv| iv.rate()).collect();
    let tail = &rates[rates.len() / 2..];
    let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    let tail_spread = hi - lo;
    let tightenings: u64 = run.tenants.iter().map(|t| t.tighten_entries).sum();
    let depth = run.max_queue_depth;

    println!(
        "drill C: both tenants offer {:.1}M req/s against a {} req quota each (queue bound {capacity})",
        offered / 1e6,
        cfg.tenants[0].quota,
    );
    let mut tc = TextTable::new(&HEADER);
    j.begin_obj("drill_c");
    j.field_f64("offered_per_tenant", offered);
    j.field_u64("queue_capacity", capacity as u64);
    tenant_report(&mut tc, j, "overload", &run);
    j.field_bool("conserved", conserved);
    j.field_f64("shed_rate", shed_rate);
    j.field_f64("tail_spread", tail_spread);
    j.field_u64("tighten_entries", tightenings);
    j.begin_arr("interval_shed_rates");
    for iv in &run.intervals {
        j.begin_elem();
        j.field_u64("offered", iv.offered);
        j.field_u64("shed", iv.shed);
        j.field_f64("rate", iv.rate());
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    println!("{}", tc.render());
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.2}")).collect();
    println!("  interval shed rates: [{}]", shown.join(", "));
    println!(
        "  max queue depth {depth} / {capacity}, aggregate shed rate {shed_rate:.2}, tail spread {tail_spread:.3}, {tightenings} controller tightenings"
    );
    println!();

    let c_ok =
        conserved && depth <= capacity && shed_rate >= 0.5 && tail_spread < 0.2 && tightenings >= 1;
    d.accept(
        "c",
        c_ok,
        &format!(
            "conservation {}, queue bounded {depth} <= {capacity}, shed rate {shed_rate:.2} >= 0.5 (>= 2x \
             capacity), tail spread {tail_spread:.3} < 0.2, controller engaged {tightenings} time(s)",
            if conserved { "holds" } else { "BROKEN" },
        ),
    );
    Ok(())
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let title = "Overload drill: flash-crowd isolation, diurnal adaptation, bounded overload";
    Drill::run(
        args,
        title,
        "BENCH_overload.json",
        Some((EXPECTED, "all drills")),
        true,
        |d, j| {
            drill_flash_crowd(d, j)?;
            drill_diurnal(d, j)?;
            drill_overload(d, j)
        },
    )
}

const EXPECTED: &str = "\
per-tenant token buckets mark the flash crowd's surge over-quota and
shed it first, while the cache partition stops the crowd's cold keys from
evicting the innocent tenant's working set — its tail latency and hit rate hold
near the quiet baseline; a diurnal popularity rotation costs a bounded dip that
the cache re-adapts out of well before the next phase; and sustained 2x-capacity
load is shed at a converging rate behind a hard queue bound while the adaptive
controller tightens admission on the violated SLO.";
