//! Overload drill: flash crowds, diurnal rotation, sustained overload.
//!
//! Three deterministic drills over the multi-tenant admission-control
//! layer (token-bucket quotas, over-quota-first shedding, bounded-queue
//! backpressure, the adaptive SLO controller, and per-tenant cache
//! partitioning):
//!
//! * **Drill A — flash-crowd isolation.** Two tenants share one
//!   [`FlecheSystem`] with per-tenant cache quotas. A quiet baseline run
//!   measures each tenant's p99 and hit rate; then an identical run adds
//!   a [`FlashCrowdSpec`] on tenant 0 — its offered rate multiplies and a
//!   fraction of its draws concentrate on a crowd of previously-cold
//!   keys. Admission quotas shed the crowd's over-quota surge and the
//!   cache partition stops it from evicting tenant 1's working set, so
//!   the innocent tenant's p99 must stay within **1.5×** its quiet
//!   baseline and its hit rate within **5 points**.
//! * **Drill B — diurnal rotation.** A single serving loop runs a trace
//!   whose popularity rotates through distinct phases on a fixed cadence
//!   ([`DiurnalSpec`]). At each rotation the resident hot set goes cold;
//!   the drill measures the **adaptation time** — batches until the
//!   rolling hit rate recovers to 98% of the pre-rotation steady state —
//!   and requires every rotation to recover before the next one lands.
//! * **Drill C — sustained overload.** Both tenants offer far more than
//!   the engine can serve. The run must stay bounded: the shared queue
//!   never exceeds its configured bound, every request is served or shed
//!   exactly once, the per-interval shed rate converges instead of
//!   climbing, and the adaptive controller observes the SLO violation
//!   and tightens admission.
//!
//! Every schedule derives from the fixed workload seeds and all timing is
//! simulated, so two runs print byte-identical output — CI diffs them. A
//! machine-readable summary is written to `results/BENCH_overload.json`.
//!
//! Run: `cargo run --release -p fleche-bench -- overload_drill [--quick] [--analyze]`
//!
//! `--analyze` arms the happens-before race checker on every GPU, failing
//! the run (exit 1) on any unordered conflicting pair.

use std::process::ExitCode;

use crate::drill::{batches_to_recover, Drill, RacesFound};
use crate::{fmt_ns, xeon_store, Args, Engine, JsonEmitter, TextTable};
use fleche_chaos::FlashCrowdSpec;
use fleche_core::{FlecheConfig, FlecheSystem, TenantCacheStats};
use fleche_gpu::Ns;
use fleche_model::{
    serve_multi_tenant, DenseModel, InferenceEngine, ModelMode, MultiTenantConfig, MultiTenantRun,
};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_workload::{spec, DatasetSpec, DiurnalSpec, TraceDynamics, TraceGenerator};

const TENANTS: usize = 2;
/// HBM cache share each tenant may occupy (the rest is headroom).
const CACHE_QUOTAS: [f64; TENANTS] = [0.45, 0.45];
/// Per-tenant offered load outside any crowd window (requests/s).
const QUIET_LOAD: f64 = 400_000.0;
/// Rolling window (batches) for drill-B recovery detection.
const ROLL: usize = 4;

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

// ---------------------------------------------------------------------
// Drill A: a flash crowd on tenant 0 must not hurt tenant 1.
// ---------------------------------------------------------------------

struct FlashCrowdReport {
    base: MultiTenantRun,
    crowd: MultiTenantRun,
    cache: Vec<TenantCacheStats>,
    p99_ratio: f64,
    hit_delta: f64,
}

fn drill_a_config(requests: usize) -> MultiTenantConfig {
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
    cfg
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

fn drill_flash_crowd(d: &Drill) -> Result<FlashCrowdReport, RacesFound> {
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
    let cfg = drill_a_config(requests);
    let (mut engine, mut gens) =
        build_mt(d, &ds, [TraceDynamics::none(), TraceDynamics::none()]);
    let base = serve_multi_tenant(&mut engine, &mut gens, &cfg);
    d.check_races(engine.gpu(), "drill A baseline")?;

    // Crowd run: identical config plus the flash crowd on tenant 0 — a
    // rate spike on its arrival stream and key churn on its trace.
    let mut crowd_cfg = drill_a_config(requests);
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
    let cache = (0..TENANTS)
        .map(|t| engine.system().tenant_cache_stats(t))
        .collect();

    let p99_ratio =
        run.tenants[1].latency.p99().as_ns() / base.tenants[1].latency.p99().as_ns().max(1.0);
    let hit_delta = (run.tenants[1].hit_rate() - base.tenants[1].hit_rate()).abs();
    Ok(FlashCrowdReport {
        base,
        crowd: run,
        cache,
        p99_ratio,
        hit_delta,
    })
}

// ---------------------------------------------------------------------
// Drill B: diurnal popularity rotation and hit-rate adaptation time.
// ---------------------------------------------------------------------

struct Rotation {
    batch: u64,
    phase: u64,
    steady: f64,
    dip: f64,
    /// Batches from the rotation until the rolling hit rate recovered to
    /// 98% of `steady` (`None` = not before the next rotation).
    adaptation: Option<u64>,
}

struct DiurnalReport {
    period: u64,
    phases: u64,
    batches: u64,
    mean_hit: f64,
    rotations: Vec<Rotation>,
}

fn drill_diurnal(d: &Drill) -> Result<DiurnalReport, RacesFound> {
    let ds: DatasetSpec = spec::synthetic(6, 8_000, 16, -1.2);
    let batch_size: usize = 256;
    let warm_batches: u64 = 24;
    let (batches, period): (u64, u64) = if d.args.quick {
        (120, 10_000)
    } else {
        (240, 15_000)
    };
    let phases: u64 = if d.args.quick { 3 } else { 4 };
    let diurnal = DiurnalSpec { period, phases };

    let mut sys = FlecheSystem::new(&ds, xeon_store(&ds), FlecheConfig::full(0.05));
    let mut gpu = d.gpu();
    let mut gen = TraceGenerator::with_dynamics(
        &ds,
        TraceDynamics {
            diurnal: Some(diurnal),
            ..TraceDynamics::none()
        },
    );

    for _ in 0..warm_batches {
        let b = gen.next_batch(batch_size);
        sys.query_batch(&mut gpu, &b);
    }
    sys.reset_stats();

    let warm_samples = warm_batches * batch_size as u64;
    let mut rates: Vec<f64> = Vec::new();
    for _ in 0..batches {
        let b = gen.next_batch(batch_size);
        let out = sys.query_batch(&mut gpu, &b);
        rates.push(out.stats.hit_rate());
    }
    d.check_races(&gpu, "drill B diurnal")?;

    // Rotation points: the measured batch in which each phase boundary
    // (sample index k * period) lands.
    let mut rotation_batches: Vec<(u64, u64)> = Vec::new();
    let mut k = 1u64;
    loop {
        let sample = k * period;
        if sample < warm_samples {
            k += 1;
            continue;
        }
        let batch = (sample - warm_samples) / batch_size as u64;
        if batch >= batches {
            break;
        }
        if batch >= 16 {
            rotation_batches.push((batch, diurnal.phase_at(sample)));
        }
        k += 1;
    }

    let mut rotations = Vec::new();
    for (i, &(r, phase)) in rotation_batches.iter().enumerate() {
        let r = r as usize;
        let steady_lo = r.saturating_sub(16);
        let steady = rates[steady_lo..r].iter().sum::<f64>() / (r - steady_lo) as f64;
        let next = rotation_batches
            .get(i + 1)
            .map(|&(b, _)| b as usize)
            .unwrap_or(batches as usize);
        let dip = steady
            - rates[r..(r + 8).min(next)]
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
        rotations.push(Rotation {
            batch: r as u64,
            phase,
            steady,
            dip,
            adaptation: batches_to_recover(&rates[..next], r, ROLL, 0.98 * steady),
        });
    }

    Ok(DiurnalReport {
        period,
        phases,
        batches,
        mean_hit: rates.iter().sum::<f64>() / rates.len() as f64,
        rotations,
    })
}

// ---------------------------------------------------------------------
// Drill C: sustained overload stays bounded and converges.
// ---------------------------------------------------------------------

struct OverloadReport {
    run: MultiTenantRun,
    queue_capacity: usize,
    offered_per_tenant: f64,
    conserved: bool,
    shed_rate: f64,
    tail_spread: f64,
    tighten_entries: u64,
}

fn drill_overload(d: &Drill) -> Result<OverloadReport, RacesFound> {
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
    cfg.controller.observe_every = 4;
    cfg.controller_min_samples = 16;
    for t in &mut cfg.tenants {
        t.quota = 600_000.0;
        t.quota_burst = 64.0;
        // An SLO the overloaded tail cannot meet: the controller must
        // observe the violation and tighten admission.
        t.slo_p99 = Ns::from_us(150.0);
    }

    let (mut engine, mut gens) =
        build_mt(d, &ds, [TraceDynamics::none(), TraceDynamics::none()]);
    let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
    d.check_races(engine.gpu(), "drill C overload")?;

    let conserved = run
        .tenants
        .iter()
        .all(|t| t.served + t.shed_quota + t.shed_queue + t.shed_deadline == t.offered);
    let shed_rate = (run.offered() - run.served()) as f64 / run.offered() as f64;
    let rates: Vec<f64> = run.intervals.iter().map(|iv| iv.rate()).collect();
    let tail = &rates[rates.len() / 2..];
    let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    let tighten_entries = run.tenants.iter().map(|t| t.tighten_entries).sum();
    Ok(OverloadReport {
        queue_capacity: cfg.queue_capacity,
        offered_per_tenant: offered,
        conserved,
        shed_rate,
        tail_spread: hi - lo,
        tighten_entries,
        run,
    })
}

// ---------------------------------------------------------------------

fn tenant_rows(table: &mut TextTable, label: &str, run: &MultiTenantRun) {
    for (t, r) in run.tenants.iter().enumerate() {
        table.row(&[
            format!("{label} t{t}"),
            format!("{}", r.offered),
            format!("{}", r.served),
            format!("{}", r.shed_quota),
            format!("{}", r.shed_queue),
            format!("{}", r.shed_deadline),
            format!("{:.2}%", r.hit_rate() * 100.0),
            fmt_ns(r.latency.p99()),
        ]);
    }
}

fn emit_tenant_json(j: &mut JsonEmitter, run: &MultiTenantRun) {
    j.begin_arr("tenants");
    for r in &run.tenants {
        j.begin_elem();
        j.field_u64("offered", r.offered);
        j.field_u64("served", r.served);
        j.field_u64("over_quota", r.over_quota);
        j.field_u64("shed_quota", r.shed_quota);
        j.field_u64("shed_queue", r.shed_queue);
        j.field_u64("shed_deadline", r.shed_deadline);
        j.field_f64("hit_rate", r.hit_rate());
        j.field_f64("p99_ns", r.latency.p99().as_ns());
        j.field_u64("tighten_entries", r.tighten_entries);
        j.field_u64("tighten_exits", r.tighten_exits);
        j.end_obj();
    }
    j.end_arr();
    j.field_u64("batches", run.batches);
    j.field_u64("max_queue_depth", run.max_queue_depth as u64);
}

fn emit_json(j: &mut JsonEmitter, a: &FlashCrowdReport, b: &DiurnalReport, c: &OverloadReport) {
    j.begin_obj("drill_a");
    j.begin_obj("baseline");
    emit_tenant_json(j, &a.base);
    j.end_obj();
    j.begin_obj("flash_crowd");
    emit_tenant_json(j, &a.crowd);
    j.end_obj();
    j.begin_arr("cache_partitions");
    for s in &a.cache {
        j.begin_elem();
        j.field_u64("occupancy_bytes", s.occupancy_bytes);
        j.field_u64("quota_bytes", s.quota_bytes);
        j.field_u64("denied", s.denied);
        j.field_u64("evictions", s.evictions);
        j.end_obj();
    }
    j.end_arr();
    j.field_f64("innocent_p99_ratio", a.p99_ratio);
    j.field_f64("innocent_hit_delta", a.hit_delta);
    j.end_obj();

    j.begin_obj("drill_b");
    j.field_u64("period_samples", b.period);
    j.field_u64("phases", b.phases);
    j.field_u64("batches", b.batches);
    j.field_f64("mean_hit_rate", b.mean_hit);
    j.begin_arr("rotations");
    for r in &b.rotations {
        j.begin_elem();
        j.field_u64("batch", r.batch);
        j.field_u64("phase", r.phase);
        j.field_f64("steady_hit_rate", r.steady);
        j.field_f64("dip", r.dip);
        match r.adaptation {
            Some(n) => j.field_u64("adaptation_batches", n),
            None => j.field_str("adaptation_batches", "not reached"),
        }
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();

    j.begin_obj("drill_c");
    j.field_f64("offered_per_tenant", c.offered_per_tenant);
    j.field_u64("queue_capacity", c.queue_capacity as u64);
    emit_tenant_json(j, &c.run);
    j.field_bool("conserved", c.conserved);
    j.field_f64("shed_rate", c.shed_rate);
    j.field_f64("tail_spread", c.tail_spread);
    j.field_u64("tighten_entries", c.tighten_entries);
    j.begin_arr("interval_shed_rates");
    for iv in &c.run.intervals {
        j.begin_elem();
        j.field_u64("offered", iv.offered);
        j.field_u64("shed", iv.shed);
        j.field_f64("rate", iv.rate());
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let mut d = Drill::start(
        args,
        "Overload drill: flash-crowd isolation, diurnal adaptation, bounded overload",
    );

    // ---- Drill A --------------------------------------------------------
    let Ok(a) = drill_flash_crowd(&d) else {
        return ExitCode::FAILURE;
    };
    println!("drill A: flash crowd on tenant 0 (8x rate, 60% of draws on 256 cold keys) with");
    println!(
        "per-tenant admission quotas and cache partitions ({}% / {}% of HBM)",
        (CACHE_QUOTAS[0] * 100.0) as u64,
        (CACHE_QUOTAS[1] * 100.0) as u64
    );
    let header = [
        "run",
        "offered",
        "served",
        "shed quota",
        "shed queue",
        "shed deadline",
        "hit rate",
        "p99",
    ];
    let mut ta = TextTable::new(&header);
    tenant_rows(&mut ta, "baseline", &a.base);
    tenant_rows(&mut ta, "crowd", &a.crowd);
    println!("{}", ta.render());
    for (t, s) in a.cache.iter().enumerate() {
        println!(
            "  cache partition t{t}: {} / {} bytes resident, {} admissions denied, {} evictions",
            s.occupancy_bytes, s.quota_bytes, s.denied, s.evictions
        );
    }
    println!(
        "  innocent tenant 1: p99 ratio {:.3} (bound 1.5), hit-rate delta {:.2} points (bound 5)",
        a.p99_ratio,
        a.hit_delta * 100.0
    );
    println!();

    // ---- Drill B --------------------------------------------------------
    let Ok(b) = drill_diurnal(&d) else {
        return ExitCode::FAILURE;
    };
    println!(
        "drill B: popularity rotates every {} samples through {} phases over {} batches",
        b.period, b.phases, b.batches
    );
    let mut tb = TextTable::new(&["rotation batch", "phase", "steady hit", "dip", "adaptation"]);
    for r in &b.rotations {
        tb.row(&[
            format!("{}", r.batch),
            format!("{}", r.phase),
            format!("{:.2}%", r.steady * 100.0),
            format!("{:.2}pt", r.dip * 100.0),
            match r.adaptation {
                Some(n) => format!("{n} batches"),
                None => "NOT REACHED".to_string(),
            },
        ]);
    }
    println!("{}", tb.render());
    let adapted: Vec<u64> = b.rotations.iter().filter_map(|r| r.adaptation).collect();
    let mean_adaptation = if adapted.is_empty() {
        0.0
    } else {
        adapted.iter().sum::<u64>() as f64 / adapted.len() as f64
    };
    println!(
        "  mean hit rate {:.2}%, mean adaptation {:.1} batches over {} rotations",
        b.mean_hit * 100.0,
        mean_adaptation,
        b.rotations.len()
    );
    println!();

    // ---- Drill C --------------------------------------------------------
    let Ok(c) = drill_overload(&d) else {
        return ExitCode::FAILURE;
    };
    println!(
        "drill C: both tenants offer {:.1}M req/s against a {} req quota each (queue bound {})",
        c.offered_per_tenant / 1e6,
        600_000,
        c.queue_capacity
    );
    let mut tc = TextTable::new(&header);
    tenant_rows(&mut tc, "overload", &c.run);
    println!("{}", tc.render());
    let rates: Vec<String> = c
        .run
        .intervals
        .iter()
        .map(|iv| format!("{:.2}", iv.rate()))
        .collect();
    println!("  interval shed rates: [{}]", rates.join(", "));
    println!(
        "  max queue depth {} / {}, aggregate shed rate {:.2}, tail spread {:.3}, {} controller tightenings",
        c.run.max_queue_depth, c.queue_capacity, c.shed_rate, c.tail_spread, c.tighten_entries
    );
    println!();

    // ---- Acceptance -----------------------------------------------------
    let crowd_landed = a.crowd.tenants[0].over_quota > 0 && a.crowd.tenants[0].shed_quota > 0;
    let a_ok = crowd_landed && a.p99_ratio <= 1.5 && a.hit_delta <= 0.05;
    d.accept(
        "a",
        a_ok,
        &format!(
            "flash crowd shed {} over-quota requests; tenant 1 p99 ratio {:.3} <= 1.5, \
             hit-rate delta {:.2}pt <= 5",
            a.crowd.tenants[0].shed_quota,
            a.p99_ratio,
            a.hit_delta * 100.0,
        ),
    );
    let b_ok = b.rotations.len() >= 2 && b.rotations.iter().all(|r| r.adaptation.is_some());
    d.accept(
        "b",
        b_ok,
        &format!(
            "{} rotations, all recovered to 98% of steady before the next",
            b.rotations.len()
        ),
    );
    let c_ok = c.conserved
        && c.run.max_queue_depth <= c.queue_capacity
        && c.shed_rate >= 0.5
        && c.tail_spread < 0.2
        && c.tighten_entries >= 1;
    d.accept(
        "c",
        c_ok,
        &format!(
            "conservation {}, queue bounded {} <= {}, shed rate {:.2} >= 0.5 (>= 2x \
             capacity), tail spread {:.3} < 0.2, controller engaged {} time(s)",
            if c.conserved { "holds" } else { "BROKEN" },
            c.run.max_queue_depth,
            c.queue_capacity,
            c.shed_rate,
            c.tail_spread,
            c.tighten_entries,
        ),
    );
    println!();

    let mut j = d.report();
    emit_json(&mut j, &a, &b, &c);
    d.finish("BENCH_overload.json", j, Some((EXPECTED, "all drills")))
}

const EXPECTED: &str = "\
per-tenant token buckets mark the flash crowd's surge over-quota and
shed it first, while the cache partition stops the crowd's cold keys from
evicting the innocent tenant's working set — its tail latency and hit rate hold
near the quiet baseline; a diurnal popularity rotation costs a bounded dip that
the cache re-adapts out of well before the next phase; and sustained 2x-capacity
load is shed at a converging rate behind a hard queue bound while the adaptive
controller tightens admission on the violated SLO.";
