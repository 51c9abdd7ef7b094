//! A recommendation inference "server" loop comparing both cache systems
//! side by side on an Avazu-like workload: the scenario the paper's
//! introduction motivates (examine more candidates within the same SLA).
//!
//! Run with: `cargo run --release -p fleche-bench --example inference_server`

use fleche_baseline::{BaselineConfig, PerTableCacheSystem};
use fleche_chaos::{BreakerConfig, StalenessConfig};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_model::{DenseModel, InferenceEngine, ModelMode};
use fleche_store::{CpuStore, UpdateStream};
use fleche_workload::{spec, TraceGenerator, WorkloadStats};

const CACHE_FRACTION: f64 = 0.05;
const BATCH: usize = 512;
const SLA_MS: f64 = 10.0;

/// Serving batches in the online-update phase.
const UPDATE_BATCHES: usize = 48;
/// Trainer pushes staged per serving batch.
const PUSHES_PER_BATCH: usize = 96;
/// Push-channel outage window (commits still reach the version ledger,
/// so served rows fall behind and the staleness policy must react).
const OUTAGE: std::ops::Range<usize> = 14..26;

fn main() {
    let dataset = spec::avazu();
    println!(
        "serving an Avazu-like model: {} embedding tables, {:.1} MB of parameters",
        dataset.table_count(),
        dataset.total_param_bytes() as f64 / 1e6
    );
    println!(
        "cache budget: {CACHE_FRACTION:.0$}% of parameters, batch {BATCH}, SLA {SLA_MS} ms\n",
        0
    );

    // --- Baseline server ---------------------------------------------------
    let store = CpuStore::new(&dataset, DramSpec::xeon_6252());
    let baseline = PerTableCacheSystem::new(
        &dataset,
        store,
        BaselineConfig {
            cache_fraction: CACHE_FRACTION,
            ..BaselineConfig::default()
        },
    );
    let dense = DenseModel::dcn_paper(InferenceEngine::<PerTableCacheSystem>::concat_dim(&dataset));
    let mut base_engine = InferenceEngine::new(
        Gpu::new(DeviceSpec::t4()),
        baseline,
        dense,
        ModelMode::Full,
        &dataset,
    );
    let mut gen = TraceGenerator::new(&dataset);
    base_engine.warmup(&mut gen, 16, BATCH);
    let base = base_engine.measure(&mut gen, 24, BATCH);

    // --- Fleche server ------------------------------------------------------
    let store = CpuStore::new(&dataset, DramSpec::xeon_6252());
    let mut cfg = FlecheConfig::full(CACHE_FRACTION);
    cfg.breaker = Some(BreakerConfig::default());
    cfg.staleness = Some(StalenessConfig {
        max_lag: 16,
        resume_lag: 8,
    });
    let fleche = FlecheSystem::new(&dataset, store, cfg);
    let dense = DenseModel::dcn_paper(InferenceEngine::<FlecheSystem>::concat_dim(&dataset));
    let mut fleche_engine = InferenceEngine::new(
        Gpu::new(DeviceSpec::t4()),
        fleche,
        dense,
        ModelMode::Full,
        &dataset,
    );
    let mut gen = TraceGenerator::new(&dataset);
    fleche_engine.warmup(&mut gen, 16, BATCH);
    let fl = fleche_engine.measure(&mut gen, 24, BATCH);

    // --- Report -------------------------------------------------------------
    println!("{:<22} {:>14} {:>14}", "", "HugeCTR-like", "Fleche");
    println!(
        "{:<22} {:>14.0} {:>14.0}",
        "throughput (inf/s)",
        base.throughput(),
        fl.throughput()
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "median latency",
        format!("{}", base.total.median()),
        format!("{}", fl.total.median())
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "p99 latency",
        format!("{}", base.total.p99()),
        format!("{}", fl.total.p99())
    );
    println!(
        "{:<22} {:>13.1}% {:>13.1}%",
        "cache hit rate",
        base.lifetime.hit_rate() * 100.0,
        fl.lifetime.hit_rate() * 100.0
    );

    // Candidates servable within the SLA: the paper's business argument.
    let per_batch_base = base.total.median().as_ms();
    let per_batch_fleche = fl.total.median().as_ms();
    let cand_base = (SLA_MS / per_batch_base * BATCH as f64) as u64;
    let cand_fleche = (SLA_MS / per_batch_fleche * BATCH as f64) as u64;
    println!(
        "{:<22} {:>14} {:>14}",
        "candidates per SLA", cand_base, cand_fleche
    );
    println!(
        "\nwithin the same {SLA_MS} ms SLA, Fleche examines {:.1}x more candidate items",
        cand_fleche as f64 / cand_base as f64
    );

    // --- Online updates under serving --------------------------------------
    // The trainer keeps pushing fresher embedding rows while the Fleche
    // server serves; mid-phase the push channel drops out (commits still
    // land in the version ledger), so resident rows age until the
    // staleness policy degrades, demotes over-bound hits, and recovers
    // once the channel returns.
    println!("\n--- online updates under serving ---");
    println!(
        "{PUSHES_PER_BATCH} trainer pushes per batch over {UPDATE_BATCHES} batches; \
         push outage at batches {}..{}\n",
        OUTAGE.start, OUTAGE.end
    );
    let mut stream = UpdateStream::new(&dataset, 0x5EED_CAFE);
    let mut hot_stats = WorkloadStats::new();
    let mut was_degraded = false;
    for b in 0..UPDATE_BATCHES {
        let batch = gen.next_batch(BATCH);
        hot_stats.observe(&batch);
        // Trainers re-embed the keys serving traffic actually touches, so
        // bias pushes toward the observed hot set — that is what creates
        // served staleness when the push channel drops.
        let hot = hot_stats.update_candidates(512, 2);
        let pushes = if hot.is_empty() {
            stream.next_burst(PUSHES_PER_BATCH)
        } else {
            stream.next_burst_from(&hot, PUSHES_PER_BATCH)
        };
        let outage = OUTAGE.contains(&b);
        {
            let (sys, gpu) = fleche_engine.system_and_gpu_mut();
            sys.commit_updates(gpu, &pushes);
            if !outage {
                sys.push_updates(gpu, &pushes);
            }
        }
        if b == OUTAGE.start {
            println!("  batch {b:>2}: push channel lost (ledger keeps committing)");
        }
        fleche_engine.run_batch(&batch);
        let degraded = fleche_engine
            .system()
            .updates()
            .policy()
            .is_some_and(|p| p.degraded());
        if degraded != was_degraded {
            if degraded {
                println!("  batch {b:>2}: staleness policy DEGRADED (served lag over bound)");
            } else {
                println!("  batch {b:>2}: staleness policy recovered (lag back under resume)");
            }
            was_degraded = degraded;
        }
        if b + 1 == OUTAGE.end {
            println!("  batch {b:>2}: push channel restored, catching up");
        }
    }

    let st = fleche_engine.system().staleness_stats();
    let pol = fleche_engine
        .system()
        .updates()
        .policy()
        .expect("staleness policy configured above");
    println!("\n{:<28} {:>12}", "staleness stats", "value");
    println!(
        "{:<28} {:>12.2}",
        "mean served lag (versions)",
        st.mean_lag()
    );
    println!("{:<28} {:>12}", "max raw lag", st.max_lag);
    println!("{:<28} {:>12}", "stale serves", st.stale_serves);
    println!("{:<28} {:>12}", "demoted over-bound hits", st.demoted);
    println!("{:<28} {:>12}", "refresh pushes", st.refreshes);
    println!("{:<28} {:>12}", "degraded batches", st.degraded_batches);
    println!("{:<28} {:>12}", "updates applied", st.updates_applied);
    println!("{:<28} {:>12}", "updates superseded", st.updates_superseded);
    println!("{:<28} {:>12}", "updates absent", st.updates_absent);
    println!(
        "{:<28} {:>12}",
        "policy entries / exits",
        format!("{} / {}", pol.entries(), pol.exits())
    );
    println!(
        "{:<28} {:>12}",
        "pending pushes at end",
        fleche_engine.system().updates().pending_len()
    );
    if let Some(br) = fleche_engine.system().breaker() {
        let t = br.transitions_at(fleche_engine.gpu().now());
        println!(
            "{:<28} {:>12}",
            "gpu-path breaker opens",
            format!("{} (closed {})", t.opened, t.closed)
        );
    }
    println!(
        "\nledger is at {} commits; the policy degraded during the outage, demoted \
         over-bound hits to fresh serves, and exited once caught up",
        fleche_engine.system().updates().ledger().commits()
    );
}
