//! Ablation: how the paper's static frequency "Optimal" relates to the
//! dynamic Belady bound and to what the real systems achieve. The static
//! oracle pays no compulsory misses (it is preloaded); Belady starts cold
//! but replaces perfectly.
//!
//! Run: `cargo run --release -p fleche-bench -- ablation_oracle [--quick]`

use crate::{build_engine, print_header, Args, SystemKind, TextTable};
use fleche_model::ModelMode;
use fleche_workload::{
    analytic_optimal_hit_rate, belady_hit_rate, FrequencyCensus, TraceGenerator,
};

pub(crate) fn main(args: &Args) {
    print_header("Ablation: Optimal (analytic) vs census vs Belady vs real systems");
    let (batches, batch) = if args.quick { (40, 256) } else { (120, 512) };
    let ds = fleche_workload::spec::avazu();
    let mut t = TextTable::new(&[
        "cache",
        "analytic Opt",
        "census Opt",
        "Belady",
        "Fleche",
        "HugeCTR",
    ]);
    for fraction in [0.20, 0.10, 0.05] {
        let budget = ds.cache_bytes(fraction);
        let analytic = analytic_optimal_hit_rate(&ds, budget);

        let mut gen = TraceGenerator::new(&ds);
        let mut census = FrequencyCensus::new();
        let mut accesses = Vec::new();
        for _ in 0..batches {
            let b = gen.next_batch(batch);
            accesses.extend(b.iter_accesses());
            census.observe(&b);
        }
        let dims: Vec<u32> = ds.tables.iter().map(|x| x.dim).collect();
        let census_opt = census.optimal_hit_rate(budget, |tb| dims[tb as usize]);
        let slots = (budget / (32 * 4)) as usize;
        let belady = belady_hit_rate(&accesses, slots);

        let measured = |kind| {
            let mut eng = build_engine(kind, &ds, fraction, ModelMode::EmbeddingOnly, 2);
            let mut gen = TraceGenerator::new(&ds);
            eng.warmup(&mut gen, batches * 2 / 3, batch);
            eng.measure(&mut gen, batches / 3, batch)
                .lifetime
                .hit_rate()
        };
        t.row(&[
            format!("{:.0}%", fraction * 100.0),
            format!("{:.1}%", analytic * 100.0),
            format!("{:.1}%", census_opt * 100.0),
            format!("{:.1}%", belady * 100.0),
            format!("{:.1}%", measured(SystemKind::FlecheNoUnified) * 100.0),
            format!("{:.1}%", measured(SystemKind::Baseline) * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("expected ordering: analytic >= census (finite windows flatter the");
    println!("oracle), Belady below the preloaded oracles by its compulsory misses,");
    println!("Fleche between Belady and HugeCTR.");
}
