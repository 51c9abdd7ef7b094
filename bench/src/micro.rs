//! Small isolated replays for the traced pass, and process facts.

use fleche_gpu::Ns;
use fleche_model::concurrent::{MicroBatcher, MicroBatcherConfig, ShardedQueue};
use fleche_workload::ArrivalGen;
use std::hint::black_box;
use std::time::Instant;

/// `(unit_fill ns/row, checksum ns/row)` at embedding dimension `dim`:
/// the SIMD fill behind every DRAM read and the FNV pass behind every
/// verified hit, replayed on 512-row batches.
pub fn simd_ns_per_row(dim: usize) -> (f64, f64) {
    const ROWS: usize = 512;
    const ROUNDS: usize = 40;
    let mut rows = vec![vec![0.0f32; dim]; ROWS];
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        for (i, row) in rows.iter_mut().enumerate() {
            fleche_simd::unit_fill(black_box((round * ROWS + i) as u64), row);
        }
    }
    let fill = t0.elapsed().as_nanos() as f64 / (ROWS * ROUNDS) as f64;
    let views: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        black_box(fleche_simd::checksum_batch(black_box(&views)));
    }
    let sum = t0.elapsed().as_nanos() as f64 / (ROWS * ROUNDS) as f64;
    (fill, sum)
}

/// Nanoseconds for one item to cross a `ShardedQueue` lane to another
/// thread and an answer to come back on a second lane.
pub fn queue_roundtrip_ns() -> f64 {
    const TRIPS: u64 = 20_000;
    let q: ShardedQueue<u64> = ShardedQueue::new(2, 1);
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(v) = q.pop(0) {
                q.push(1, v);
            }
        });
        let t0 = Instant::now();
        for i in 0..TRIPS {
            q.push(0, i);
            black_box(q.pop(1));
        }
        elapsed = t0.elapsed().as_nanos() as f64;
        q.close();
    });
    elapsed / TRIPS as f64
}

/// Nanoseconds per request for `MicroBatcher::plan` over a Poisson
/// arrival stream at `offered_load` requests per simulated second.
pub fn plan_ns_per_request(offered_load: f64, max_batch: usize) -> f64 {
    const REQUESTS: usize = 100_000;
    let mut gen = ArrivalGen::new(1, 1e9 / offered_load);
    let arrivals: Vec<(u64, Ns)> = gen
        .offsets(REQUESTS)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (i as u64, Ns(t)))
        .collect();
    let cfg = MicroBatcherConfig {
        max_batch,
        linger: Ns::from_us(400.0),
        deadline: None,
    };
    let t0 = Instant::now();
    black_box(MicroBatcher::plan(black_box(&arrivals), &cfg));
    t0.elapsed().as_nanos() as f64 / REQUESTS as f64
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line saying where the numbers were taken.
pub fn host_stamp(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = std::env::var("FLECHE_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "host: cpu=\"{cpu}\" nproc={threads} simd={} commit={commit} seed={seed}",
        fleche_simd::simd_level()
    )
}
