#!/usr/bin/env bash
# The benchmark's one command. Builds bench/ in release and then:
#
#   bench/run.sh                      every workload, untraced pass then traced pass
#   bench/run.sh --smoke              the same at 1 s per pass with a quarter of the warm-up (<= 20 s, for CI)
#   bench/run.sh --workload <name> [--seed n] [--seconds s] [--trace 0|1]
#                                     one pass of one workload (what BENCHMARK.json runs)
#   bench/run.sh --emit-benchmark-json
#
# The last line of each pass is its result as one JSON object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --target-dir "$target" >&2
bin="$target/release/fleche-e2e"
export FLECHE_BENCH_COMMIT="${FLECHE_BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

case "${1:-}" in
"" | --smoke)
    seconds=()
    [ "${1:-}" = --smoke ] && seconds=(--smoke --seconds 1)
    for workload in kaggle_hit tb_miss kaggle_update avazu_serve; do
        for trace in 0 1; do
            "$bin" --workload "$workload" --trace "$trace" "${seconds[@]}"
        done
    done
    ;;
*)
    exec "$bin" "$@"
    ;;
esac
