#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, fully offline.
#
#   scripts/check.sh          # build + tests (+ fmt/clippy when installed)
#   scripts/check.sh --perf   # also run the perf_pipeline regression gate
#
# fmt and clippy are skipped with a notice when the components are not
# installed (minimal toolchains); the build and test gates always run.
set -euo pipefail
cd "$(dirname "$0")/.."

run_perf=false
for arg in "$@"; do
    case "$arg" in
        --perf) run_perf=true ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo build --workspace --offline"
cargo build --workspace --offline

echo "==> cargo test --workspace --offline"
cargo test --workspace --offline --quiet

# The benchmark is a workspace of its own that drives the crates through
# their public API; no other step compiles it.
echo "==> cargo test --manifest-path benchmark/Cargo.toml --offline"
cargo test --manifest-path benchmark/Cargo.toml --offline --quiet

# The retained reference implementations live in hetero-oracles. Only the
# experiment harness may link them; every other crate takes them as a
# dev-dependency at most.
echo "==> oracle boundary (hetero-oracles in no production crate's normal dependency tree)"
for crate in hetero-sched multicore-sim hetero-core hetero-engine hetero-telemetry tinyann \
    cache-sim energy-model workloads hetero-parallel; do
    tree="$(cargo tree -e normal --offline -p "$crate")"
    if grep -q "hetero-oracles" <<<"$tree"; then
        echo "error: $crate depends on hetero-oracles outside its dev-dependencies" >&2
        exit 1
    fi
done

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "==> cargo fmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

# Broken, ambiguous or private intra-doc links are rustdoc warnings; a
# moved or renamed item must not leave a dead link behind.
echo "==> cargo doc -D warnings (every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> perf_pipeline --smoke (release; every stage end to end, event budgets only)"
cargo build --release --offline -p hetero-bench
./target/release/perf_pipeline --smoke

echo "==> audit --smoke (flight-recorder ledger + stall-purity audit)"
./target/release/audit --smoke

echo "==> flight_recorder example (replay reproduces the ledger, a tampered trace is rejected)"
cargo run --release --offline --quiet --example flight_recorder >/dev/null

echo "==> pinned artifacts (table1 + figure6 + figure7 + full chaos sweep regenerate byte-identically)"
# The bins write under ./results/, so run them in a scratch directory and
# compare against the committed files: any drift in the reproduced paper
# numbers or in the faulted-run ledgers fails the gate. figure7 is the
# only paper-scale artifact carrying energy-centric's stall counters.
# table1 prints to stdout only; its committed text is that stdout.
pin_tmp="$(mktemp -d)"
trap 'rm -rf "$pin_tmp"' EXIT
repo_root="$(pwd)"
(cd "$pin_tmp" && "$repo_root/target/release/figure6" 500 60000000 20190325 >/dev/null)
(cd "$pin_tmp" && "$repo_root/target/release/figure7" 5000 700000000 20190325 >/dev/null)
(cd "$pin_tmp" && "$repo_root/target/release/chaos" >/dev/null)
"$repo_root/target/release/table1" >"$pin_tmp/table1.txt"
cmp "$pin_tmp/table1.txt" results/table1.txt
cmp "$pin_tmp/results/figure6.json" results/figure6.json
cmp "$pin_tmp/results/figure7.json" results/figure7.json
cmp "$pin_tmp/results/BENCH_chaos.json" results/BENCH_chaos.json

echo "==> pinned results/*.txt (ten experiment bins' stdout at default arguments)"
# Each committed text file is its bin's stdout at default arguments; the
# bins also write under ./results/, so they run in their own scratch
# directory. The ten take about three minutes on a 2-vCPU host, ablations
# and ann_accuracy most of it. ann_accuracy pins the Sec. IV.D numbers and
# exits non-zero when the distilled student falls under 99 % best-core
# agreement with the ensemble.
mkdir -p "$pin_tmp/txt/results"
for bin in figure6 figure7 l2_extension per_benchmark replacement scaling sensitivity \
    overheads ablations ann_accuracy; do
    (cd "$pin_tmp/txt" && "$repo_root/target/release/$bin" >"$bin.txt")
    cmp "$pin_tmp/txt/$bin.txt" "results/$bin.txt"
done

echo "==> telemetry (full run; Prometheus text + per-system JSON regenerate byte-identically)"
# The full run writes under ./results/, so it runs in its own scratch
# directory. TELEMETRY_summary.json carries wall-clock span timings and
# is not compared; the other five files are deterministic.
mkdir -p "$pin_tmp/telemetry/results"
(cd "$pin_tmp/telemetry" && "$repo_root/target/release/telemetry" >/dev/null)
for artifact in prometheus.txt base.json optimal.json energy_centric.json proposed.json; do
    cmp "$pin_tmp/telemetry/results/TELEMETRY_$artifact" "results/TELEMETRY_$artifact"
done

echo "==> engine --smoke --export, then engine compare of the export against itself"
# compare finds its rows by the export's keys: a renamed key leaves it
# with no comparable systems, which exits non-zero.
engine_export="$pin_tmp/ENGINE_smoke.json"
./target/release/engine --smoke --export "$engine_export"
./target/release/engine compare "$engine_export" "$engine_export"

echo "==> engine --serve-smoke (live scrape endpoint + Perfetto round-trip)"
./target/release/engine --serve-smoke

echo "==> engine --perfetto (trace artifact schema check)"
perfetto_tmp="$(mktemp -t TRACE_perfetto.XXXXXX.json)"
trap 'rm -rf "$pin_tmp" "$perfetto_tmp"' EXIT
./target/release/engine --smoke --system proposed --jobs 1000 --perfetto "$perfetto_tmp"
test -s "$perfetto_tmp"

echo "==> scaling --smoke (many-core sweep through 64 cores, indexed loop)"
./target/release/scaling --smoke

if $run_perf; then
    echo "==> perf_pipeline gate (release)"
    ./target/release/perf_pipeline
fi

echo "All checks passed."
