#!/usr/bin/env bash
# Tier-1 verification: everything must pass with no network access.
#
#   build (release)  ->  clippy on every workspace target  ->
#   panic-site ratchet  ->  full workspace test suite  ->  runs with larger test knobs  ->
#   perfbench oracles  ->  serving CLI  ->  examples  ->  bench smoke
#
# `cargo test` only compiles the examples; they are run here, since each
# reads the dictionary the way a user of the library would.
#
# The root manifest's `default-members` makes `cargo test` run every crate's
# suite; the repeated runs are the ones that set an environment knob
# (RAPIDA_CHAOS_SEEDS, RAPIDA_SERVE_ROUNDS), and the broadcast-side and
# enumerated-execution suites, named so a failure of the DFS memo's contract
# or of the chosen plan's replay is reported on its own line.
# The deleted-name guards are part of that suite (tests/deleted_names.rs).
#
# The deterministic report floors (plan choice, ExtVP, recovery, serving)
# are tests in crates/bench/tests/floors.rs, so `cargo test` checks them.
#
# The bench smoke runs the three timing benches (shuffle, scale, query) with
# one timed iteration per benchmark (RAPIDA_BENCH_SMOKE=1), which proves the
# harnesses execute end-to-end without paying for a real measurement run;
# each bench fails if one of its ids was never measured, and checks its own
# speedup floor outside smoke mode. JSON reports land in target/bench-smoke/.
#
# Two of those floors are enforced here at full size: `shuffle` (the arena
# data path >= 2x over legacy pairs) and `scale` (>= 2x busy makespan at 4
# workers). Their JSON reports land in target/bench-floors/, so the
# committed baselines at the repo root are not rewritten.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --workspace --all-targets -D warnings (every crate's library, binaries, tests, benches and examples)"
cargo clippy --offline -q --workspace --all-targets -- -D warnings

# Panic-site ratchet: the crates that do not deny panicking calls yet (core
# and mapred) may not gain one. Clippy's four panic lints run as warnings
# over library code, in a run of their own (the step above denies every
# other warning), and the sites they report in those two crates are
# counted; each crate that does deny them fails the step above instead.
# Lower the bound when a site goes; never raise it.
echo "==> panic-site ratchet (clippy unwrap_used/expect_used/panic/unreachable; core + mapred <= 58)"
PANIC_SITES_MAX=58
panic_sites=$(cargo clippy --offline -q --workspace --lib --message-format=short -- \
    -A clippy::all -W clippy::unwrap_used -W clippy::expect_used -W clippy::panic -W clippy::unreachable 2>&1 \
    | grep -cE '^crates/(core|mapred)/src/.*: warning: ' || true)
echo "    $panic_sites panic sites in core + mapred (at most $PANIC_SITES_MAX)"
if [ "$panic_sites" -gt "$PANIC_SITES_MAX" ]; then
    echo "panic-site ratchet: $panic_sites > $PANIC_SITES_MAX; return a typed error or add a local #[allow] with its invariant" >&2
    exit 1
fi

echo "==> cargo test --offline (every workspace crate)"
cargo test -q --offline

echo "==> broadcast sides (read as stored when a job runs; built once per stored copy)"
cargo test -q --offline -p rapida-core --test broadcast_sides

echo "==> enumerated execution (the chosen plan replays its dry run only where that run stands for it)"
cargo test -q --offline -p rapida-core --test enumerated_execution

echo "==> chaos smoke (4 fault seeds x worker counts, incl. corruption sweeps)"
RAPIDA_CHAOS_SEEDS=4 cargo test -q --offline -p rapida-mapred --test chaos

echo "==> plan-enumerator oracle smoke (perfbench --smoke: both enumerate_best winners vs sparql::evaluate)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload plan_costed

echo "==> relational shuffle oracle smoke (perfbench --smoke: mg_hive vs the cross-family oracle)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload mg_hive

echo "==> NTGA oracle smoke (perfbench --smoke: mg_rapida vs the cross-family oracle)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload mg_rapida

echo "==> serving oracle smoke (perfbench --smoke: serve_fit, planned through PlanRules::hive_mqo)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload serve_fit

echo "==> serving smoke (batched-MQO identity + replay ledger + golden ledger, small traffic)"
RAPIDA_SERVE_ROUNDS=2 RAPIDA_CHAOS_SEEDS=2 cargo test -q --offline --test serve_identity

echo "==> serving CLI smoke (2 clients, 2 batching windows, both modes)"
./target/release/rapida serve --clients 2 --duration-ms 150 --window-ms 100 --seed 7 > /dev/null
./target/release/rapida serve --mode serial --clients 2 --duration-ms 150 --window-ms 100 --seed 7 > /dev/null

echo "==> examples (each runs to completion)"
for example in examples/*.rs; do
    cargo run --release --offline --quiet --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> bench smoke (1 iteration per benchmark)"
# Absolute path: bench binaries run with cwd = crates/bench, where a
# relative RAPIDA_BENCH_DIR would silently land.
RAPIDA_BENCH_SMOKE=1 RAPIDA_BENCH_DIR="$(pwd)/target/bench-smoke" \
    cargo bench --offline -p rapida-bench

echo "==> bench floors (full size: shuffle arena >= 2x, scale >= 2x at 4 workers)"
for bench in shuffle scale; do
    RAPIDA_BENCH_DIR="$(pwd)/target/bench-floors" \
        cargo bench --offline -p rapida-bench --bench "$bench"
done

echo "==> verify OK"
