#!/usr/bin/env bash
# Tier-1 verification: everything must pass with no network access.
#
#   build (release)  ->  full workspace test suite  ->  runs with larger
#   test knobs  ->  perfbench oracles  ->  bench smoke
#
# The root manifest's `default-members` makes `cargo test` run every crate's
# suite, so no test is re-run here by name; the only repeated runs are the
# ones that set an environment knob (RAPIDA_CHAOS_SEEDS, RAPIDA_SERVE_ROUNDS).
# The deleted-name guards are part of that suite (tests/deleted_names.rs).
#
# The bench smoke runs every bench target with one timed iteration per
# benchmark (RAPIDA_BENCH_SMOKE=1), which proves the harnesses execute
# end-to-end without paying for a real measurement run. JSON reports land
# in target/bench-smoke/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test --offline (every workspace crate)"
cargo test -q --offline

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

echo "==> bench smoke (1 iteration per benchmark)"
# Absolute path: bench binaries run with cwd = crates/bench, where a
# relative RAPIDA_BENCH_DIR would silently land.
RAPIDA_BENCH_SMOKE=1 RAPIDA_BENCH_DIR="$(pwd)/target/bench-smoke" \
    cargo bench --offline -p rapida-bench

echo "==> bench report smoke (scripts/bench_report.sh all)"
RAPIDA_BENCH_SMOKE=1 RAPIDA_BENCH_DIR="$(pwd)/target/bench-smoke" \
    scripts/bench_report.sh all

echo "==> BENCH_mapred.json present and well-formed"
python3 - target/bench-smoke/BENCH_mapred.json <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: BENCH_mapred.json missing or malformed: {e}")
ids = [b["id"] for b in report["benchmarks"]]
for prefix in ("shuffle_legacy_pairs/", "shuffle_arena_merge/"):
    if not any(i.startswith(prefix) for i in ids):
        sys.exit(f"FAIL: BENCH_mapred.json lacks a {prefix}* benchmark")
print(f"  ok: {ids}")
EOF

echo "==> BENCH_query.json present and well-formed"
python3 - target/bench-smoke/BENCH_query.json <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: BENCH_query.json missing or malformed: {e}")
ids = [b["id"] for b in report["benchmarks"]]
if not ids or not all(i.startswith("views/") for i in ids):
    sys.exit(f"FAIL: BENCH_query.json must hold views/* benchmarks only, got {ids}")
print(f"  ok: {ids}")
EOF

echo "==> BENCH_scale.json present and well-formed"
python3 - target/bench-smoke/BENCH_scale.json <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: BENCH_scale.json missing or malformed: {e}")
ids = [b["id"] for b in report["benchmarks"]]
for w in (1, 2, 4, 8):
    if not any(i.endswith(f"/w{w}") for i in ids):
        sys.exit(f"FAIL: BENCH_scale.json lacks a */w{w} benchmark")
print(f"  ok: {ids}")
EOF

echo "==> BENCH_plan.json present and well-formed"
python3 - target/bench-smoke/BENCH_plan.json <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: BENCH_plan.json missing or malformed: {e}")
ids = [b["id"] for b in report["benchmarks"]]
for prefix in ("fixed_hive_mqo/", "chosen_hive/", "chosen_rapid/"):
    if not any(i.startswith(prefix) for i in ids):
        sys.exit(f"FAIL: BENCH_plan.json lacks a {prefix}* benchmark")
print(f"  ok: {len(ids)} benchmarks")
EOF

echo "==> BENCH_extvp.json present and well-formed"
python3 - target/bench-smoke/BENCH_extvp.json <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: BENCH_extvp.json missing or malformed: {e}")
ids = [b["id"] for b in report["benchmarks"]]
for prefix in ("fullscan/", "extvp/"):
    if not any(i.startswith(prefix) for i in ids):
        sys.exit(f"FAIL: BENCH_extvp.json lacks a {prefix}* benchmark")
print(f"  ok: {len(ids)} benchmarks")
EOF

echo "==> BENCH_recover.json present, well-formed, and above the 2x floor"
python3 - target/bench-smoke/BENCH_recover.json <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: BENCH_recover.json missing or malformed: {e}")
by_id = {b["id"]: b["median_ns"] for b in report["benchmarks"]}
restart = by_id.get("recomputed/restart_MG1")
ckpt = by_id.get("recomputed/checkpoint_MG1")
if restart is None or ckpt is None or ckpt <= 0:
    sys.exit("FAIL: BENCH_recover.json lacks the recomputed restart/checkpoint pair")
ratio = restart / ckpt
# The margin is deterministic (recomputed bytes, not wall time), so it is
# checked even in smoke mode.
if ratio < 2.0:
    sys.exit(f"FAIL: restart/checkpoint recomputation margin {ratio:.2f}x below 2x")
print(f"  ok: recomputation margin {ratio:.2f}x")
EOF

echo "==> BENCH_serve.json present, well-formed, and above the 1.5x floor"
python3 - target/bench-smoke/BENCH_serve.json <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        report = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"FAIL: BENCH_serve.json missing or malformed: {e}")
by_id = {b["id"]: b["median_ns"] for b in report["benchmarks"]}
for clients in (10, 100, 1000):
    for mode in ("batched", "serial"):
        if f"qpq/{mode}_c{clients}" not in by_id:
            sys.exit(f"FAIL: BENCH_serve.json lacks qpq/{mode}_c{clients}")
batched = by_id["qpq/batched_c100"]
serial = by_id["qpq/serial_c100"]
if batched <= 0:
    sys.exit("FAIL: non-positive batched qpq median at c100")
ratio = serial / batched
# Throughput is deterministic (simulated model seconds, not wall time),
# so the floor is checked even in smoke mode.
if ratio < 1.5:
    sys.exit(f"FAIL: batched/serial throughput {ratio:.2f}x at 100 clients below 1.5x")
print(f"  ok: batched/serial throughput at 100 clients {ratio:.2f}x")
EOF

echo "==> verify OK"
