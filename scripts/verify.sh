#!/usr/bin/env bash
# Tier-1 verification: everything must pass with no network access.
#
#   build (release)  ->  full workspace test suite  ->  chaos smoke  ->  bench smoke
#
# The bench smoke runs every bench target with one timed iteration per
# benchmark (RAPIDA_BENCH_SMOKE=1), which proves the harnesses execute
# end-to-end without paying for a real measurement run. JSON reports land
# in target/bench-smoke/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test --workspace --offline"
cargo test -q --workspace --offline

echo "==> chaos smoke (4 fault seeds x worker counts, incl. corruption sweeps)"
RAPIDA_CHAOS_SEEDS=4 cargo test -q --offline -p rapida-mapred --test chaos

echo "==> attempt ledger golden (map + reduce attempt scripts vs tests/snapshots/fault_ledger_golden.txt)"
cargo test -q --offline -p rapida-mapred --test chaos -- --exact fault_ledger_matches_the_golden

echo "==> integrity smoke (checksum quarantine + checksums-off divergence)"
cargo test -q --offline -p rapida-mapred --test integrity --test recover

echo "==> sealed datasets (a scan-cache hit republishes the sums sealed at the first put; a one-task pool phase runs inline)"
cargo test -q --offline -p rapida-mapred --test integrity -- --exact a_hit_republished_dataset_reads_like_a_freshly_written_one
cargo test -q --offline -p rapida-mapred --lib -- --exact engine::tests::keyed_job_is_served_from_the_scan_cache pool::tests::a_single_task_runs_inline_at_any_worker_count pool::tests::no_more_threads_than_tasks
cargo test -q --offline -p rapida-core --lib -- --exact batch::tests::an_undecodable_block_record_rejects_the_member

echo "==> stored bytes are checksummed once (block_checksum is called only by the integrity module and the DFS)"
if grep -rnF 'block_checksum(' crates/*/src | grep -vE '^crates/mapred/src/(integrity|dfs)\.rs:'; then echo "FAIL: a second pass over stored bytes is back" >&2; exit 1; fi

echo "==> shuffle ordering smoke (emit-order runs: merge and shard plan vs the stable-sort reference; radix kernel vs bytewise reference; allocation budget)"
cargo test -q --offline -p rapida-mapred --test prop_shuffle -- --exact merge_key_groups_matches_stable_sort_reference prefix_entry_sort_matches_bytewise_reference arena_shuffle_matches_pair_sort_reference
cargo test -q --offline -p rapida-mapred --test prop_shard_merge -- --exact sharded_merge_is_byte_identical_to_serial empty_and_single_key_runs_never_break_the_plan
cargo test -q --offline -p rapida-mapred --test alloc_budget -- --exact shuffle_allocates_a_constant_number_of_blocks

echo "==> one ordering kernel (the comparison sort, the chunked thread sort and the loser tree stay deleted)"
if grep -rnE 'LoserTree|sort_unstable_with|Run::select' crates/*/src; then echo "FAIL: a second shuffle ordering is back" >&2; exit 1; fi

echo "==> pairs are ordered once, reduce-side (the map-side sort, sorted runs and their binary-search windows stay deleted)"
if grep -rnE 'fn sort_unstable|Run::sorted|fn lower_bound|sort_unstable\(\)' crates/mapred/src; then echo "FAIL: a map-side ordering is back" >&2; exit 1; fi

echo "==> one attempt script (the map-side retry loop, its ledger mirror, the straggler slowdown knob and the panicking run_workflow stay deleted)"
if grep -rnwE 'FaultStats|run_map_task|straggler_slowdown|fn run_workflow' crates/*/src; then echo "FAIL: a second fault-attempt path is back" >&2; exit 1; fi

echo "==> scale smoke (worker-count determinism matrix)"
cargo test -q --offline --test scale_identity

echo "==> plan-enumerator smoke (golden snapshots + NTGA rediscovery)"
cargo test -q --offline -p rapida-core --test plan_snapshots

echo "==> plan-enumerator oracle smoke (perfbench --smoke: both enumerate_best winners vs sparql::evaluate)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload plan_costed

echo "==> Hive join smoke (owned reducer + owned broadcast-map oracles, allocation budgets)"
cargo test -q --offline -p rapida-core --test join_reduce_identity --test map_join_identity --test alloc_budget

echo "==> plan fingerprint smoke (every candidate dry-run: equal fingerprints price and write identically; live knobs move it)"
cargo test -q --offline -p rapida-core --lib enumerate::tests

echo "==> relational shuffle oracle smoke (perfbench --smoke: mg_hive vs the cross-family oracle)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload mg_hive

echo "==> NTGA one-walk kernels smoke (fused filter, slot program and star directory vs the owned operators; physical operators vs the tests/common reference; allocation budget)"
cargo test -q --offline -p rapida-ntga --lib --test prop_ops --test prop_views --test view_identity --test alloc_budget

echo "==> NTGA route tables (pruned shared scans vs the walk-every-route reference; every planner-dropped (input, route) pair passes nothing)"
cargo test -q --offline -p rapida-ntga --test view_identity -- route_table_pruning_is_byte_identical_to_the_reference an_input_without_a_table_entry_is_quarantined
cargo test -q --offline -p rapida-core --lib engines::rapid::route_table

echo "==> one route table (the per-record raw-input list and its contains dispatch, and the Agg-Join's parallel table, stay deleted)"
if grep -rnwE 'raw_inputs|raw_table' crates/*/src; then echo "FAIL: a second route table is back" >&2; exit 1; fi

echo "==> one NTGA operator path (the owned-decode flag stays out of production, benches and scripts)"
if grep -rn 'legacy[_]owned' crates/*/src src crates/bench scripts; then echo "FAIL: the flag is back" >&2; exit 1; fi

echo "==> NTGA oracle smoke (perfbench --smoke: mg_rapida vs the cross-family oracle)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload mg_rapida

echo "==> one rules value, one compiler (the per-engine config structs, the engine-level cost switch and the enumerator's recipe enum stay deleted)"
if grep -rnE 'cost[_]model|Hive[C]onfig|enum [S]pec' crates/*/src src crates/bench scripts; then echo "FAIL: a second planner configuration is back" >&2; exit 1; fi

echo "==> serving oracle smoke (perfbench --smoke: serve_fit, planned through PlanRules::hive_mqo)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --smoke --workload serve_fit

echo "==> ExtVP byte-identity smoke (reductions vs full scans)"
cargo test -q --offline --test extvp_identity

echo "==> serving smoke (batched-MQO identity + replay ledger + golden ledger, small traffic; per-duplicate allocation budget)"
RAPIDA_SERVE_ROUNDS=2 RAPIDA_CHAOS_SEEDS=2 cargo test -q --offline --test serve_identity
cargo test -q --offline -p rapida-serve --test alloc_budget

echo "==> one drain front end (each answer is moved out of the drain, never copied out; no per-request reason copier)"
if grep -rnF -e 'clone_reason' -e 'status[i].clone()' crates/serve/src; then echo "FAIL: the per-request copies are back" >&2; exit 1; fi

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
