//! Deleted names stay deleted. Each row of [`GUARDS`] is a pattern that
//! must not appear in any file under its scope, with what took its place;
//! a deletion that must not come back adds a row. Plain `std`: the files are
//! read from the checkout and searched line by line.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One deleted name.
struct Guard {
    /// The text that must not appear.
    pattern: &'static str,
    /// Match only where the pattern is not part of a longer identifier.
    word: bool,
    /// Directories searched, relative to the repository root; a `*`
    /// component stands for every entry of its parent directory.
    scope: &'static [&'static str],
    /// Files under the scope that may still hold the pattern.
    allowed: &'static [&'static str],
    /// What took its place.
    replaced_by: &'static str,
}

const SRC: &[&str] = &["crates/*/src"];
const SRC_BENCH_SCRIPTS: &[&str] = &["crates/*/src", "src", "crates/bench", "scripts"];
const SRC_EXAMPLES: &[&str] = &["crates/*/src", "src", "examples"];

const fn guard(pattern: &'static str, word: bool, scope: &'static [&'static str], replaced_by: &'static str) -> Guard {
    Guard { pattern, word, scope, allowed: &[], replaced_by }
}

const SEALED: &str = "stored bytes are checksummed once, by `dfs::Sealed::new`";
const RADIX: &str = "one ordering kernel: the reduce side's stable radix pass";
const REDUCE_SIDE: &str = "pairs are ordered once, reduce-side; map tasks spill in emit order";
const ATTEMPT_SCRIPT: &str = "one attempt script for map tasks and reduce partitions; callers use `try_run_workflow`";
const ROUTE_TABLE: &str = "one route table, `InputRoutes`, per scan";
const ONE_NTGA_PATH: &str = "one NTGA operator path; the owned-decode reference lives in `crates/ntga/tests/common`";
const RULES: &str = "one `PlanRules` value and one compiler";
const DRAIN: &str = "each outcome is moved out of the board, never copied";
const ANSWER_TABLE: &str = "a drain stores each answer once; `finish` copies it for duplicates in one pool phase";
const VALUE_FILTER: &str = "raw stars carry a `ValueFilter`, applied inside the one filter walk";
const ORACLE: &str = "the logical NTGA operators are the spec oracle in `crates/ntga/tests/common`";
const FLOORS: &str = "report floors are Rust: `crates/bench/tests/floors.rs`, and each timing bench checks its own";
const TERM_HASH: &str = "term strings hash with std's SipHash; FxHash is for ids";
const ONE_ARENA: &str = "the dictionary stores each term once, as a key in one arena, indexed by a table of ids";
const ONE_COPY: &str = "`Dictionary::lexical`: a form borrowed from the dictionary's one arena, never copied out";
const FROZEN: &str = "one read-only `Arc<Dictionary>` after load, read by every operator with no lock and no copy";
const PARKED: &str = "pool phases run on parked helpers; the caller is worker 0";
const ONE_FOLD: &str = "one fold, `WorkflowMetrics::total`, sums every per-job quantity; reports read `ExperimentResult::wf`";
const TYPED_RUNS: &str = "`try_execute` returns the workflow's typed error; `PlanError::Workflow` carries it";
const COMPACT_DOC: &str = "a parsed term is one kind byte and one span (a tagged literal two): `NtDocument::{kinds, spans}`";
const HASH_HOME: &str = "a dictionary slot's kept hash bits name its home slot; no hash is stored per id";
const NUMERIC_CELL: &str = "the numeric cache is one `f64` per id, `NOT_NUMERIC` where a term has none";
const TG_RUNS: &str = "`TgStore::load` walks subject runs of a counting sort; one map key per class, keyed by its property list";
const VP_SLICES: &str = "`VpStore::load_ext` fills one exactly sized row buffer, one sorted slice per key";
const NDV_BITMAPS: &str = "NDVs are popcounts of per-property subject and object bitmaps over the dense id space";
const POSITION_INDEX: &str = "`Graph` dedups through `DedupIndex`, 4-byte positions into `triples`, released after a load";
const HONEST_UNITS: &str = "model seconds and bytes are asserted in `crates/bench/tests/floors.rs`, not timed as nanoseconds";
const DERIVED_SIG: &str = "a job's `sig` is the derived `Debug` of the config its tasks are built from";
const CARD_TAG: &str = "one cost-tag vocabulary, `enumerate::coster::CardTag`, printed and parsed in one place";
const ONE_KEY_WRITER: &str = "one plan-id normaliser and one cache-key writer, in `core/src/plan.rs`";
const SCAN_FILTERS: &str = "joins evaluate no predicate after merging; filters run at the scan";
const CONSTANTS: &str = "a setting with one value is a constant: `FaultPlan::{MAX_ATTEMPTS, REPLICAS}`, `resilience::backoff_s`";
const UNREACHED: &str = "deleted: nothing called it";
const FINAL_MAP_JOIN: &str = "the final join is a `relops::MapJoinCfg` over `ScanKind::AggRecs` scans, built by `plan::finish_plan`";
const FINAL_FACTORY: &str = "the final join's tasks come from `relops::MapJoinFactory`";
const FINAL_TASK: &str = "the final join runs as `relops::MapJoinTask`";
const FINAL_TABLES: &str = "broadcast blocks load into `relops::MapJoinFactory`'s flat tables";
const FINAL_CELLS: &str = "`output_cols` and `plan::OutputKind::cols` index the scanned row";
const SIDE_MEMO: &str = "a broadcast side's table is built once per stored dataset, in the `SimDfs::derived` memo";
const JOB_METERED: &str = "the engine meters what each job reads and writes (`JobMetrics`); the DFS counts no bytes";
const ONE_READ: &str = "one read of a stored dataset: `SimDfs::peek` (`peek_sealed` with its sums)";
const ONE_EXECUTOR: &str = "grouping sets compile to a `QueryPlan` whose output is a `ScanKind::Sets` scan";
const ONE_WORKFLOW: &str = "the final join continues the block jobs' `WorkflowMetrics` (`try_run_workflow_after`)";

const GUARDS: &[Guard] = &[
    Guard {
        pattern: "block_checksum(",
        word: false,
        scope: SRC,
        allowed: &["crates/mapred/src/integrity.rs", "crates/mapred/src/dfs.rs"],
        replaced_by: SEALED,
    },
    guard("LoserTree", false, SRC, RADIX),
    guard("sort_unstable_with", false, SRC, RADIX),
    guard("Run::select", false, SRC, RADIX),
    guard("fn sort_unstable", false, &["crates/mapred/src"], REDUCE_SIDE),
    guard("sort_unstable()", false, &["crates/mapred/src"], REDUCE_SIDE),
    guard("Run::sorted", false, &["crates/mapred/src"], REDUCE_SIDE),
    guard("fn lower_bound", false, &["crates/mapred/src"], REDUCE_SIDE),
    guard("FaultStats", true, SRC, ATTEMPT_SCRIPT),
    guard("run_map_task", true, SRC, ATTEMPT_SCRIPT),
    guard("straggler_slowdown", true, SRC, ATTEMPT_SCRIPT),
    guard("fn run_workflow", true, SRC, ATTEMPT_SCRIPT),
    guard("raw_inputs", true, SRC, ROUTE_TABLE),
    guard("raw_table", true, SRC, ROUTE_TABLE),
    guard("legacy_owned", false, SRC_BENCH_SCRIPTS, ONE_NTGA_PATH),
    guard("cost_model", false, SRC_BENCH_SCRIPTS, RULES),
    guard("HiveConfig", false, SRC_BENCH_SCRIPTS, RULES),
    guard("enum Spec", false, SRC_BENCH_SCRIPTS, RULES),
    guard("clone_reason", false, &["crates/serve/src"], DRAIN),
    guard("status[i].clone()", false, &["crates/serve/src"], DRAIN),
    guard("memo[q].clone()", false, &["crates/serve/src"], ANSWER_TABLE),
    guard("relation.clone()", false, &["crates/serve/src"], ANSWER_TABLE),
    guard("TgTransform", true, SRC, VALUE_FILTER),
    guard("owned_group", true, SRC, VALUE_FILTER),
    guard("Prefilter", true, SRC, VALUE_FILTER),
    guard("finalize_groups_par", false, SRC, ORACLE),
    guard("fn n_split", false, SRC, ORACLE),
    guard("bench_report", false, SRC_BENCH_SCRIPTS, FLOORS),
    guard("python3", false, &["scripts"], FLOORS),
    guard("FxHashMap<Term", true, SRC, TERM_HASH),
    guard("HashMap<Term", true, SRC, ONE_ARENA),
    guard("fn intern_batch", true, SRC, ONE_ARENA),
    guard("fn lexical_snapshot", true, SRC, ONE_COPY),
    guard("fn lexical_forms", true, SRC, ONE_COPY),
    guard("LexicalForms", true, SRC, ONE_COPY),
    guard("RwLock", true, &["crates/rdf/src"], FROZEN),
    guard("fn numeric_snapshot", true, SRC, FROZEN),
    guard("NumericSnapshot", true, SRC, FROZEN),
    guard("LexicalSnapshot", true, SRC, FROZEN),
    guard("GraphStats", true, SRC, FROZEN),
    guard("fn with_dict", true, SRC, FROZEN),
    guard("thread::scope(", false, &["crates/mapred/src"], PARKED),
    guard("HashSet<Triple", false, &["crates/rdf/src"], POSITION_INDEX),
    Guard {
        pattern: "fn total_",
        word: false,
        scope: &["crates/mapred/src"],
        // `PoolStats::total_busy_ns` and `Dataset::total_bytes` are not
        // workflow summers.
        allowed: &["crates/mapred/src/pool.rs", "crates/mapred/src/dfs.rs"],
        replaced_by: ONE_FOLD,
    },
    // The JSON key "retried_attempts" stays; a field or method of that name
    // (declared, filled or called) does not come back.
    guard("retried_attempts:", false, SRC_BENCH_SCRIPTS, ONE_FOLD),
    guard("retried_attempts(", false, SRC_BENCH_SCRIPTS, ONE_FOLD),
    guard("fn execute(", false, &["crates/core/src"], TYPED_RUNS),
    guard("DryRun(", false, SRC, TYPED_RUNS),
    Guard {
        pattern: "iter_custom",
        word: false,
        scope: &["crates/bench/benches"],
        // Busy-time makespan: real nanoseconds, on a clock the bench reads.
        allowed: &["crates/bench/benches/scale.rs"],
        replaced_by: HONEST_UNITS,
    },
    guard("fn sig(", false, SRC, DERIVED_SIG),
    guard("dict_sig", true, SRC, DERIVED_SIG),
    guard("Arc::as_ptr(", false, SRC, DERIVED_SIG),
    guard("rows_for_tag", true, SRC, CARD_TAG),
    guard("parse_idx", true, SRC, CARD_TAG),
    guard("starts_with(\"agg\")", false, SRC, CARD_TAG),
    Guard {
        pattern: "«P»",
        word: false,
        scope: SRC,
        allowed: &["crates/core/src/plan.rs"],
        replaced_by: ONE_KEY_WRITER,
    },
    guard("fn attach_scan_cache_keys(&", false, SRC, ONE_KEY_WRITER),
    guard("post_preds", true, SRC, SCAN_FILTERS),
    // `DatasetWriter` keeps its own, private, split size.
    guard("pub split_bytes", true, &["crates/mapred/src"], CONSTANTS),
    guard("max_attempts", true, SRC, CONSTANTS),
    guard("backoff_base_s", true, SRC, CONSTANTS),
    guard("pub replicas", true, SRC, CONSTANTS),
    guard("fn replicas(", false, SRC, CONSTANTS),
    guard("Backoff", true, SRC, CONSTANTS),
    guard("busy_total_ns", true, SRC, UNREACHED),
    guard("fn hit_ratio", true, SRC, UNREACHED),
    guard("intern_iri", true, SRC, UNREACHED),
    guard("is_equality_pred", true, SRC, UNREACHED),
    guard("object_vars", true, SRC, UNREACHED),
    guard("to_ntriples", true, SRC, UNREACHED),
    guard("encode_ops", true, SRC, UNREACHED),
    guard("decode_ops", true, SRC, UNREACHED),
    guard("FinalJoinCfg", true, SRC, FINAL_MAP_JOIN),
    guard("FinalJoinFactory", true, SRC, FINAL_FACTORY),
    guard("FinalJoinTask", true, SRC, FINAL_TASK),
    guard("BlockTables", true, SRC, FINAL_TABLES),
    guard("CellSrc", true, SRC, FINAL_CELLS),
    guard("OnceLock<Arc<Vec<SmallTable>>>", false, SRC, SIDE_MEMO),
    guard("bytes_read", true, SRC, JOB_METERED),
    guard("bytes_written", true, SRC, JOB_METERED),
    guard("fn get(&self, name: &str)", false, &["crates/mapred/src"], ONE_READ),
    guard("Vec<NtTerm>", false, &["crates/rdf/src"], COMPACT_DOC),
    guard("hashes: Vec<u64>", false, &["crates/rdf/src"], HASH_HOME),
    guard("Vec<Option<f64>>", false, &["crates/rdf/src"], NUMERIC_CELL),
    guard("by_subject", true, &["crates/storage/src"], TG_RUNS),
    guard("FxHashMap<BTreeSet", false, &["crates/storage/src"], TG_RUNS),
    guard("FxHashMap<VpKey, Vec<", false, &["crates/storage/src"], VP_SLICES),
    guard("FxHashMap<u64, ()>", false, &["crates/storage/src"], NDV_BITMAPS),
    guard("GroupingSetsPlan", true, SRC_EXAMPLES, ONE_EXECUTOR),
    guard("fn absorb", false, SRC, ONE_WORKFLOW),
];

/// Does `line` hold `pattern` — as a whole word, when `word`?
fn holds(line: &str, pattern: &str, word: bool) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(pattern).any(|(at, _)| {
        !word || !(ident(line[..at].chars().next_back()) || ident(line[at + pattern.len()..].chars().next()))
    })
}

/// The directories a scope entry names; `*` expands to every entry of its
/// parent directory that has the rest of the path.
fn expand(root: &Path, scope: &str) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    for part in scope.split('/') {
        dirs = dirs
            .into_iter()
            .flat_map(|dir| match part {
                "*" => fs::read_dir(&dir)
                    .map(|entries| entries.flatten().map(|e| e.path()).collect())
                    .unwrap_or_default(),
                _ => vec![dir.join(part)],
            })
            .filter(|d| d.is_dir())
            .collect();
    }
    dirs.sort();
    dirs
}

/// Every file under a row's scope, once: scope entries may overlap
/// (`crates/*/src` and `crates/bench` both hold `crates/bench/src`), and a
/// file they share is still scanned, and reported, once.
fn scope_files(root: &Path, scope: &[&str]) -> Vec<PathBuf> {
    let mut paths = BTreeSet::new();
    for entry in scope {
        let dirs = expand(root, entry);
        assert!(!dirs.is_empty(), "scope {entry} names no directory");
        dirs.iter().for_each(|d| files(d, &mut paths));
    }
    paths.into_iter().collect()
}

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut BTreeSet<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a scope directory is readable").flatten() {
        let path = entry.path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.insert(path);
        }
    }
}

#[test]
fn deleted_names_stay_deleted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for g in GUARDS {
        for path in scope_files(root, g.scope) {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
            if g.allowed.contains(&rel.as_str()) {
                continue;
            }
            let Ok(bytes) = fs::read(&path) else { continue };
            for (n, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
                if holds(line, g.pattern, g.word) {
                    found.push(format!("{rel}:{}: `{}` is back ({})", n + 1, g.pattern, g.replaced_by));
                }
            }
        }
    }
    assert!(found.is_empty(), "deleted names reappeared:\n{}", found.join("\n"));
}

#[test]
fn the_matcher_finds_whole_words_and_substrings() {
    assert!(holds("struct LoserTree;", "LoserTree", false));
    assert!(holds("let t: TgTransform = f;", "TgTransform", true));
    assert!(!holds("fn prefilter_drops() {}", "Prefilter", true));
    assert!(!holds("PrefilterSet", "Prefilter", true));
    assert!(holds("Prefilter { apply }", "Prefilter", true));
    assert!(holds("x.sort_unstable();", "sort_unstable()", false));
    assert!(!holds("fn run_workflows()", "fn run_workflow", true));
    assert!(holds("index: FxHashMap<Term, TermId>,", "FxHashMap<Term", true));
    assert!(!holds("FxHashMap<TermId, usize>", "FxHashMap<Term", true));
    assert!(holds("type TermIndex = HashMap<Term, TermId>;", "HashMap<Term", true));
    assert!(!holds("index: FxHashMap<Term, TermId>,", "HashMap<Term", true));
    assert!(holds("    pub retried_attempts: u64,", "retried_attempts:", false));
    assert!(holds("wf.total_retried_attempts()", "retried_attempts(", false));
    assert!(!holds("(\"retried_attempts\", n.to_string()),", "retried_attempts:", false));
    assert!(!holds("{\"retried_attempts\": 8, ", "retried_attempts:", false));
    // Every guarded directory exists: a misspelt scope would guard nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(expand(root, "crates/*/src").len() >= 9);
    // Overlapping scope entries scan a shared file once.
    let bench_lib = scope_files(root, SRC_BENCH_SCRIPTS)
        .into_iter()
        .filter(|p| p.ends_with("crates/bench/src/lib.rs"))
        .count();
    assert_eq!(bench_lib, 1, "crates/bench/src/lib.rs is scanned {bench_lib} times per row");
}
