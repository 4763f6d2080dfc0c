//! Wall-clock benchmark of the RAPIDA workspace: four closed-loop,
//! single-client workloads against the public API of the crates, five
//! end-to-end metrics each, and per-layer attribution from outside.
//! See `README.md` beside this package for the metrics and the rationale.

mod check;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workload;

use check::Gate;
use inputs::{Dataset, Inputs};
use layers::Values;
use stats::{median, percentile, Metric};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{NoTrace, Recorder, Tracer};
use workload::{Exec, Kind, RoundOut, State};

/// Full set-ups per untraced run; `setup_s` is their median. A ~1 s set-up
/// timed once spreads 20–70 % run to run, because one burst from a neighbour
/// ruins it. Each is timed in a process of its own, as a user's is: a second
/// set-up in the same process meets whatever heap the first one left behind,
/// which made peak RSS jump by 15 % on some runs and not on others.
const SETUPS: usize = 3;
/// Rounds run inside each set-up, so that measured rounds meet filled caches.
const WARMUP_ROUNDS: usize = 2;

const USAGE: &str =
    "usage: rapida-perfbench [--workload mg_rapida|mg_hive|plan_costed|serve_fit|all] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--check] [--break-oracle]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
    break_oracle: bool,
    setup_only: bool,
    emit_ntriples: Option<String>,
}

fn parse_args() -> Option<Args> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 43,
        seconds: 20.0,
        trace: false,
        smoke: false,
        check: false,
        break_oracle: false,
        setup_only: false,
        emit_ntriples: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--check" => a.check = true,
            "--break-oracle" => a.break_oracle = true,
            "--setup-only" => a.setup_only = true,
            "--workload" => a.workload = argv.next()?,
            "--seed" => a.seed = argv.next()?.parse().ok()?,
            "--seconds" => a.seconds = argv.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => a.trace = argv.next()?.parse::<u8>().ok().filter(|t| *t <= 1)? == 1,
            "--emit-ntriples" => a.emit_ntriples = Some(argv.next()?),
            _ => return None,
        }
    }
    Some(a)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = if let Some(name) = &args.emit_ntriples {
        emit_ntriples(name, args.seed)
    } else if args.check {
        preflight(args.seed)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        match Kind::ALL.into_iter().find(|k| k.name() == args.workload) {
            Some(kind) if args.trace => run_traced(kind, &args),
            Some(kind) => run_untraced(kind, &args),
            None => Err(format!("unknown workload '{}'\n{USAGE}", args.workload)),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The child half of [`Dataset::ntriples_from_child`].
fn emit_ntriples(name: &str, seed: u64) -> Result<bool, String> {
    let dataset = Dataset::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| format!("unknown dataset '{name}'"))?;
    let text = dataset.ntriples(seed);
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    Ok(true)
}

/// This program again, on the same workload inputs.
fn child(kind: Kind, args: &Args) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &args.seed.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// Every workload in a process of its own, so that peak RSS and allocator
/// state never bleed from one into the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = !args.smoke || preflight(args.seed)?;
    for kind in Kind::ALL {
        let mut cmd = child(kind, args)?;
        cmd.args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if args.break_oracle {
            cmd.arg("--break-oracle");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawning {}: {e}", kind.name()))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// One round and its wall time in ms. What the server reported becomes
/// per-operation results only after the clock has stopped.
fn timed_round<R: Recorder>(
    kind: Kind,
    state: &State,
    inputs: &Inputs,
    rec: &mut R,
) -> (RoundOut, f64) {
    let t = Instant::now();
    let mut out = workload::round(kind, state, inputs, rec);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    out.settle(inputs);
    (out, ms)
}

/// The warm-up rounds every set-up ends with.
fn warm_up(kind: Kind, state: &State, inputs: &Inputs) -> Vec<RoundOut> {
    (0..WARMUP_ROUNDS)
        .map(|_| workload::round(kind, state, inputs, &mut NoTrace))
        .collect()
}

fn window_seconds(args: &Args) -> f64 {
    if args.smoke {
        1.0
    } else {
        args.seconds
    }
}

/// The cross-engine oracle of the loaded data, and the gate already fed the
/// warm-up rounds.
fn gate_for(
    kind: Kind,
    state: &State,
    inputs: &Inputs,
    warm: Vec<RoundOut>,
    args: &Args,
) -> Result<Gate, String> {
    let mut oracle = check::cross_engine_oracle(kind.oracle_engine().as_ref(), state, inputs)?;
    if args.break_oracle {
        oracle[0].break_it();
    }
    let mut gate = Gate::new(oracle);
    for mut out in warm {
        out.settle(inputs);
        gate.check(kind, &out);
    }
    Ok(gate)
}

fn report(kind: Kind, args: &Args, gate: &Gate, metrics: &[Metric], extra: &[Metric]) -> bool {
    println!(
        "workload {} seed {} window {} s trace {} cores {}",
        kind.name(),
        args.seed,
        window_seconds(args),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in metrics.iter().chain(extra) {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  {:<32} {:>16}", "attempted_queries", gate.attempted);
    println!("  {:<32} {:>16}", "failed_queries", gate.failed);
    println!(
        "{}",
        stats::result_line(gate.attempted, gate.failed, metrics)
    );
    gate.failed == 0
}

/// The run whose numbers count: tracing off, set-up timed `SETUPS` times.
fn run_untraced(kind: Kind, args: &Args) -> Result<bool, String> {
    let inputs = kind.inputs(args.seed, args.smoke)?;

    let mut setup_s = Vec::with_capacity(SETUPS);
    if !args.setup_only {
        for _ in 1..SETUPS {
            let mut cmd = child(kind, args)?;
            cmd.arg("--setup-only").stderr(Stdio::inherit());
            let out = cmd.output().map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let seconds = text
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|_| out.status.success());
            setup_s.push(seconds.ok_or_else(|| format!("set-up child failed: {}", out.status))?);
        }
    }
    let t = Instant::now();
    let state = workload::setup(kind, &inputs, &mut NoTrace)?;
    let stored_bytes_per_triple =
        state.cat.dfs.stored_bytes() as f64 / state.graph.len().max(1) as f64;
    let warm = warm_up(kind, &state, &inputs);
    setup_s.push(t.elapsed().as_secs_f64());
    if args.setup_only {
        println!("{}", setup_s[0]);
        return Ok(true);
    }
    let mut gate = gate_for(kind, &state, &inputs, warm, args)?;

    let mut round_ms = Vec::new();
    let mut ops = 0usize;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < window_seconds(args) {
        let (out, ms) = timed_round(kind, &state, &inputs, &mut NoTrace);
        round_ms.push(ms);
        ops += out.results.len();
        gate.check(kind, &out);
    }

    let busy_s = round_ms.iter().sum::<f64>() / 1e3;
    let metrics = [
        Metric::new("queries_per_s", ops as f64 / busy_s, "1/s"),
        Metric::new("round_ms_p25", percentile(&round_ms, 25.0), "ms"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "peak_rss_mb",
            stats::proc_status_kb("VmHWM").ok_or("cannot read VmHWM")? / 1024.0,
            "MB",
        ),
        Metric::new(
            "stored_bytes_per_triple",
            stored_bytes_per_triple,
            "B/triple",
        ),
    ];
    // Rounds are identical deterministic work, so what differs between them is
    // the machine: run to run the lower quartile spreads 1–2.5 %, the median
    // 2–7 %, p90 13–17 %. The last two are shown, not gated.
    let extra = [
        Metric::new("harness.rounds", round_ms.len() as f64, "count"),
        Metric::new("harness.round_ms_p50", median(&round_ms), "ms"),
        Metric::new("harness.round_ms_p90", percentile(&round_ms, 90.0), "ms"),
    ];
    Ok(report(kind, args, &gate, &metrics, &extra))
}

/// The run that attributes: one traced set-up, the storage probes, then a
/// window in which traced and untraced rounds alternate — the difference of
/// their medians is the tracing overhead, free of drift between runs.
fn run_traced(kind: Kind, args: &Args) -> Result<bool, String> {
    let inputs = kind.inputs(args.seed, args.smoke)?;
    let mut tracer = Tracer::new();
    let mut values = Values::new();

    let state = tracer.span("setup", |t| workload::setup(kind, &inputs, t))?;
    layers::setup_layers(&tracer, &state, &mut values);
    let mut gate = gate_for(kind, &state, &inputs, warm_up(kind, &state, &inputs), args)?;
    layers::storage_probes(&state, &mut tracer, &mut values);
    if kind == Kind::ServeFit {
        layers::front_end_replay(&inputs, &mut tracer, &mut values)?;
    }

    let cache_stats = || match &state.exec {
        Exec::Server(server) => Some(server.cache_stats()),
        Exec::Engine(_) => None,
    };
    let mut per_round: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let cpu_start = stats::cpu_ms();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < window_seconds(args) {
        let out = if traced_ms.len() <= untraced_ms.len() {
            tracer.round += 1;
            let from = tracer.spans.len();
            let before = cache_stats();
            let (out, ms) = timed_round(kind, &state, &inputs, &mut tracer);
            let after = cache_stats();
            traced_ms.push(ms);
            let layer = layers::round_layers(
                &tracer.spans,
                from,
                &out,
                before.as_ref().zip(after.as_ref()),
            );
            for (name, value) in layer {
                per_round.entry(name).or_default().push(value);
            }
            out
        } else {
            let (out, ms) = timed_round(kind, &state, &inputs, &mut NoTrace);
            untraced_ms.push(ms);
            out
        };
        gate.check(kind, &out);
    }
    let cpu_ms = cpu_start.zip(stats::cpu_ms()).map_or(0.0, |(a, b)| b - a);

    for (name, samples) in &per_round {
        // The front-end replay stands in for what a serve round hides.
        values.entry(name).or_insert_with(|| median(samples));
    }
    let rounds = (traced_ms.len() + untraced_ms.len()) as f64;
    // A window too short for a second round leaves no untraced sample.
    let plain = if untraced_ms.is_empty() {
        &traced_ms
    } else {
        &untraced_ms
    };
    values.insert("harness.rounds", rounds);
    values.insert("harness.round_ms_p50", median(plain));
    values.insert("harness.round_ms_p90", percentile(plain, 90.0));
    values.insert("harness.round_ms_p50_traced", median(&traced_ms));
    values.insert("harness.cpu_ms_per_round", cpu_ms / rounds);
    values.insert(
        "harness.trace_overhead_pct",
        100.0 * (median(&traced_ms) / median(plain) - 1.0),
    );

    let dir = trace_dir()?;
    let path = dir.join(format!("trace-{}.json", kind.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&tracer.spans)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tracer.spans.len(), path.display());

    let metrics: Vec<Metric> = layers::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(report(kind, args, &gate, &metrics, &[]))
}

/// `<target dir>/perfbench-trace`, found from the running executable
/// (`<target dir>/release/rapida-perfbench`), so the trace lands in build
/// output whatever the working directory.
fn trace_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?;
    Ok(target.join("perfbench-trace"))
}

/// `--check`: on tiny data, where the reference evaluator is usable, compare
/// with `sparql::evaluate` every fixed engine on every query, then one round
/// of each workload (so both `enumerate_best` winners and every serve outcome).
fn preflight(seed: u64) -> Result<bool, String> {
    use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
    use rapida_core::QueryEngine;
    let mut ok = true;

    let inputs = Kind::MgRapida.inputs(seed, true)?;
    let state = workload::setup(Kind::MgRapida, &inputs, &mut NoTrace)?;
    let reference = check::reference_oracle(&state, &inputs)?;
    let engines: [Box<dyn QueryEngine>; 4] = [
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    for engine in engines {
        let got = check::cross_engine_oracle(engine.as_ref(), &state, &inputs)?;
        let bad = got
            .iter()
            .zip(&reference)
            .filter(|(g, r)| !g.matches(r))
            .count();
        println!(
            "check {:<16} {} queries, {bad} differ from the reference",
            engine.name(),
            got.len()
        );
        ok &= bad == 0;
    }

    for kind in Kind::ALL {
        let inputs = kind.inputs(seed, true)?;
        let state = workload::setup(kind, &inputs, &mut NoTrace)?;
        let mut gate = Gate::new(check::reference_oracle(&state, &inputs)?);
        gate.check(kind, &timed_round(kind, &state, &inputs, &mut NoTrace).0);
        println!(
            "check {:<16} {} operations, {} failed",
            kind.name(),
            gate.attempted,
            gate.failed
        );
        ok &= gate.failed == 0;
    }
    Ok(ok)
}
