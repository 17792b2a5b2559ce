//! End-to-end and per-layer benchmark of the LaPerm reproduction.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--baseline FILE]
//! ```
//!
//! With `--trace 0` it makes and checks the workload's inputs, then runs
//! timed passes for about `S` seconds, each on a set-up of its own, checks
//! every pass, and prints each end-to-end metric with its unit. With `--trace 1` it instead makes
//! one traced run and prints the per-layer metrics. The last line of
//! standard output is always one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--baseline FILE` compares against the saved output of an earlier
//! run, using the bounds in `BENCHMARK.json`. See `perfbench/README.md`.

mod layers;
mod metrics;
mod work;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::{LayerValues, PER_LAYER};
use metrics::{ipc_gain, median, result_line, Metric};
pub use work::WORKLOADS;
use work::{Checks, Sim, SimSummary};

/// Every end-to-end metric: `(name, unit, better)`, in `BENCHMARK.json`
/// order.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("sim_insts_per_s", "1/s", "higher"),
    ("sim_p50_ms", "ms", "lower"),
    ("sim_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Scratch space under the working directory, removed on exit.
const TMP_DIR: &str = ".perfbench_tmp";

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--baseline FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, baseline: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--baseline" => out.baseline = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = Path::new(TMP_DIR).join(std::process::id().to_string());
    let code = run(&args, &tmp);
    // Best effort: the workloads clean up after themselves.
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    code
}

fn run(args: &Args, tmp: &Path) -> ExitCode {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut bench = match work::open(&args.workload, args.seed, tmp) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("inputs failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "provenance: host_cpus={} commit={} seed={} scale={} workers={} rustc={}",
        host_cpus(),
        commit(),
        args.seed,
        bench.scale(),
        bench.workers(),
        env!("PERFBENCH_RUSTC").replace(' ', "_"),
    );
    println!("note: modelled L1/L2 caches and DRAM start empty for every simulation");

    if args.trace {
        if let Err(e) = bench.prepare() {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
        return traced(bench.as_mut());
    }

    // Every pass consumes a set-up of its own, timed just before it;
    // `setup_s` is their median. Each pass is reduced to its summary as
    // soon as it ends, so memory does not grow with the number of passes
    // a run fits in.
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    // Each simulation's fastest run over the passes, in pass order.
    let mut best: Vec<Sim> = Vec::new();
    let mut checks = Checks::default();
    let mut last_records;
    loop {
        let t0 = Instant::now();
        if let Err(e) = bench.prepare() {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        let pass = bench.pass();
        println!(
            "pass {}: {:.3} s, {} simulations, {} of {} checks failed",
            walls.len() + 1,
            pass.wall_s,
            pass.sims.len(),
            pass.checks.failed,
            pass.checks.attempted
        );
        for note in &pass.checks.notes {
            println!("  FAILED {note}");
        }
        if best.is_empty() {
            best = pass.sims;
        } else {
            let same = best.len() == pass.sims.len()
                && best.iter().zip(&pass.sims).all(|(b, s)| b.cycles == s.cycles);
            checks.check(same, || format!("pass {} ran other simulations", walls.len() + 1));
            if same {
                for (b, s) in best.iter_mut().zip(&pass.sims) {
                    b.ns = b.ns.min(s.ns);
                }
            }
        }
        walls.push(pass.wall_s);
        checks.absorb(pass.checks);
        last_records = pass.records;
        if start.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }

    // Every pass repeats the same simulations, and a contended host only
    // ever adds time, so the timings take the fastest pass and each
    // simulation's fastest run.
    let summary = SimSummary::of(&best);
    let metrics = vec![
        Metric::new("wall_s", walls.iter().copied().fold(f64::INFINITY, f64::min), "s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("sim_cycles_per_s", summary.cycles_per_s, "1/s"),
        Metric::new("sim_insts_per_s", summary.insts_per_s, "1/s"),
        Metric::new("sim_p50_ms", summary.p50_ms, "ms"),
        Metric::new("sim_p90_ms", summary.tail_ms, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let each = format!("{} simulations, each its fastest of {} runs", best.len(), walls.len());
    let tail = summary.tail;
    let notes = [
        format!("(fastest of {} passes; median pass {:.6} s)", walls.len(), median(&walls)),
        format!("(median of {} set-ups)", setup_s.len()),
        format!("(simulated cycles per host second in simulations; {each})"),
        format!("(simulated thread instructions per host second in simulations; {each})"),
        format!("(per-simulation host time; {each})"),
        format!(
            "(per-simulation host time at p{tail}, the highest percentile up to p90 with 10 \
             simulations beyond it; {each})"
        ),
        "(process peak resident set, VmHWM)".to_string(),
    ];
    for (m, note) in metrics.iter().zip(&notes) {
        println!("{} = {} {} {note}", m.name, m.value, m.unit);
    }
    let failed_share = layers::ratio(checks.failed as f64, checks.attempted as f64);
    println!(
        "failed_share = {failed_share} share ({} of {} simulations and pass checks failed)",
        checks.failed, checks.attempted
    );
    if let Some(gain) = bench.reports_ipc_gain().then(|| ipc_gain(&last_records)).flatten() {
        println!(
            "ipc_gain = {gain:+.4} (deterministic; paper {:+.2} on GPGPU-Sim, error {:+.4}). \
             The model is otherwise unvalidated against hardware.",
            metrics::PAPER_IPC_GAIN,
            gain - metrics::PAPER_IPC_GAIN
        );
    }
    let mut ok = true;
    if let Some(path) = &args.baseline {
        match compare(path, &metrics) {
            Ok((pass, report)) => {
                print!("baseline {}:\n{report}", path.display());
                ok = pass;
            }
            Err(e) => {
                eprintln!("baseline {}: {e}", path.display());
                ok = false;
            }
        }
    }
    let correct = checks.failed == 0 && !best.is_empty();
    println!("{}", result_line(correct, checks.attempted, checks.failed, &metrics));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: per-layer metrics, every declared name present (0 for
/// a layer this workload never runs).
fn traced(bench: &mut dyn work::Bench) -> ExitCode {
    let mut values = LayerValues::new();
    let mut checks = Checks::default();
    let t0 = Instant::now();
    bench.trace(&mut values, &mut checks);
    println!("traced run took {:.3} s", t0.elapsed().as_secs_f64());
    for note in &checks.notes {
        println!("  FAILED {note}");
    }
    let mut metrics = Vec::new();
    for &(name, unit, _) in PER_LAYER {
        let measured = values.get(name).copied();
        let value = measured.unwrap_or(0.0);
        let note = match measured {
            None => " (layer idle in this workload)",
            Some(_) if name == "trace.unattributed_share" => {
                " (residual of the traced wall outside the engine's stage spans; not folded into \
                 any layer)"
            }
            Some(_) if name.starts_with("coalesce.") || name == "mem.ns_per_warp_access" => {
                " (replay of captured warp memory ops)"
            }
            Some(_) => "",
        };
        println!("{name} = {value} {unit}{note}");
        metrics.push(Metric::new(name, value, unit));
    }
    let undeclared: Vec<&&str> =
        values.keys().filter(|k| !PER_LAYER.iter().any(|m| m.0 == **k)).collect();
    checks.check(undeclared.is_empty(), || format!("undeclared layer metrics {undeclared:?}"));
    println!("trace checks: {} of {} failed", checks.failed, checks.attempted);
    println!(
        "{}",
        result_line(checks.failed == 0, checks.attempted.max(1), checks.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn compare(path: &Path, current: &[Metric]) -> Result<(bool, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let saved = metrics::parse_run_output(&text)?;
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = metrics::parse_bounds(&spec)?;
    Ok(metrics::compare_to_baseline(
        current,
        &saved.values,
        &bounds,
        (saved.host_cpus, host_cpus()),
    ))
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` in the working directory,
/// or `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split_whitespace().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MiB: the kernel's `VmHWM`.
/// (`getrusage`'s `ru_maxrss` would also count the parent's resident
/// set at fork time.)
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_mb() -> f64 {
    0.0
}
