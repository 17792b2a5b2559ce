//! Sweep-scaling benchmark; writes `BENCH_sweep.json`.
//!
//! ```text
//! cargo run --release -p laperm-bench --bin sweepbench -- \
//!     [--scale tiny|ci|small|paper] [--jobs N,M,...] [--out FILE]
//! ```
//!
//! Times the full evaluation matrix (the `repro all` sweep) at each
//! requested worker count and records wall-clock seconds plus the
//! speedup of every job count over `--jobs 1`. `host_cpus` is recorded
//! alongside: speedups are bounded by the physical cores of the machine
//! that produced the file, so a single-core CI runner legitimately
//! reports ~1x while an 8-core workstation shows the parallel win.
//! Rows whose worker count exceeds `host_cpus` additionally carry
//! `"core_bound": true` — their speedup measures oversubscription, not
//! the sweep's scalability, and readers (including the CI gate) must
//! annotate rather than fail on them (`--jobs 8` at 0.91x on a 1-cpu
//! host is the host's fault, not a scaling regression).
//!
//! An unknown flag, a missing value or a bad `--scale`/`--jobs` exits 2.

use std::time::Instant;

use gpu_sim::config::GpuConfig;
use laperm_bench::cli::{usage_exit, Flags};
use laperm_bench::sweep::run_matrix_jobs;
use workloads::Scale;

fn main() {
    let flags = Flags::from_env(&["--out", "--scale", "--jobs"], &[]);
    let out_path = flags.value("--out").unwrap_or("BENCH_sweep.json").to_string();
    let scale = flags.value("--scale").map_or(Scale::Paper, |v| {
        Scale::from_name(v)
            .unwrap_or_else(|| usage_exit(format!("--scale expects tiny|ci|small|paper, got {v}")))
    });
    let jobs_list: Vec<usize> = flags.value("--jobs").map_or(vec![1, 8], |list| {
        list.split(',')
            .map(|n| n.parse().ok().filter(|&j| j > 0))
            .collect::<Option<_>>()
            .unwrap_or_else(|| {
                usage_exit(format!(
                    "--jobs expects a comma-separated list of positive integers, got {list}"
                ))
            })
    });

    let cfg = GpuConfig::kepler_k20c();
    let host_cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let mut rows = Vec::new();
    let mut serial_secs: Option<f64> = None;
    for &jobs in &jobs_list {
        let start = Instant::now();
        let outcome = run_matrix_jobs(scale, 0, jobs, &cfg);
        let wall = start.elapsed().as_secs_f64();
        assert!(outcome.failures.is_empty(), "sweep failures: {:?}", outcome.failures);
        let runs = outcome.records.len();
        if jobs == 1 {
            serial_secs = Some(wall);
        }
        let note = if jobs > host_cpus { "  (core-bound: jobs exceed host cpus)" } else { "" };
        eprintln!("jobs {jobs:>2}: {runs} runs in {wall:.2}s{note}");
        rows.push((jobs, runs, wall));
    }

    // Final human summary: one row per job count with the speedup and
    // an explicit core-bound marker, so a scan of the tail of the log
    // answers "did it scale, and was the host even big enough to tell".
    eprintln!("\nsweep scaling summary (host_cpus {host_cpus})");
    for (jobs, runs, wall) in &rows {
        let speedup = match serial_secs {
            Some(s) if *wall > 0.0 => format!("{:.2}x", s / wall),
            _ => "-".to_string(),
        };
        let core_bound = if *jobs > host_cpus { "yes" } else { "no" };
        eprintln!(
            "  jobs {jobs:>2}  runs {runs:>3}  wall {wall:>8.2}s  speedup {speedup:>6}  \
             core_bound {core_bound}"
        );
    }

    // Machine-readable notes mirror the core-bound markers at the top
    // level, so readers of BENCH_sweep.json see the caveat without
    // scanning per-row flags.
    let notes: Vec<String> = rows
        .iter()
        .filter(|(jobs, _, _)| *jobs > host_cpus)
        .map(|(jobs, _, _)| {
            format!(
                "jobs {jobs} exceeds host_cpus {host_cpus}: \
                 speedup measures oversubscription, not sweep scalability"
            )
        })
        .collect();

    let mut out = String::from("{\n  \"benchmark\": \"sweep\",\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"notes\": [");
    for (i, n) in notes.iter().enumerate() {
        out.push_str(&format!("{}\"{n}\"", if i == 0 { "" } else { ", " }));
    }
    out.push_str("],\n");
    out.push_str("  \"results\": [\n");
    for (i, (jobs, runs, wall)) in rows.iter().enumerate() {
        let speedup = match serial_secs {
            Some(s) if *wall > 0.0 => format!(", \"speedup_vs_jobs1\": {:.2}", s / wall),
            _ => String::new(),
        };
        let core_bound = if *jobs > host_cpus { ", \"core_bound\": true" } else { "" };
        out.push_str(&format!(
            "    {{\"jobs\": {jobs}, \"runs\": {runs}, \"wall_secs\": \
             {wall:.3}{speedup}{core_bound}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, &out).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
