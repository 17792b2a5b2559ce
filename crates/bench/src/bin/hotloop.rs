//! Hot-loop throughput benchmark; writes `BENCH_hotloop.json`.
//!
//! ```text
//! cargo run --release -p laperm-bench --bin hotloop -- \
//!     [--out FILE] [--baseline FILE] [--max-regression PCT]
//! ```
//!
//! `--baseline FILE` reads a previous `BENCH_hotloop.json` and records
//! per-case `baseline_cycles_per_sec` and `speedup` fields in the output.
//! `--max-regression PCT` additionally exits nonzero if any case's
//! throughput drops more than PCT percent below its baseline — the CI
//! bench-regression gate. When the baseline's recorded `host_cpus`
//! differs from the current machine's, the two documents came from
//! different host classes and wall-clock numbers are not comparable:
//! misses are annotated in the report but do not fail the gate.
//!
//! An unknown flag, a missing value, a non-numeric `--max-regression`
//! or an unreadable baseline exits 2.

use laperm_bench::cli::{usage_exit, Flags};
use laperm_bench::hotloop::{
    check_regressions, parse_baseline, parse_host_cpus, render_json, run_hotloop,
};

fn main() {
    let flags = Flags::from_env(&["--out", "--baseline", "--max-regression"], &[]);
    let out_path = flags.value("--out").unwrap_or("BENCH_hotloop.json").to_string();
    let (baseline, baseline_host_cpus) = match flags.value("--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage_exit(format!("cannot read baseline {path}: {e}")));
            (parse_baseline(&text), parse_host_cpus(&text))
        }
        None => (Vec::new(), None),
    };
    let max_regression: Option<f64> = flags.number("--max-regression");
    if max_regression.is_some() && baseline.is_empty() {
        usage_exit("--max-regression needs --baseline FILE to compare against");
    }

    let host_cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let results = run_hotloop();
    for r in &results {
        eprintln!(
            "{:38} {:>14.0} cycles/sec  ({} cycles in {:.3}s over {} iters)",
            r.name, r.cycles_per_sec, r.cycles, r.wall_secs, r.iters
        );
    }
    let json = render_json(&results, &baseline, host_cpus);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    if let Some(pct) = max_regression {
        let hosts = baseline_host_cpus.map(|b| (b, host_cpus));
        let (ok, report) = check_regressions(&results, &baseline, pct, hosts);
        eprint!("{report}");
        if !ok {
            eprintln!(
                "hot-loop throughput regressed more than {pct:.0}% below BENCH baseline; \
                 if the slowdown is intentional, regenerate the baseline with \
                 `cargo run --release -p laperm-bench --bin hotloop` and commit it"
            );
            std::process::exit(1);
        }
        eprintln!("hot-loop throughput within {pct:.0}% of baseline");
    }
}
