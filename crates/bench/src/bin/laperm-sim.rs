//! Single-run simulator CLI: pick a workload, launch model, scheduler,
//! and hardware knobs, and get a full run report.
//!
//! ```text
//! laperm-sim [options]
//!   --workload <name>      suite workload (default bfs-citation); only it is built.
//!                          "list" prints the 16 names in suite order, generating no input
//!   --scheduler <name>     rr | tb-pri | smx-bind | adaptive-bind | random (default adaptive-bind)
//!   --model <name>         cdp | dtbl (default dtbl)
//!   --scale <name>         tiny | ci | small | paper (default small)
//!   --seed <n>             input seed (default 0)
//!   --smxs <n>             override SMX count
//!   --l1-kb <n>            override L1 size per SMX
//!   --l2-kb <n>            override total L2 size
//!   --launch-latency <n>   override base launch latency in cycles
//!   --trace                print the first scheduling events
//! ```
//!
//! Argument parsing is strict ([`laperm_bench::cli`]): an unknown flag,
//! a missing value or a bad name or number exits 2.

use dynpar::LaunchLatency;
use gpu_sim::config::GpuConfig;
use gpu_sim::trace::{render, VecSink};
use laperm_bench::cli::{usage_exit, RunFlags};

fn main() {
    let (run, flags) =
        RunFlags::from_env(&["--l1-kb", "--l2-kb", "--launch-latency"], &["--trace"]);
    let bytes = |flag: &str| {
        flags.number::<u32>(flag).map(|kb| {
            kb.checked_mul(1024).unwrap_or_else(|| usage_exit(format!("{flag} {kb} is too large")))
        })
    };
    let mut cfg = GpuConfig::kepler_k20c();
    if let Some(b) = bytes("--l1-kb") {
        cfg.l1_bytes = b;
    }
    if let Some(b) = bytes("--l2-kb") {
        cfg.l2_bytes = b;
    }
    let latency = match flags.number("--launch-latency") {
        Some(base) => LaunchLatency::uniform(base),
        None => LaunchLatency::default_for(run.model),
    };
    let sink = VecSink::new();
    let trace = flags.has("--trace");
    let mut sim = run.simulator(cfg, latency, trace.then(|| Box::new(sink.clone()) as _));
    let stats = match sim.run_to_completion() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{} | {} | {} | {} SMXs | seed {}",
        run.workload.full_name(),
        run.model,
        stats.scheduler,
        sim.config().num_smxs,
        run.seed
    );
    print!("{}", stats.summary());
    println!("\nper-kernel-kind breakdown:");
    for (kind, count, mean_resident) in stats.per_kind_summary() {
        println!(
            "  {:<16} {:>6} TBs, mean resident {:.0} cycles",
            run.workload.kind_name(kind),
            count,
            mean_resident
        );
    }
    if trace {
        let records = sink.records();
        println!("\nfirst scheduling events:");
        print!("{}", render(&records[..records.len().min(30)]));
    }
}
