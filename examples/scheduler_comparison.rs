//! Compares the four TB schedulers (baseline round-robin and the three
//! LaPerm policies) on one workload under both dynamic-parallelism
//! models, printing cache hit rates and IPC — a miniature of the paper's
//! Figures 7-9.
//!
//! Usage: `cargo run --release --example scheduler_comparison [workload]`
//! where `workload` is a suite name like `bfs-citation` (default).

use dynpar::LaunchModelKind;
use gpu_sim::config::GpuConfig;
use sim_metrics::harness::{run_once, SchedulerKind};
use sim_metrics::report::{pct, Table};
use workloads::{suite_names, workload_seeded, Scale};

fn main() {
    let target = std::env::args().nth(1).unwrap_or_else(|| "bfs-citation".to_string());
    let workload = &workload_seeded(&target, Scale::Small, 0).unwrap_or_else(|| {
        eprintln!("unknown workload {target}; available:");
        for name in suite_names() {
            eprintln!("  {name}");
        }
        std::process::exit(1);
    });
    let cfg = GpuConfig::kepler_k20c();

    println!("workload: {}  (GPU: {} SMXs)\n", workload.full_name(), cfg.num_smxs);
    for model in LaunchModelKind::all() {
        let mut table = Table::new(vec![
            "scheduler",
            "L1 hit",
            "L2 hit",
            "IPC",
            "norm IPC",
            "child wait",
            "affinity",
        ]);
        let mut base_ipc = None;
        for sched in SchedulerKind::all() {
            let rec = run_once(workload, model, sched, &cfg).expect("simulation failed");
            let base = *base_ipc.get_or_insert(rec.ipc);
            table.row(vec![
                rec.scheduler.clone(),
                pct(rec.l1_hit_rate),
                pct(rec.l2_hit_rate),
                format!("{:.1}", rec.ipc),
                format!("{:.3}", rec.ipc / base),
                format!("{:.0}", rec.mean_child_wait),
                pct(rec.parent_smx_affinity),
            ]);
        }
        println!("launch model: {model}");
        println!("{}", table.render());
    }
}
