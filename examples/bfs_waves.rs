//! Iterative (wave-by-wave) execution: launch a kernel, synchronize,
//! launch the next — the host-side pattern of level-synchronous BFS and
//! AMR timesteps. The simulator is reused across waves, so caches stay
//! warm between phases, and statistics accumulate.
//!
//! Usage: `cargo run --release --example bfs_waves`

use dynpar::LaunchModelKind;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use laperm::{LaPermConfig, LaPermPolicy, LaPermScheduler};
use sim_metrics::report::Table;
use workloads::{workload_seeded, Scale, SharedSource};

const WAVES: usize = 3;

fn main() {
    let w = workload_seeded("bfs-citation", Scale::Small, 0).expect("bfs-citation in suite");
    let cfg = GpuConfig::kepler_k20c();

    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
        .with_scheduler(Box::new(LaPermScheduler::new(
            LaPermPolicy::AdaptiveBind,
            LaPermConfig::for_gpu(&cfg),
        )))
        .with_launch_model(LaunchModelKind::Dtbl.build_default());

    let mut table = Table::new(vec!["wave", "cycles (cumulative)", "IPC so far", "L1 hit", "TBs"]);
    for wave in 0..WAVES {
        for hk in w.host_kernels() {
            sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("kernel fits");
        }
        let stats = sim.run_to_completion().expect("wave completes");
        table.row(vec![
            (wave + 1).to_string(),
            stats.cycles.to_string(),
            format!("{:.1}", stats.ipc()),
            format!("{:.1}%", stats.l1.hit_rate() * 100.0),
            stats.tb_records.len().to_string(),
        ]);
    }
    println!(
        "BFS frontier waves on one machine (Adaptive-Bind, DTBL)\n\
         Each wave relaunches the sweep; later waves start with warm caches.\n\n{}",
        table.render()
    );
}
