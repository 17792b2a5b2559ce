//! Launch-latency sensitivity (paper Section IV-D).
//!
//! LaPerm assumes child TBs can start soon after their direct parent; a
//! slow launch path erodes the exploitable temporal locality. This
//! example sweeps a uniform launch latency and reports the Adaptive-Bind
//! gain over the baseline at each point.
//!
//! Usage: `cargo run --release --example launch_latency [workload]`

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use sim_metrics::harness::{run_with_latency, SchedulerKind};
use sim_metrics::report::Table;
use workloads::{suite_names, workload_seeded, Scale};

fn main() {
    let target = std::env::args().nth(1).unwrap_or_else(|| "sssp-cage15".to_string());
    let workload = &workload_seeded(&target, Scale::Small, 0).unwrap_or_else(|| {
        eprintln!("unknown workload {target}; available:");
        for name in suite_names() {
            eprintln!("  {name}");
        }
        std::process::exit(1);
    });
    let cfg = GpuConfig::kepler_k20c();

    println!("workload: {}, DTBL delivery, small scale\n", workload.full_name());
    let mut t = Table::new(vec!["latency (cycles)", "rr IPC", "adaptive IPC", "gain"]);
    for base in [0u32, 250, 1000, 4000, 16000, 64000] {
        let latency = LaunchLatency::uniform(base);
        let rr = run_with_latency(
            workload,
            LaunchModelKind::Dtbl,
            latency,
            SchedulerKind::RoundRobin,
            &cfg,
        )
        .expect("rr run");
        let ad = run_with_latency(
            workload,
            LaunchModelKind::Dtbl,
            latency,
            SchedulerKind::AdaptiveBind,
            &cfg,
        )
        .expect("adaptive run");
        t.row(vec![
            base.to_string(),
            format!("{:.1}", rr.ipc),
            format!("{:.1}", ad.ipc),
            format!("{:.2}x", ad.ipc / rr.ipc),
        ]);
    }
    println!("{}", t.render());
    println!("The locality advantage decays as launches get slower (Section IV-D).");
}
