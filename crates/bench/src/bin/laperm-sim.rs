//! Single-run simulator CLI: pick a workload, launch model, scheduler,
//! and hardware knobs, and get a full run report.
//!
//! ```text
//! laperm-sim [options]
//!   --workload <name>      suite workload (default bfs-citation); "list" to enumerate
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

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::trace::{render, VecSink};
use sim_metrics::harness::{scheduler_by_name, scheduler_names};
use workloads::{suite_seeded, Scale, SharedSource};

struct Options {
    workload: String,
    scheduler: String,
    model: LaunchModelKind,
    scale: Scale,
    seed: u64,
    smxs: Option<u16>,
    l1_kb: Option<u32>,
    l2_kb: Option<u32>,
    launch_latency: Option<u32>,
    trace: bool,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let parse_num = |flag: &str| -> Option<u64> {
        value(flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number, got {v}");
                std::process::exit(2);
            })
        })
    };
    Options {
        workload: value("--workload").unwrap_or_else(|| "bfs-citation".into()),
        scheduler: value("--scheduler").unwrap_or_else(|| "adaptive-bind".into()),
        model: value("--model").map_or(LaunchModelKind::Dtbl, |v| {
            LaunchModelKind::from_name(&v).unwrap_or_else(|| {
                eprintln!("unknown launch model {v} (cdp, dtbl)");
                std::process::exit(2);
            })
        }),
        scale: value("--scale").map_or(Scale::Small, |v| {
            Scale::from_name(&v).unwrap_or_else(|| {
                eprintln!("unknown scale {v} (tiny, ci, small, paper)");
                std::process::exit(2);
            })
        }),
        seed: parse_num("--seed").unwrap_or(0),
        smxs: parse_num("--smxs").map(|n| n as u16),
        l1_kb: parse_num("--l1-kb").map(|n| n as u32),
        l2_kb: parse_num("--l2-kb").map(|n| n as u32),
        launch_latency: parse_num("--launch-latency").map(|n| n as u32),
        trace: args.iter().any(|a| a == "--trace"),
    }
}

fn main() {
    let opts = parse_args();
    let all = suite_seeded(opts.scale, opts.seed);
    if opts.workload == "list" {
        for w in &all {
            println!("{}", w.full_name());
        }
        return;
    }
    let Some(workload) = all.iter().find(|w| w.full_name() == opts.workload) else {
        eprintln!("unknown workload {}; try --workload list", opts.workload);
        std::process::exit(2);
    };

    let mut cfg = GpuConfig::kepler_k20c();
    if let Some(n) = opts.smxs {
        cfg.num_smxs = n;
    }
    if let Some(kb) = opts.l1_kb {
        cfg.l1_bytes = kb * 1024;
    }
    if let Some(kb) = opts.l2_kb {
        cfg.l2_bytes = kb * 1024;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    let latency = match opts.launch_latency {
        Some(base) => LaunchLatency::uniform(base),
        None => LaunchLatency::default_for(opts.model),
    };
    let Some(scheduler) = scheduler_by_name(&opts.scheduler, &cfg) else {
        eprintln!("unknown scheduler {} ({})", opts.scheduler, scheduler_names());
        std::process::exit(2);
    };
    let sink = VecSink::new();
    let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(workload.clone())))
        .with_scheduler(scheduler)
        .with_launch_model(opts.model.build(latency));
    if opts.trace {
        sim = sim.with_trace(Box::new(sink.clone()));
    }
    for hk in workload.host_kernels() {
        if let Err(e) = sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req) {
            eprintln!("launch failed: {e}");
            std::process::exit(1);
        }
    }
    let stats = match sim.run_to_completion() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{} | {} | {} | {} SMXs | seed {}",
        workload.full_name(),
        opts.model,
        stats.scheduler,
        cfg.num_smxs,
        opts.seed
    );
    print!("{}", stats.summary());
    println!("\nper-kernel-kind breakdown:");
    for (kind, count, mean_resident) in stats.per_kind_summary() {
        println!(
            "  {:<16} {:>6} TBs, mean resident {:.0} cycles",
            workload.kind_name(kind),
            count,
            mean_resident
        );
    }
    if opts.trace {
        let records = sink.records();
        println!("\nfirst scheduling events:");
        print!("{}", render(&records[..records.len().min(30)]));
    }
}
