//! Writing your own TB scheduling policy against the public API.
//!
//! This example implements "Newest-First" — a deliberately simple policy
//! that always dispatches from the most recently arrived batch (children
//! therefore preempt dispatch order like TB-Pri, but parents of later
//! kernels also preempt earlier ones) — and races it against the
//! baseline and LaPerm on one benchmark.
//!
//! Usage: `cargo run --release --example custom_policy`

use dynpar::LaunchModelKind;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::kernel::Batch;
use gpu_sim::tb_sched::{DispatchDecision, DispatchView, RoundRobinScheduler, TbScheduler};
use gpu_sim::types::{BatchId, Cycle};
use laperm::{LaPermConfig, LaPermPolicy, LaPermScheduler};
use sim_metrics::report::Table;
use workloads::{workload_seeded, Scale, SharedSource};

/// Dispatch from the newest batch that still has work; place round-robin.
#[derive(Debug, Default)]
struct NewestFirst {
    stack: Vec<BatchId>,
    cursor: usize,
}

impl TbScheduler for NewestFirst {
    fn name(&self) -> &'static str {
        "newest-first"
    }

    fn on_batch_schedulable(&mut self, batch: &Batch, _cycle: Cycle) {
        self.stack.push(batch.id);
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        // Drop exhausted batches from the top (LIFO consumption).
        while let Some(&top) = self.stack.last() {
            if view.batch(top).has_undispatched_tbs() {
                break;
            }
            self.stack.pop();
        }
        let batch = *self.stack.last()?;
        let req = view.batch(batch).req;
        let smx = view.first_fit_from(self.cursor, &req)?;
        self.cursor = (smx.index() + 1) % view.num_smxs();
        Some(DispatchDecision { batch, smx })
    }
}

fn main() {
    let w = workload_seeded("bfs-citation", Scale::Small, 0).expect("bfs-citation in suite");
    let cfg = GpuConfig::kepler_k20c();

    let schedulers: Vec<(&str, Box<dyn TbScheduler>)> = vec![
        ("rr", Box::new(RoundRobinScheduler::new())),
        ("newest-first", Box::new(NewestFirst::default())),
        (
            "adaptive-bind",
            Box::new(LaPermScheduler::new(LaPermPolicy::AdaptiveBind, LaPermConfig::for_gpu(&cfg))),
        ),
    ];

    let mut table = Table::new(vec!["scheduler", "cycles", "IPC", "L1 hit", "child wait"]);
    for (name, sched) in schedulers {
        let mut sim = Simulator::new(cfg.clone(), Box::new(SharedSource(w.clone())))
            .with_scheduler(sched)
            .with_launch_model(LaunchModelKind::Dtbl.build_default());
        for hk in w.host_kernels() {
            sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).expect("kernel fits");
        }
        let stats = sim.run_to_completion().expect("run completes");
        table.row(vec![
            name.to_string(),
            stats.cycles.to_string(),
            format!("{:.1}", stats.ipc()),
            format!("{:.1}%", stats.l1.hit_rate() * 100.0),
            format!("{:.0}", stats.mean_child_wait()),
        ]);
    }
    println!(
        "A custom policy vs the baseline and LaPerm (bfs-citation, DTBL)\n\n{}",
        table.render()
    );
    println!(
        "Newest-first gets part of TB-Pri's effect for free (children are\n\
         the newest batches) without any locality machinery; LaPerm's\n\
         binding still wins. Implementing TbScheduler is all it took."
    );
}
