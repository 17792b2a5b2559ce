//! The traced run: timing wrappers around the engine's pluggable layers
//! (TB scheduler, program source, launch model), a traced cell runner
//! with engine profiling on, a memory-hierarchy replay, and the
//! per-layer metrics computed from them.
//!
//! Every span here is recorded from benchmark code around a call into a
//! layer's public interface; nothing inside the simulator changes.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_sim::cache::AccessClass;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::error::SimError;
use gpu_sim::kernel::Batch;
use gpu_sim::launch::{Delivery, DynamicLaunchModel, LaunchRequest};
use gpu_sim::mem::MemorySystem;
use gpu_sim::program::{KernelKindId, MemOp, MemSpace, ProgramSource, TbOp, TbProgram};
use gpu_sim::stats::{SimStats, StallBreakdown, ENGINE_HOST_COMPONENTS};
use gpu_sim::tb_sched::{DispatchDecision, DispatchView, KmuView, TbScheduler};
use gpu_sim::trace::TraceEvent;
use gpu_sim::types::{Cycle, SmxId, TbRef};
use sim_metrics::harness::RunRecord;

/// Every per-layer metric the traced run emits: `(name, unit, better)`,
/// in `BENCHMARK.json` order. A layer a workload never runs reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("engine.iters_per_cycle", "ratio", "lower"),
    ("engine.jump_len_mean", "cycles", "higher"),
    ("engine.host_share.advance", "share", "lower"),
    ("engine.host_share.launch_maturation", "share", "lower"),
    ("engine.host_share.kmu_dispatch", "share", "lower"),
    ("engine.host_share.tb_dispatch", "share", "lower"),
    ("engine.host_share.smx", "share", "lower"),
    ("smx.ns_per_warp_inst", "ns", "lower"),
    ("smx.busy_share", "share", "higher"),
    ("smx.stall_share.scoreboard", "share", "lower"),
    ("smx.stall_share.memory_pending", "share", "lower"),
    ("smx.stall_share.mshr_full", "share", "lower"),
    ("smx.stall_share.barrier", "share", "lower"),
    ("smx.stall_share.no_tb", "share", "lower"),
    ("smx.stall_share.launch_path", "share", "lower"),
    ("mem.l1_hit_rate", "share", "higher"),
    ("mem.l2_hit_rate", "share", "higher"),
    ("mem.mshr_merge_share", "share", "higher"),
    ("mem.dram_per_kinst", "1/kinst", "lower"),
    ("mem.dram_row_hit_rate", "share", "higher"),
    ("mem.dram_queue_cycles", "cycles", "lower"),
    ("coalesce.ns_per_warp_op", "ns", "lower"),
    ("mem.ns_per_warp_access", "ns", "lower"),
    ("tb_sched.pick_calls_per_cycle", "1/cycle", "lower"),
    ("tb_sched.pick_yield", "share", "higher"),
    ("tb_sched.pick_ns", "ns", "lower"),
    ("tb_sched.notify_ns", "ns", "lower"),
    ("tb_sched.host_share", "share", "lower"),
    ("tb_sched.steals", "count", "lower"),
    ("tb_sched.queue_search_cycles", "cycles", "lower"),
    ("program.calls", "count", "lower"),
    ("program.ns_per_call", "ns", "lower"),
    ("program.ops_per_call", "count", "lower"),
    ("program.host_share", "share", "lower"),
    ("program.repeat_share", "share", "lower"),
    ("tb_dispatch.self_share", "share", "lower"),
    ("launch.submits", "count", "lower"),
    ("launch.submit_ns", "ns", "lower"),
    ("launch.drain_calls_per_cycle", "1/cycle", "lower"),
    ("launch.drain_yield", "1/call", "higher"),
    ("launch.host_share", "share", "lower"),
    ("launch.spill_events", "count", "lower"),
    ("launch.table_overflows", "count", "lower"),
    ("sweep.worker_busy_share", "share", "higher"),
    ("sweep.tail_ms", "ms", "lower"),
    ("experiments.matrix_s", "s", "lower"),
    ("experiments.fig2_s", "s", "lower"),
    ("experiments.latency_sweep_s", "s", "lower"),
    ("experiments.timeline_s", "s", "lower"),
    ("experiments.variance_s", "s", "lower"),
    ("experiments.sweep_cache_s", "s", "lower"),
    ("experiments.generality_s", "s", "lower"),
    ("experiments.overhead_s", "s", "lower"),
    ("experiments.ablate_s", "s", "lower"),
    ("experiments.render_s", "s", "lower"),
    ("journal.append_us", "us", "lower"),
    ("journal.bytes_per_record", "bytes", "lower"),
    ("journal.read_us_per_record", "us", "lower"),
    ("resilience.key_us", "us", "lower"),
    ("resilience.hit_ratio", "share", "higher"),
    ("json.encode_us_per_run", "us", "lower"),
    ("json.decode_us_per_run", "us", "lower"),
    ("workloads.suite_build_s", "s", "lower"),
    ("wdsl.compile_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "share", "lower"),
];

/// Per-layer values measured by one traced run, keyed by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Global-memory warp ops kept for the memory replay.
const CAPTURE_OPS: usize = 4096;

/// Nanoseconds since `t0`, saturating.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Call count and summed host time of one wrapped entry point.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    fn record(&self, t0: Instant) {
        let ns = ns_since(t0);
        // Statistics only: no other data is published through them.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host nanoseconds recorded.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    fn mean_ns(&self) -> f64 {
        ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// Counters shared by the wrappers of one traced sweep.
#[derive(Debug, Default)]
pub struct Probe {
    pick: Span,
    picked: AtomicU64,
    kmu_pick: Span,
    notify: Span,
    program: Span,
    program_ops: AtomicU64,
    program_repeats: AtomicU64,
    served: Mutex<HashSet<(String, u16, u64, u32)>>,
    captured: Mutex<Vec<MemOp>>,
    submit: Span,
    drain: Span,
    delivered: AtomicU64,
}

impl Probe {
    /// The captured global-memory warp ops (at most [`CAPTURE_OPS`]).
    pub fn captured_ops(&self) -> Vec<MemOp> {
        self.captured.lock().expect("capture lock poisoned by a panicking cell").clone()
    }
}

/// Times every call into a boxed [`TbScheduler`].
struct TimedScheduler {
    inner: Box<dyn TbScheduler>,
    probe: Arc<Probe>,
}

impl TbScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_batch_schedulable(&mut self, batch: &Batch, cycle: Cycle) {
        let t0 = Instant::now();
        self.inner.on_batch_schedulable(batch, cycle);
        self.probe.notify.record(t0);
    }

    fn on_tb_finished(&mut self, tb: TbRef, smx: SmxId, cycle: Cycle) {
        let t0 = Instant::now();
        self.inner.on_tb_finished(tb, smx, cycle);
        self.probe.notify.record(t0);
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> Option<DispatchDecision> {
        let t0 = Instant::now();
        let decision = self.inner.pick(view);
        self.probe.pick.record(t0);
        if decision.is_some() {
            self.probe.picked.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }

    fn kmu_pick(&mut self, view: &KmuView<'_>) -> Option<usize> {
        let t0 = Instant::now();
        let pick = self.inner.kmu_pick(view);
        self.probe.kmu_pick.record(t0);
        pick
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.inner.set_tracing(enabled);
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        self.inner.drain_trace(out);
    }
}

/// Times every program materialization and records which
/// (workload, kind, param, tb) keys repeat within the sweep.
struct TimedSource {
    inner: Box<dyn ProgramSource>,
    workload: String,
    probe: Arc<Probe>,
}

impl ProgramSource for TimedSource {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        let t0 = Instant::now();
        let program = self.inner.tb_program(kind, param, tb_index);
        self.probe.program.record(t0);
        let p = &self.probe;
        p.program_ops.fetch_add(program.len() as u64, Ordering::Relaxed);
        let key = (self.workload.clone(), kind.0, param, tb_index);
        if !p.served.lock().expect("key set lock poisoned by a panicking cell").insert(key) {
            p.program_repeats.fetch_add(1, Ordering::Relaxed);
        }
        let mut captured = p.captured.lock().expect("capture lock poisoned by a panicking cell");
        for op in program.ops() {
            if captured.len() >= CAPTURE_OPS {
                break;
            }
            if let TbOp::Mem(m) = op {
                if m.space == MemSpace::Global {
                    captured.push(m.clone());
                }
            }
        }
        program
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.inner.kind_name(kind)
    }
}

/// Times the launch model's submit and drain entry points. The cheap
/// queries (`in_flight`, `next_ready`) are forwarded untimed.
struct TimedLaunch {
    inner: Box<dyn DynamicLaunchModel>,
    probe: Arc<Probe>,
}

impl DynamicLaunchModel for TimedLaunch {
    fn submit(&mut self, req: LaunchRequest) {
        let t0 = Instant::now();
        self.inner.submit(req);
        self.probe.submit.record(t0);
    }

    fn drain_ready(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.drain_ready(now, out);
        self.probe.drain.record(t0);
        self.probe.delivered.fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn next_ready(&self) -> Option<Cycle> {
        self.inner.next_ready()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `cfg` with engine profiling on and every loop iteration host-timed,
/// so the engine's stage spans cover the whole run rather than a sample.
pub fn traced_config(cfg: &GpuConfig) -> GpuConfig {
    let mut traced = cfg.clone();
    traced.profile_engine = true;
    traced.engine_host_sampling = 1;
    traced
}

/// One simulation to re-drive under the wrappers.
pub struct TracedSim {
    /// Label for the repeat-key set (the workload's name).
    pub workload: String,
    /// The program source the untraced run used.
    pub source: Box<dyn ProgramSource>,
    /// The TB scheduler the untraced run used.
    pub scheduler: Box<dyn TbScheduler>,
    /// The launch model the untraced run used.
    pub launch: Box<dyn DynamicLaunchModel>,
}

/// Runs one simulation with every wrapper and engine profiling on.
/// `start` launches the host kernels. Returns the statistics (with the
/// engine introspection still attached) and the host nanoseconds of
/// `run_to_completion`.
///
/// # Errors
///
/// Propagates the simulator's errors.
pub fn run_traced(
    cfg: &GpuConfig,
    sim: TracedSim,
    probe: &Arc<Probe>,
    start: impl FnOnce(&mut Simulator) -> Result<(), SimError>,
) -> Result<(SimStats, u64), SimError> {
    let source = TimedSource { inner: sim.source, workload: sim.workload, probe: probe.clone() };
    let mut simulator = Simulator::new(traced_config(cfg), Box::new(source))
        .with_scheduler(Box::new(TimedScheduler { inner: sim.scheduler, probe: probe.clone() }))
        .with_launch_model(Box::new(TimedLaunch { inner: sim.launch, probe: probe.clone() }));
    start(&mut simulator)?;
    let t0 = Instant::now();
    let stats = simulator.run_to_completion()?;
    Ok((stats, ns_since(t0)))
}

/// `true` when a traced run reproduced an untraced sweep record: every
/// simulated statistic the record carries is identical.
pub fn matches_record(stats: &SimStats, r: &RunRecord) -> bool {
    let counter = |name: &str| {
        stats.scheduler_counters.iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v)
    };
    stats.cycles == r.cycles
        && stats.ipc() == r.ipc
        && stats.l1.hit_rate() == r.l1_hit_rate
        && stats.l2.hit_rate() == r.l2_hit_rate
        && stats.l1.child_hit_rate() == r.child_l1_hit_rate
        && stats.mean_child_wait() == r.mean_child_wait
        && stats.parent_smx_affinity() == r.parent_smx_affinity
        && stats.smx_utilization() == r.smx_utilization
        && stats.tb_records.len() == r.total_tbs
        && stats.dynamic_tbs() == r.dynamic_tbs
        && counter("stage3_steals") == r.steals
        && counter("queue_pushes") == r.queue_pushes
        && counter("queue_search_cycles") == r.queue_search_cycles
        && stats.total_stalls() == r.stalls
}

/// Sums of the simulated and host-side quantities of a traced sweep.
#[derive(Debug, Default)]
pub struct Totals {
    /// Traced simulations.
    pub sims: u64,
    /// Host nanoseconds in `run_to_completion`, traced.
    pub wall_ns: u64,
    /// Host nanoseconds the same simulations took untraced.
    pub untraced_ns: u64,
    cycles: u64,
    iterations: u64,
    stage_ns: [u64; 5],
    jump_sum: u64,
    jumps: u64,
    warp_insts: u64,
    smx_cycles: u64,
    busy: u64,
    stalls: StallBreakdown,
    l1: (u64, u64),
    l2: (u64, u64),
    mshr_merges: u64,
    dram: u64,
    dram_queue: f64,
    dram_row_hits: f64,
    steals: u64,
    queue_search_cycles: u64,
    spill_events: u64,
    table_overflows: u64,
}

impl Totals {
    /// Adds one traced simulation (`untraced_ns`: its untraced host time).
    pub fn add(&mut self, stats: &SimStats, wall_ns: u64, untraced_ns: u64) {
        let counter = |list: &[(&'static str, u64)], name: &str| {
            list.iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v)
        };
        self.sims += 1;
        self.wall_ns += wall_ns;
        self.untraced_ns += untraced_ns;
        self.cycles += stats.cycles;
        if let Some(eng) = &stats.engine {
            self.iterations += eng.loop_iterations;
            for (sum, ns) in self.stage_ns.iter_mut().zip(eng.host_ns) {
                *sum += ns;
            }
            self.jump_sum += eng.jump_len.sum;
            self.jumps += eng.jump_len.count;
        }
        self.warp_insts += stats.warp_instructions;
        self.smx_cycles += stats.cycles * stats.smx_busy_cycles.len() as u64;
        self.busy += stats.smx_busy_cycles.iter().sum::<u64>();
        self.stalls.merge(&stats.total_stalls());
        self.l1.0 += stats.l1.hits;
        self.l1.1 += stats.l1.accesses();
        self.l2.0 += stats.l2.hits;
        self.l2.1 += stats.l2.accesses();
        self.mshr_merges += stats.mshr_merges;
        self.dram += stats.dram_accesses;
        self.dram_queue += stats.dram_mean_queueing * stats.dram_accesses as f64;
        self.dram_row_hits += stats.dram_row_hit_rate * stats.dram_accesses as f64;
        self.steals += counter(&stats.scheduler_counters, "stage3_steals");
        self.queue_search_cycles += counter(&stats.scheduler_counters, "queue_search_cycles");
        self.spill_events += counter(&stats.launch_counters, "spill_events");
        self.table_overflows += counter(&stats.launch_counters, "dtbl_table_overflows");
    }

    /// Writes the engine, SMX, memory, scheduler, program, launch and
    /// trace metrics into `out`, and returns the integrity violations of
    /// the host-time partition (empty when it holds).
    pub fn layer_metrics(&self, probe: &Probe, out: &mut LayerValues) -> Vec<String> {
        let wall = self.wall_ns as f64;
        let share = |ns: u64| ratio(ns as f64, wall);
        let stage = |name: &str| {
            let i = ENGINE_HOST_COMPONENTS.iter().position(|c| *c == name).expect("engine stage");
            self.stage_ns[i]
        };
        out.insert("engine.iters_per_cycle", ratio(self.iterations as f64, self.cycles as f64));
        out.insert("engine.jump_len_mean", ratio(self.jump_sum as f64, self.jumps as f64));
        out.insert("engine.host_share.advance", share(stage("advance")));
        out.insert("engine.host_share.launch_maturation", share(stage("launch_maturation")));
        out.insert("engine.host_share.kmu_dispatch", share(stage("kmu_dispatch")));
        out.insert("engine.host_share.tb_dispatch", share(stage("tb_dispatch")));
        out.insert("engine.host_share.smx", share(stage("smx")));
        let staged: u64 = self.stage_ns.iter().sum();
        let unattributed = 1.0 - share(staged);
        out.insert("trace.unattributed_share", unattributed);
        out.insert("trace.overhead_ratio", ratio(wall, self.untraced_ns as f64));

        out.insert("smx.ns_per_warp_inst", ratio(stage("smx") as f64, self.warp_insts as f64));
        let smx_cycles = self.smx_cycles as f64;
        out.insert("smx.busy_share", ratio(self.busy as f64, smx_cycles));
        let s = &self.stalls;
        for (name, cycles) in [
            ("smx.stall_share.scoreboard", s.scoreboard),
            ("smx.stall_share.memory_pending", s.memory_pending),
            ("smx.stall_share.mshr_full", s.mshr_full),
            ("smx.stall_share.barrier", s.barrier),
            ("smx.stall_share.no_tb", s.no_tb),
            ("smx.stall_share.launch_path", s.launch_path),
        ] {
            out.insert(name, ratio(cycles as f64, smx_cycles));
        }

        out.insert("mem.l1_hit_rate", ratio(self.l1.0 as f64, self.l1.1 as f64));
        out.insert("mem.l2_hit_rate", ratio(self.l2.0 as f64, self.l2.1 as f64));
        out.insert("mem.mshr_merge_share", ratio(self.mshr_merges as f64, self.l2.1 as f64));
        out.insert("mem.dram_per_kinst", ratio(self.dram as f64 * 1000.0, self.warp_insts as f64));
        out.insert("mem.dram_row_hit_rate", ratio(self.dram_row_hits, self.dram as f64));
        out.insert("mem.dram_queue_cycles", ratio(self.dram_queue, self.dram as f64));

        let p = probe;
        let cycles = self.cycles as f64;
        let sched_ns = p.pick.ns() + p.notify.ns() + p.kmu_pick.ns();
        out.insert("tb_sched.pick_calls_per_cycle", ratio(p.pick.calls() as f64, cycles));
        out.insert(
            "tb_sched.pick_yield",
            ratio(p.picked.load(Ordering::Relaxed) as f64, p.pick.calls() as f64),
        );
        out.insert("tb_sched.pick_ns", p.pick.mean_ns());
        out.insert("tb_sched.notify_ns", p.notify.mean_ns());
        out.insert("tb_sched.host_share", share(sched_ns));
        out.insert("tb_sched.steals", self.steals as f64);
        out.insert("tb_sched.queue_search_cycles", self.queue_search_cycles as f64);

        let calls = p.program.calls() as f64;
        out.insert("program.calls", calls);
        out.insert("program.ns_per_call", p.program.mean_ns());
        out.insert(
            "program.ops_per_call",
            ratio(p.program_ops.load(Ordering::Relaxed) as f64, calls),
        );
        out.insert("program.host_share", share(p.program.ns()));
        out.insert(
            "program.repeat_share",
            ratio(p.program_repeats.load(Ordering::Relaxed) as f64, calls),
        );
        out.insert(
            "tb_dispatch.self_share",
            share(stage("tb_dispatch").saturating_sub(p.program.ns())),
        );

        out.insert("launch.submits", p.submit.calls() as f64);
        out.insert("launch.submit_ns", p.submit.mean_ns());
        out.insert("launch.drain_calls_per_cycle", ratio(p.drain.calls() as f64, cycles));
        out.insert(
            "launch.drain_yield",
            ratio(p.delivered.load(Ordering::Relaxed) as f64, p.drain.calls() as f64),
        );
        out.insert("launch.host_share", share(p.submit.ns() + p.drain.ns()));
        out.insert("launch.spill_events", self.spill_events as f64);
        out.insert("launch.table_overflows", self.table_overflows as f64);

        // The engine's stage spans are disjoint and lie inside the timed
        // run, so they plus the residual partition it exactly; the
        // wrapped calls nest inside the stages that make them.
        let mut violations = Vec::new();
        if unattributed < 0.0 {
            violations.push(format!("engine stages exceed the traced wall ({unattributed})"));
        }
        if p.pick.ns() + p.program.ns() > stage("tb_dispatch") {
            violations.push("scheduler pick + program time exceeds the tb_dispatch stage".into());
        }
        if p.drain.ns() > stage("launch_maturation") {
            violations.push("launch drain time exceeds the launch_maturation stage".into());
        }
        violations
    }
}

/// Replays captured global-memory warp ops (warp 0 of each, one full
/// warp of lanes) through `coalesce_into` and then through a fresh
/// [`MemorySystem`] with empty caches, round-robin over the SMXs and
/// paced as if each SMX kept one warp access in flight. Returns host
/// nanoseconds per warp op for the coalescer and for `warp_access`;
/// `(0, 0)` with no ops.
pub fn replay_memory(ops: &[MemOp], cfg: &GpuConfig) -> (f64, f64) {
    if ops.is_empty() {
        return (0.0, 0.0);
    }
    let line_bits = cfg.line_bytes.trailing_zeros();
    let addrs: Vec<Vec<u64>> =
        ops.iter().map(|m| m.pattern.warp_addrs(0, cfg.warp_size, cfg.warp_size)).collect();
    // Enough rounds that one timed loop spans well over a millisecond.
    let rounds = (200_000 / ops.len()).max(1);
    let mut lines = Vec::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for a in &addrs {
            gpu_sim::coalesce::coalesce_into(black_box(a), line_bits, &mut lines);
            black_box(&lines);
        }
    }
    let coalesce_ns = ratio(ns_since(t0) as f64, (rounds * ops.len()) as f64);

    let coalesced: Vec<Vec<u64>> =
        addrs.iter().map(|a| gpu_sim::coalesce::coalesce(a, line_bits)).collect();
    let mut mem = MemorySystem::new(cfg);
    let smxs = u64::from(cfg.num_smxs);
    let mut now: u64 = 0;
    let mut issued: u64 = 0;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for (m, l) in ops.iter().zip(&coalesced) {
            let smx = SmxId((issued % smxs) as u16);
            let latency = mem.warp_access(smx, l, m.is_store, AccessClass::Parent, now);
            now += (black_box(latency) / smxs).max(1);
            issued += 1;
        }
    }
    let access_ns = ratio(ns_since(t0) as f64, (rounds * ops.len()) as f64);
    (coalesce_ns, access_ns)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynpar::{LaunchLatency, LaunchModelKind};
    use sim_metrics::harness::{run_once, SchedulerKind};
    use workloads::{suite, Scale, SharedSource};

    #[test]
    fn a_traced_cell_reproduces_the_untraced_record_and_partitions_its_time() {
        let mut cfg = GpuConfig::kepler_k20c();
        cfg.profile_locality = true;
        let w = suite(Scale::Tiny).into_iter().find(|w| w.full_name() == "amr").expect("amr");
        let (model, sched) = (LaunchModelKind::Dtbl, SchedulerKind::AdaptiveBind);
        let untraced = run_once(&w, model, sched, &cfg).expect("untraced run");

        let probe = Arc::new(Probe::default());
        let sim = TracedSim {
            workload: w.full_name(),
            source: Box::new(SharedSource(w.clone())),
            scheduler: sched.build(&cfg),
            launch: model.build(LaunchLatency::default_for(model)),
        };
        let (stats, wall_ns) = run_traced(&cfg, sim, &probe, |s| {
            for hk in w.host_kernels() {
                s.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req)?;
            }
            Ok(())
        })
        .expect("traced run");
        assert!(matches_record(&stats, &untraced));

        let mut totals = Totals::default();
        totals.add(&stats, wall_ns, untraced.host.ns);
        let mut out = LayerValues::new();
        let violations = totals.layer_metrics(&probe, &mut out);
        assert!(violations.is_empty(), "{violations:?}");
        let shares: f64 = out
            .iter()
            .filter(|(k, _)| k.starts_with("engine.host_share."))
            .map(|(_, v)| v)
            .sum::<f64>()
            + out["trace.unattributed_share"];
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert_eq!(out["program.calls"], stats.tb_records.len() as f64);
        assert!(out["tb_sched.pick_yield"] > 0.0 && out["tb_sched.pick_yield"] <= 1.0);
        assert!(out["launch.submits"] > 0.0);
        for name in out.keys() {
            assert!(PER_LAYER.iter().any(|m| m.0 == *name), "undeclared metric {name}");
        }

        let (coalesce_ns, access_ns) = replay_memory(&probe.captured_ops(), &cfg);
        assert!(coalesce_ns > 0.0 && access_ns > 0.0);
    }
}
