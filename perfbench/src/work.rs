//! The benchmark workloads: set-up, one timed pass, the pass's
//! correctness checks, and the traced run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::{EngineMode, GpuConfig, LaunchLimits, OverflowPolicy};
use gpu_sim::engine::Simulator;
use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::{KernelKindId, LaunchSpec, ProgramSource, TbOp, TbProgram};
use gpu_sim::stats::SimStats;
use gpu_sim::tb_sched::RoundRobinScheduler;
use laperm_bench::sweep::{matrix_cells_for, FootprintRow, MatrixCell};
use laperm_bench::{
    ablate, cell_key, check_document, fig2, fig7, fig8, fig9, figure4, full_report, generality,
    latency_sweep, locality, overhead, parallel_map, run_cells, run_matrix_cells_resilient,
    sweep_cache, table1, table2, timeline, variance, MatrixRecords, Resilience, SweepDoc,
};
use sim_metrics::harness::{run_once, RunRecord};
use sim_metrics::journal::{fnv1a64, read_journal, JournalWriter};
use sim_metrics::json::{parse, run_from_json, run_to_json, Json};
use sim_metrics::FootprintAnalysis;
use wdsl::{compile_workload, ExecMode};
use workloads::{suite_seeded, Scale, SharedSource, Workload};

use crate::layers::{
    matches_record, ns_since, ratio, replay_memory, run_traced, LayerValues, Probe, Totals,
    TracedSim,
};
use crate::metrics::{percentile, tail_percentile};

/// Storms in one `launch-storm` pass.
const STORM_BATCH: usize = 100;

/// Every workload this program runs.
pub const WORKLOADS: &[&str] = &["repro-tiny", "launch-storm"];

/// One simulation's simulated work and host time.
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated thread instructions.
    pub insts: u64,
    /// Host nanoseconds in the simulation.
    pub ns: u64,
}

impl Sim {
    fn from_record(r: &RunRecord) -> Sim {
        Sim { cycles: r.cycles, insts: (r.ipc * r.cycles as f64).round() as u64, ns: r.host.ns }
    }
}

/// Simulation statistics of one pass.
#[derive(Debug, Clone, Copy)]
pub struct SimSummary {
    /// Simulated cycles per host second spent in simulations.
    pub cycles_per_s: f64,
    /// Simulated thread instructions per host second in simulations.
    pub insts_per_s: f64,
    /// Median per-simulation host milliseconds.
    pub p50_ms: f64,
    /// Per-simulation host milliseconds at percentile `tail`.
    pub tail_ms: f64,
    /// The highest percentile up to 90 with 10 simulations beyond it.
    pub tail: u32,
}

impl SimSummary {
    /// Summarizes one pass's simulations.
    pub fn of(sims: &[Sim]) -> SimSummary {
        let ns: f64 = sims.iter().map(|s| s.ns as f64).sum();
        let per_s = |total: u64| ratio(total as f64 * 1e9, ns);
        let ms: Vec<f64> = sims.iter().map(|s| s.ns as f64 / 1e6).collect();
        let tail = tail_percentile(ms.len(), 90).unwrap_or(50);
        SimSummary {
            cycles_per_s: per_s(sims.iter().map(|s| s.cycles).sum()),
            insts_per_s: per_s(sims.iter().map(|s| s.insts).sum()),
            p50_ms: percentile(&ms, 50),
            tail_ms: percentile(&ms, tail),
            tail,
        }
    }
}

/// Correctness checks made so far, and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Adds another set of checks to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// One timed pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// The simulations it ran.
    pub sims: Vec<Sim>,
    /// Its checks: one per simulation plus the pass-level ones.
    pub checks: Checks,
    /// Matrix records, for the `ipc_gain` headline (matrix workloads).
    pub records: Vec<RunRecord>,
}

impl Pass {
    fn broken(wall_s: f64, what: String) -> Pass {
        let mut checks = Checks::default();
        checks.check(false, || what);
        Pass { wall_s, checks, ..Pass::default() }
    }
}

/// A benchmark workload: its inputs, and the set-up each pass consumes.
pub trait Bench {
    /// Scale name, for provenance.
    fn scale(&self) -> &'static str;
    /// Sweep workers, for provenance.
    fn workers(&self) -> usize;
    /// The set-up a user pays before the first simulation, timed as
    /// `setup_s`: it builds what the next pass consumes.
    ///
    /// # Errors
    ///
    /// Reports a set-up failure.
    fn prepare(&mut self) -> Result<(), String>;
    /// Runs and checks one timed pass on the last set-up.
    fn pass(&mut self) -> Pass;
    /// Whether the pass records make the `ipc_gain` headline.
    fn reports_ipc_gain(&self) -> bool {
        false
    }
    /// The traced run: fills `out` with per-layer metrics and `checks`
    /// with the traced run's integrity checks.
    fn trace(&mut self, out: &mut LayerValues, checks: &mut Checks);
}

/// Workload `name` at `seed`, its inputs made and checked but not yet
/// set up; `tmp` is a scratch directory the workload may use.
///
/// # Errors
///
/// Reports an unknown workload or inputs that fail their check.
pub fn open(name: &str, seed: u64, tmp: &Path) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "repro-tiny" => Box::new(ReproTiny::new(seed, tmp)),
        "launch-storm" => Box::new(LaunchStorm::new(seed)?),
        other => return Err(format!("unknown workload {other}; choose {}", WORKLOADS.join(", "))),
    })
}

/// The sweep configuration every matrix in this repository runs under.
fn matrix_config() -> GpuConfig {
    let mut cfg = GpuConfig::kepler_k20c();
    cfg.profile_locality = true;
    cfg.engine_mode = EngineMode::Event;
    cfg
}

/// Figure 2's shared-footprint rows of `suite`, on `jobs` workers.
fn footprints(suite: &[Arc<dyn Workload>], jobs: usize) -> Vec<FootprintRow> {
    parallel_map(suite, jobs, |w| {
        let a = FootprintAnalysis::analyze(w.as_ref());
        FootprintRow {
            workload: a.workload,
            parent_child: a.parent_child,
            child_sibling: a.child_sibling,
            parent_parent: a.parent_parent,
        }
    })
}

/// Checks each record of a sweep and each failure it reported.
fn check_sweep(checks: &mut Checks, doc: &SweepDoc, cells: usize) {
    for r in &doc.records {
        checks.check(r.cycles > 0 && r.total_tbs > 0, || {
            format!("{}/{}/{} ran no work", r.workload, r.launch_model, r.scheduler)
        });
    }
    for f in &doc.failures {
        checks.check(false, || {
            format!("{}/{}/{} failed: {}", f.workload, f.launch_model, f.scheduler, f.error)
        });
    }
    checks.check(doc.total_cells() == cells, || {
        format!("sweep covered {} of {cells} cells", doc.total_cells())
    });
}

/// Re-drives matrix cells one at a time, each untraced and then under the
/// layer wrappers, and checks both against the record of the same cell in
/// `untraced`. The serial untraced run is the base of
/// `trace.overhead_ratio`, so that both sides run under the same
/// conditions.
fn trace_matrix_cells(
    cells: &[MatrixCell],
    untraced: &[RunRecord],
    cfg: &GpuConfig,
    checks: &mut Checks,
) -> (Totals, Arc<Probe>) {
    let probe = Arc::new(Probe::default());
    let mut totals = Totals::default();
    for (cell, reference) in cells.iter().zip(untraced) {
        let serial = match run_once(&cell.workload, cell.model, cell.scheduler, cfg) {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("serial untraced cell failed: {e}"));
                continue;
            }
        };
        checks.check(serial == *reference, || {
            format!("serial untraced {} diverged from the sweep record", serial.workload)
        });
        let sim = TracedSim {
            workload: cell.workload.full_name(),
            source: Box::new(SharedSource(cell.workload.clone())),
            scheduler: cell.scheduler.build(cfg),
            launch: cell.model.build(LaunchLatency::default_for(cell.model)),
        };
        let what = || format!("{} {} {}", cell.workload.full_name(), cell.model, cell.scheduler);
        match run_traced(cfg, sim, &probe, |s| {
            for hk in cell.workload.host_kernels() {
                s.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req)?;
            }
            Ok(())
        }) {
            Ok((stats, wall_ns)) => {
                checks.check(matches_record(&stats, reference), || {
                    format!("traced {} diverged from the untraced record", what())
                });
                totals.add(&stats, wall_ns, serial.host.ns);
            }
            Err(e) => checks.check(false, || format!("traced {} failed: {e}", what())),
        }
    }
    checks.check(cells.len() == untraced.len(), || "traced and untraced cell counts differ".into());
    (totals, probe)
}

/// Adds the layer metrics of a traced sweep and the memory replay.
fn finish_layers(
    totals: &Totals,
    probe: &Probe,
    cfg: &GpuConfig,
    out: &mut LayerValues,
    checks: &mut Checks,
) {
    for v in totals.layer_metrics(probe, out) {
        checks.check(false, || v);
    }
    let (coalesce_ns, access_ns) = replay_memory(&probe.captured_ops(), cfg);
    if coalesce_ns > 0.0 {
        out.insert("coalesce.ns_per_warp_op", coalesce_ns);
        out.insert("mem.ns_per_warp_access", access_ns);
    }
}

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// The harness layers, timed from their public calls: a sweep of `cells`
/// into an empty cache directory `dir` and a resume from it (the
/// resilience layer), then cell keys, record JSON encode and decode, and
/// journal append and read, each over many rounds. Returns the cold
/// sweep's records.
fn trace_harness(
    cells: &[MatrixCell],
    cfg: &GpuConfig,
    tag: &str,
    dir: &Path,
    jobs: usize,
    out: &mut LayerValues,
    checks: &mut Checks,
) -> Vec<RunRecord> {
    const ROUNDS: usize = 20;
    let res = Resilience { cache_dir: Some(dir.join("cells")), ..Resilience::default() };
    let cold = run_matrix_cells_resilient(cells, jobs, cfg, tag, &res);
    let warm = run_matrix_cells_resilient(cells, jobs, cfg, tag, &res);
    let ((cold, _), (warm, warm_rep)) = match (cold, warm) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) | (_, Err(e)) => {
            checks.check(false, || format!("cache sweep: {e}"));
            return Vec::new();
        }
    };
    let hit_ratio = ratio(warm_rep.cache_hits as f64, cells.len() as f64);
    out.insert("resilience.hit_ratio", hit_ratio);
    checks.check(hit_ratio == 1.0 && warm.records == cold.records, || {
        format!("resume hit ratio {hit_ratio}, same records: {}", warm.records == cold.records)
    });
    let records = cold.records;

    let (keys, key_s) = seconds(|| {
        let mut keys = Vec::new();
        for _ in 0..ROUNDS {
            keys = cells.iter().map(|c| cell_key(c, cfg, tag, None)).collect();
        }
        keys
    });
    let per_round = (ROUNDS * records.len()) as f64;
    out.insert("resilience.key_us", key_s * 1e6 / per_round);

    let (encoded, encode_s) = seconds(|| {
        let mut texts = Vec::new();
        for _ in 0..ROUNDS {
            texts = records.iter().map(|r| run_to_json(r).render()).collect::<Vec<_>>();
        }
        texts
    });
    out.insert("json.encode_us_per_run", encode_s * 1e6 / per_round);
    let (decoded, decode_s) = seconds(|| {
        let mut runs = Vec::new();
        for _ in 0..ROUNDS {
            runs = encoded.iter().map(|t| parse(t).and_then(|v| run_from_json(&v))).collect();
        }
        runs
    });
    out.insert("json.decode_us_per_run", decode_s * 1e6 / per_round);
    checks.check(decoded.iter().zip(&records).all(|(d, r)| d.as_ref() == Ok(r)), || {
        "JSON decode did not reproduce the records".into()
    });

    let path = dir.join("trace.journal");
    let payloads: Vec<String> = keys
        .iter()
        .zip(&records)
        .map(|(k, r)| {
            Json::Obj(vec![("key".into(), Json::Str(k.clone())), ("run".into(), run_to_json(r))])
                .render()
        })
        .collect();
    let journal = (|| -> std::io::Result<(f64, u64, f64, usize)> {
        let (mut writer, _) = JournalWriter::open_repairing(&path)?;
        let t0 = Instant::now();
        for p in &payloads {
            writer.append(p.as_bytes())?;
        }
        let append_s = t0.elapsed().as_secs_f64();
        drop(writer);
        let bytes = std::fs::metadata(&path)?.len() - sim_metrics::journal::MAGIC.len() as u64;
        let t0 = Instant::now();
        let mut read = 0;
        for _ in 0..ROUNDS {
            read = read_journal(&path)?.payloads.len();
        }
        Ok((append_s, bytes, t0.elapsed().as_secs_f64(), read))
    })();
    // Best effort: a leftover directory only costs disk space.
    let _ = std::fs::remove_dir_all(dir);
    match journal {
        Ok((append_s, bytes, read_s, read)) => {
            let n = payloads.len() as f64;
            out.insert("journal.append_us", append_s * 1e6 / n);
            out.insert("journal.bytes_per_record", bytes as f64 / n);
            out.insert("journal.read_us_per_record", read_s * 1e6 / (n * ROUNDS as f64));
            checks.check(read == payloads.len(), || format!("journal read back {read} records"));
        }
        Err(e) => checks.check(false, || format!("journal layer: {e}")),
    }
    records
}

// ---------------------------------------------------------------------
// repro-tiny

/// `repro all --scale tiny` in one process on two sweep workers.
struct ReproTiny {
    seed: u64,
    /// Scratch directory for the traced run's cell cache.
    tmp: PathBuf,
    /// The matrix suite the next pass sweeps.
    suite: Option<Vec<Arc<dyn Workload>>>,
    /// Passes run so far.
    passes: usize,
    /// FNV-1a 64 of the first pass's `repro.json` and report.
    digest: Option<u64>,
}

impl ReproTiny {
    const JOBS: usize = 2;
    const SCALE: Scale = Scale::Tiny;

    fn new(seed: u64, tmp: &Path) -> ReproTiny {
        ReproTiny { seed, tmp: tmp.join("repro-tiny"), suite: None, passes: 0, digest: None }
    }

    fn tag(&self) -> String {
        format!("{}/{}", Self::SCALE.name(), self.seed)
    }

    /// The matrix sweep document, as `SweepDoc::build_resilient` makes it
    /// under the default policy, but on the suite the set-up generated.
    fn sweep(&self, suite: &[Arc<dyn Workload>]) -> Result<SweepDoc, String> {
        let cells = matrix_cells_for(suite);
        let (outcome, _) = run_matrix_cells_resilient(
            &cells,
            Self::JOBS,
            &matrix_config(),
            &self.tag(),
            &Resilience::default(),
        )?;
        Ok(SweepDoc {
            scale: Self::SCALE.name().to_string(),
            seed: self.seed,
            records: outcome.records,
            failures: outcome.failures,
            footprints: footprints(suite, Self::JOBS),
        })
    }

    /// Re-runs one workload's sub-matrix with its programs served by the
    /// compiled DSL's bytecode VM, an independent program path, and checks
    /// that it gives the pass's records. The workload rotates with the
    /// pass.
    fn check_program_path(&self, suite: &[Arc<dyn Workload>], doc: &SweepDoc, checks: &mut Checks) {
        let w = &suite[(self.seed as usize + self.passes) % suite.len()];
        let name = w.full_name();
        let compiled: Arc<dyn Workload> = match compile_workload(w.as_ref(), ExecMode::Vm) {
            Ok(Some(c)) => Arc::new(c),
            other => {
                let why = other.err().map_or("no DSL port".into(), |e| e.to_string());
                checks.check(false, || format!("{name} did not compile to the DSL VM: {why}"));
                return;
            }
        };
        let sub = matrix_cells_for(&[compiled]);
        let vm = run_matrix_cells_resilient(
            &sub,
            1,
            &matrix_config(),
            &self.tag(),
            &Resilience::default(),
        );
        let expected: Vec<&RunRecord> = doc.records.iter().filter(|r| r.workload == name).collect();
        let same =
            vm.map(|(o, _)| o.failures.is_empty() && o.records.iter().eq(expected.iter().copied()));
        checks.check(same == Ok(true) && expected.len() == sub.len(), || {
            format!("DSL VM and generator programs disagree on {name}: {same:?}")
        });
    }

    /// One checked pass, also returning the `repro.json` text and the
    /// report it rendered.
    fn pass_with_output(&mut self) -> (Pass, String, String) {
        let Some(suite) = self.suite.take() else {
            return (
                Pass::broken(0.0, "pass without a set-up".into()),
                String::new(),
                String::new(),
            );
        };
        let t0 = Instant::now();
        let doc = match self.sweep(&suite) {
            Ok(doc) => doc,
            Err(e) => {
                return (Pass::broken(t0.elapsed().as_secs_f64(), e), String::new(), String::new())
            }
        };
        let json = doc.to_json();
        let report =
            full_report(Self::SCALE, Self::JOBS, &MatrixRecords::from_records(doc.records.clone()));
        let wall_s = t0.elapsed().as_secs_f64();

        let mut checks = Checks::default();
        check_sweep(&mut checks, &doc, matrix_cells_for(&suite).len());
        let digest = fnv1a64(format!("{json}{report}").as_bytes());
        let first = *self.digest.get_or_insert(digest);
        checks.check(digest == first, || "repro.json or the report changed between passes".into());
        let round_trip = SweepDoc::from_json(&json).map(|d| d.to_json() == json);
        checks.check(round_trip == Ok(true), || format!("repro.json round trip: {round_trip:?}"));
        self.check_program_path(&suite, &doc, &mut checks);
        if self.passes == 0 {
            // The shape assertions are calibrated at ci scale, so at this
            // scale they are reported, not gated.
            let outcomes = check_document(&doc).0;
            let missed: Vec<&str> = outcomes.iter().filter(|o| !o.passed).map(|o| o.id).collect();
            println!(
                "repro check at tiny scale, seed {}: {}/{} assertions hold {missed:?}",
                self.seed,
                outcomes.len() - missed.len(),
                outcomes.len()
            );
        }
        self.passes += 1;
        let sims = doc.records.iter().map(Sim::from_record).collect();
        (Pass { wall_s, sims, checks, records: doc.records }, json, report)
    }
}

impl Bench for ReproTiny {
    fn scale(&self) -> &'static str {
        Self::SCALE.name()
    }

    fn workers(&self) -> usize {
        Self::JOBS
    }

    fn reports_ipc_gain(&self) -> bool {
        true
    }

    /// Generates the suite the matrix sweeps.
    fn prepare(&mut self) -> Result<(), String> {
        self.suite = Some(suite_seeded(Self::SCALE, self.seed));
        Ok(())
    }

    fn pass(&mut self) -> Pass {
        self.pass_with_output().0
    }

    fn trace(&mut self, out: &mut LayerValues, checks: &mut Checks) {
        let scale = Self::SCALE;
        let (suite, suite_s) = seconds(|| suite_seeded(scale, self.seed));
        out.insert("workloads.suite_build_s", suite_s);

        // The untraced reference: the same pass the timed runs make.
        let (reference, expected_json, expected_report) = self.pass_with_output();
        checks.absorb(reference.checks);

        // Sweep layer: the matrix on two workers, each cell timestamped.
        let cfg = matrix_config();
        let cells = matrix_cells_for(&suite);
        let t0 = Instant::now();
        let runs = run_cells(&cells, Self::JOBS, |cell| {
            let start = t0.elapsed();
            let record = run_once(&cell.workload, cell.model, cell.scheduler, &cfg);
            (record, start, t0.elapsed(), std::thread::current().id())
        });
        let cells_wall = t0.elapsed();
        let footprints = footprints(&suite, Self::JOBS);
        let matrix_s = t0.elapsed().as_secs_f64();
        let mut records = Vec::new();
        let mut busy = Duration::ZERO;
        let mut last_end: Vec<(std::thread::ThreadId, Duration)> = Vec::new();
        for run in runs {
            match run {
                Ok((Ok(record), start, end, worker)) => {
                    records.push(record);
                    busy += end - start;
                    match last_end.iter_mut().find(|(w, _)| *w == worker) {
                        Some((_, e)) => *e = (*e).max(end),
                        None => last_end.push((worker, end)),
                    }
                }
                Ok((Err(e), ..)) => checks.check(false, || format!("sweep cell: {e}")),
                Err(e) => checks.check(false, || format!("sweep cell panicked: {e}")),
            }
        }
        let ends: Vec<Duration> = last_end.iter().map(|(_, e)| *e).collect();
        let tail = ends
            .iter()
            .max()
            .zip(ends.iter().min())
            .map_or(0.0, |(hi, lo)| (*hi - *lo).as_secs_f64() * 1e3);
        out.insert(
            "sweep.worker_busy_share",
            ratio(busy.as_secs_f64(), cells_wall.as_secs_f64() * Self::JOBS as f64),
        );
        out.insert("sweep.tail_ms", tail);
        out.insert("experiments.matrix_s", matrix_s);
        let doc = SweepDoc {
            scale: scale.name().to_string(),
            seed: self.seed,
            records,
            failures: Vec::new(),
            footprints,
        };
        checks.check(doc.to_json() == expected_json, || {
            "traced sweep document differs from the untraced one".into()
        });

        // Experiments layer: each section of the report on its own clock.
        let m = MatrixRecords::from_records(doc.records.clone());
        let jobs = Self::JOBS;
        let mut report = String::new();
        let mut render_s = 0.0;
        let sections: [(&str, &dyn Fn() -> String); 15] = [
            ("", &table1),
            ("", &|| table2(scale)),
            ("experiments.fig2_s", &|| fig2(scale, jobs)),
            ("", &figure4),
            ("", &|| fig7(&m)),
            ("", &|| fig8(&m)),
            ("", &|| fig9(&m)),
            ("", &|| locality(&m)),
            ("experiments.latency_sweep_s", &|| latency_sweep(scale, jobs)),
            ("experiments.timeline_s", &|| timeline(scale, jobs)),
            ("experiments.variance_s", &|| variance(scale, jobs)),
            ("experiments.sweep_cache_s", &|| sweep_cache(scale, jobs)),
            ("experiments.generality_s", &|| generality(scale, jobs)),
            ("experiments.overhead_s", &|| overhead(scale, jobs)),
            ("experiments.ablate_s", &|| ablate(scale, jobs)),
        ];
        for (metric, section) in sections {
            let (text, s) = seconds(section);
            report.push_str(&text);
            report.push_str("\n\n");
            if metric.is_empty() {
                render_s += s;
            } else {
                out.insert(metric, s);
            }
        }
        out.insert("experiments.render_s", render_s);
        checks.check(report == expected_report, || {
            "sections rendered one by one differ from full_report".into()
        });

        // Program-source compilation and the harness layers, so this one
        // workload measures every layer.
        let (compiled, compile_s) = seconds(|| {
            suite.iter().map(|w| compile_workload(w.as_ref(), ExecMode::Vm)).collect::<Vec<_>>()
        });
        out.insert("wdsl.compile_s", compile_s);
        checks.check(compiled.iter().all(|c| matches!(c, Ok(Some(_)))), || {
            "a suite workload failed to compile".into()
        });
        let cached = trace_harness(&cells, &cfg, &self.tag(), &self.tmp, Self::JOBS, out, checks);
        checks.check(cached == reference.records, || "cached sweep records differ".into());

        // Engine-level layers: every matrix cell re-driven under the
        // wrappers, serially.
        let (totals, probe) = trace_matrix_cells(&cells, &reference.records, &cfg, checks);
        finish_layers(&totals, &probe, &cfg, out, checks);
    }
}

// ---------------------------------------------------------------------
// launch-storm

/// A CDP relay: generation `g` (kernel kind 0, one TB) computes briefly,
/// then launches the next generation plus `fanout[g]` one-TB leaf
/// kernels (leaf flag in the parameter's high bit), until `depth`
/// generations have run. The bursts overflow a two-slot pending-launch
/// buffer into the spill queue, so launch-path queueing dominates
/// simulated time.
#[derive(Clone)]
struct StormSource {
    fanout: Arc<[u32]>,
    depth: u64,
}

const STORM_LEAF_BIT: u64 = 1 << 32;

/// Relay length of storm `j` of a pass. The storms of a pass range from
/// 100 to 298 generations, so their host times form a distribution of
/// distinct simulations rather than repeats of one.
fn storm_depth(j: usize) -> u64 {
    100 + 2 * j as u64
}

impl StormSource {
    /// The fan-out table for every generation any storm of a pass runs.
    fn seeded(seed: u64) -> StormSource {
        let depth = storm_depth(STORM_BATCH - 1);
        // SplitMix64 per generation: 2 to 5 leaves each.
        let fanout = (0..depth)
            .map(|g| {
                let mut z = seed.wrapping_add((g + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                2 + ((z ^ (z >> 31)) % 4) as u32
            })
            .collect();
        StormSource { fanout, depth }
    }

    fn with_depth(&self, depth: u64) -> StormSource {
        StormSource { fanout: self.fanout.clone(), depth }
    }

    /// TBs the storm retires, in closed form: one per generation plus
    /// every leaf.
    fn expected_tbs(&self) -> usize {
        let leaves: u32 = self.fanout[..self.depth as usize - 1].iter().sum();
        self.depth as usize + leaves as usize
    }

    /// TBs the storm retires, counted by walking the launch tree through
    /// the programs themselves.
    fn walked_tbs(&self) -> usize {
        let mut pending = vec![(KernelKindId(0), 0u64, 1u32)];
        let mut tbs = 0;
        while let Some((kind, param, num_tbs)) = pending.pop() {
            for tb in 0..num_tbs {
                tbs += 1;
                pending.extend(
                    self.tb_program(kind, param, tb)
                        .launches()
                        .map(|l| (l.kind, l.param, l.num_tbs)),
                );
            }
        }
        tbs
    }
}

impl ProgramSource for StormSource {
    fn tb_program(&self, kind: KernelKindId, param: u64, _tb: u32) -> TbProgram {
        let gen = param & (STORM_LEAF_BIT - 1);
        let leaf = param & STORM_LEAF_BIT != 0;
        let mut ops = vec![TbOp::Compute(8)];
        if !leaf && gen + 1 < self.depth {
            let spec = |param| {
                TbOp::Launch(LaunchSpec {
                    kind,
                    param,
                    num_tbs: 1,
                    req: ResourceReq::new(32, 8, 0),
                })
            };
            // Continuation first, so the relay claims a buffer slot
            // before its leaves saturate it.
            ops.push(spec(gen + 1));
            for _ in 0..self.fanout[gen as usize] {
                ops.push(spec((gen + 1) | STORM_LEAF_BIT));
            }
        }
        TbProgram::new(ops)
    }
}

/// What must repeat exactly between runs of one storm. Kept compact
/// rather than as whole `SimStats`, so that holding one per storm does not
/// make peak memory depend on allocation order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StormPrint {
    cycles: u64,
    thread_instructions: u64,
    launch_counters: Vec<(&'static str, u64)>,
    /// FNV-1a over every TB's identity, SMX and lifecycle cycles.
    tbs: u64,
}

impl StormPrint {
    fn of(stats: &SimStats) -> StormPrint {
        let tbs = stats.tb_records.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
            [
                u64::from(r.tb.batch.0),
                u64::from(r.tb.index),
                u64::from(r.smx.0),
                r.created_at,
                r.dispatched_at,
                r.finished_at,
            ]
            .iter()
            .fold(h, |h, &v| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3))
        });
        StormPrint {
            cycles: stats.cycles,
            thread_instructions: stats.thread_instructions,
            launch_counters: stats.launch_counters.clone(),
            tbs,
        }
    }
}

/// [`STORM_BATCH`] storms of growing depth on the Table I machine.
struct LaunchStorm {
    storms: Vec<StormSource>,
    expected_tbs: Vec<usize>,
    cfg: GpuConfig,
    /// Each storm's print from its first run; later runs must match.
    reference: Vec<Option<StormPrint>>,
    /// One simulator per storm, root kernel launched, for the next pass.
    ready: Vec<Simulator>,
}

impl LaunchStorm {
    /// The storms of `seed`, each checked once: its launch tree, walked
    /// through the programs, must hold the closed-form TB count.
    fn new(seed: u64) -> Result<LaunchStorm, String> {
        let mut cfg = GpuConfig::kepler_k20c();
        cfg.launch_limits = LaunchLimits {
            pending_launch_capacity: Some(2),
            policy: OverflowPolicy::SpillVirtual { extra_latency: 2500 },
            ..LaunchLimits::unbounded()
        };
        let table = StormSource::seeded(seed);
        let storms: Vec<StormSource> =
            (0..STORM_BATCH).map(|j| table.with_depth(storm_depth(j))).collect();
        let mut expected_tbs = Vec::new();
        for storm in &storms {
            let (closed, walked) = (storm.expected_tbs(), storm.walked_tbs());
            if walked != closed {
                return Err(format!(
                    "storm of depth {} has {walked} TBs in its launch tree, closed form {closed}",
                    storm.depth
                ));
            }
            expected_tbs.push(closed);
        }
        Ok(LaunchStorm {
            storms,
            expected_tbs,
            cfg,
            reference: vec![None; STORM_BATCH],
            ready: Vec::new(),
        })
    }
}

fn launch_storm_root(sim: &mut Simulator) -> Result<(), gpu_sim::error::SimError> {
    sim.launch_host_kernel(KernelKindId(0), 0, 1, ResourceReq::new(32, 8, 0)).map(drop)
}

fn spill_events(stats: &SimStats) -> u64 {
    stats.launch_counters.iter().find(|(k, _)| *k == "spill_events").map_or(0, |(_, v)| *v)
}

impl Bench for LaunchStorm {
    fn scale(&self) -> &'static str {
        "storm"
    }

    fn workers(&self) -> usize {
        1
    }

    /// Builds every storm's simulator and launches its root kernel.
    fn prepare(&mut self) -> Result<(), String> {
        self.ready = Vec::with_capacity(self.storms.len());
        for storm in &self.storms {
            let mut sim = Simulator::new(self.cfg.clone(), Box::new(storm.clone()))
                .with_launch_model(LaunchModelKind::Cdp.build_default());
            launch_storm_root(&mut sim).map_err(|e| format!("storm root launch: {e}"))?;
            self.ready.push(sim);
        }
        Ok(())
    }

    fn pass(&mut self) -> Pass {
        let ready = std::mem::take(&mut self.ready);
        if ready.len() != self.storms.len() {
            return Pass::broken(0.0, "pass without a set-up".into());
        }
        let mut pass = Pass::default();
        let t0 = Instant::now();
        for (j, (storm, mut sim)) in self.storms.iter().zip(ready).enumerate() {
            let t = Instant::now();
            let result = sim.run_to_completion();
            let ns = ns_since(t);
            match result {
                Ok(stats) => {
                    let tbs = stats.tb_records.len();
                    let spills = spill_events(&stats);
                    let print = StormPrint::of(&stats);
                    let repeats = print == *self.reference[j].get_or_insert_with(|| print.clone());
                    pass.checks.check(tbs == self.expected_tbs[j] && spills > 0 && repeats, || {
                        format!(
                            "storm of depth {} retired {tbs} TBs (expected {}), {spills} spill \
                             events, repeatable: {repeats}",
                            storm.depth, self.expected_tbs[j]
                        )
                    });
                    pass.sims.push(Sim {
                        cycles: stats.cycles,
                        insts: stats.thread_instructions,
                        ns,
                    });
                }
                Err(e) => pass.checks.check(false, || format!("storm failed: {e}")),
            }
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass
    }

    fn trace(&mut self, out: &mut LayerValues, checks: &mut Checks) {
        let reference = self.pass();
        checks.absorb(reference.checks);
        let probe = Arc::new(Probe::default());
        let mut totals = Totals::default();
        for ((storm, expected), u) in self.storms.iter().zip(&self.reference).zip(&reference.sims) {
            let sim = TracedSim {
                workload: "launch-storm".into(),
                source: Box::new(storm.clone()),
                scheduler: Box::new(RoundRobinScheduler::new()),
                launch: LaunchModelKind::Cdp.build_default(),
            };
            match run_traced(&self.cfg, sim, &probe, launch_storm_root) {
                Ok((stats, wall_ns)) => {
                    checks.check(Some(&StormPrint::of(&stats)) == expected.as_ref(), || {
                        format!("traced storm of depth {} diverged", storm.depth)
                    });
                    totals.add(&stats, wall_ns, u.ns);
                }
                Err(e) => checks.check(false, || format!("traced storm failed: {e}")),
            }
        }
        finish_layers(&totals, &probe, &self.cfg, out, checks);
    }
}
