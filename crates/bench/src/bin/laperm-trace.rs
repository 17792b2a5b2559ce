//! Perfetto trace exporter CLI: run one (workload × launch model ×
//! scheduler) simulation with full tracing and write a Chrome
//! `trace_event` JSON document loadable in <https://ui.perfetto.dev>.
//!
//! ```text
//! laperm-trace [options]
//!   --workload <name>      suite workload (default bfs-citation); only it is built.
//!                          "list" prints the 16 names in suite order, generating no input
//!   --scheduler <name>     rr | tb-pri | smx-bind | adaptive-bind | random (default adaptive-bind)
//!   --model <name>         cdp | dtbl (default dtbl)
//!   --scale <name>         tiny | ci | small | paper (default small)
//!   --seed <n>             input seed (default 0)
//!   --smxs <n>             override SMX count
//!   --out <path>           output file (default trace.json)
//!   --sample-every <n>     IPC counter sampling window in cycles (default 1000, 0 = off)
//!   --check                validate the document and exit non-zero on violation
//!   --metrics              also print the run's metrics registry
//!   --locality             profile cache-hit provenance; print the per-class reuse summary
//!   --engine-profile       profile the run; print the two-clock engine self-profile summary
//!   --latency              profile the run (as --engine-profile); print the TB lifecycle
//!                          attribution summary
//! ```
//!
//! A profiled run (either flag) also draws the engine's host-time track
//! and the launch-DAG critical path as flow arrows in the trace.
//!
//! Argument parsing is strict ([`laperm_bench::cli`]): any token that
//! is not a recognized flag (or a recognized flag's value) exits 2,
//! listing the valid flags and names. A typo'd or `--flag=value`-style
//! argument therefore fails loudly instead of silently running with
//! defaults.
//!
//! A profiler summary whose statistics are missing from the finished
//! run is likewise a hard error, never an empty table: an empty table
//! is indistinguishable from a measured zero.

use dynpar::LaunchLatency;
use gpu_sim::config::GpuConfig;
use gpu_sim::trace::VecSink;
use laperm_bench::cli::RunFlags;
use sim_metrics::{perfetto_json, registry_for_run, validate_trace};

fn main() {
    let (run, flags) = RunFlags::from_env(
        &["--out", "--sample-every"],
        &["--check", "--metrics", "--locality", "--engine-profile", "--latency"],
    );
    let out = flags.value("--out").unwrap_or("trace.json");
    let sample_every = flags.number("--sample-every").unwrap_or(1000);
    let (engine_profile, latency) = (flags.has("--engine-profile"), flags.has("--latency"));

    let mut cfg = GpuConfig::kepler_k20c();
    cfg.profile_locality = flags.has("--locality");
    cfg.profile_engine = engine_profile || latency;
    let sink = VecSink::new();
    let mut sim =
        run.simulator(cfg, LaunchLatency::default_for(run.model), Some(Box::new(sink.clone())));
    let (max_cycles, num_smxs) = (sim.config().max_cycles, sim.config().num_smxs);

    // Step manually, one cycle at a time on the cycle-stepped oracle,
    // so the machine can be sampled for the IPC counter track.
    let mut samples = Vec::new();
    if sample_every > 0 {
        samples.push(sim.sample());
    }
    let mut next_sample = sample_every;
    while !sim.is_done() {
        if let Err(e) = sim.step() {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
        if sample_every > 0 && sim.cycle() >= next_sample {
            samples.push(sim.sample());
            next_sample = sim.cycle() + sample_every;
        }
        if sim.cycle() > max_cycles {
            eprintln!("simulation exceeded {max_cycles} cycles");
            std::process::exit(1);
        }
    }
    let stats = sim.stats();
    let records = sink.records();

    let json = perfetto_json(&records, &stats, &samples, num_smxs);
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }

    println!(
        "{} | {} | {} | {} SMXs | seed {}",
        run.workload.full_name(),
        run.model,
        stats.scheduler,
        num_smxs,
        run.seed
    );
    println!(
        "{} cycles, {} trace events, {} TB records -> {} ({} bytes)",
        stats.cycles,
        records.len(),
        stats.tb_records.len(),
        out,
        json.len()
    );

    match validate_trace(&json) {
        Ok(check) => println!(
            "validated: {} events, {} SMX tracks, {} spans, {} counter samples \
             ({} provenance), {} instants, {} critical-path flows",
            check.events,
            check.smx_tracks,
            check.spans,
            check.counters,
            check.prov_counters,
            check.instants,
            check.flows
        ),
        Err(e) => {
            eprintln!("trace validation failed: {e}");
            if flags.has("--check") {
                std::process::exit(1);
            }
        }
    }

    if flags.has("--metrics") {
        let registry = registry_for_run(&stats, &records);
        print!("\n{}", registry.render());
    }

    if flags.has("--locality") {
        match locality_summary(&stats) {
            Some(s) => print!("\n{s}"),
            None => missing_profile("--locality", "locality"),
        }
    }

    if engine_profile {
        match engine_summary(&stats) {
            Some(s) => print!("\n{s}"),
            None => missing_profile("--engine-profile", "engine"),
        }
    }

    if latency {
        match latency_summary(&stats) {
            Some(s) => print!("\n{s}"),
            None => missing_profile("--latency", "latency"),
        }
    }
}

/// A profiler summary was requested but the finished run carries no
/// such statistics. Hard-error instead of printing an empty table: an
/// empty table reads as a measured zero, and profiling cannot be
/// recovered after the run — it must be enabled on the simulation
/// config before it executes.
fn missing_profile(flag: &str, what: &str) -> ! {
    eprintln!(
        "{flag} was given but the run produced no {what} statistics; \
         the simulation config did not enable the {what} profiler. \
         Rerun with {flag} on a build whose config honors it \
         (profiling cannot be reconstructed from a finished run)."
    );
    std::process::exit(1);
}

/// Renders the two-clock engine self-profile: the simulated clock's
/// wake-source decomposition and loop-shape histograms, then the host
/// clock's sampled per-component wall time. `None` when the run did
/// not profile the engine (the caller hard-errors).
fn engine_summary(stats: &gpu_sim::stats::SimStats) -> Option<String> {
    use gpu_sim::stats::{WakeSource, ENGINE_HOST_COMPONENTS};
    use sim_metrics::report::Table;
    let eng = stats.engine.as_ref()?;
    let mut t = Table::new(vec!["wake source", "iterations", "share"]);
    let total = eng.wake_total().max(1);
    for src in WakeSource::ALL {
        let c = eng.wake_count(src);
        t.row(vec![
            src.name().to_string(),
            c.to_string(),
            format!("{:.1}%", 100.0 * c as f64 / total as f64),
        ]);
    }
    let mut out = format!(
        "engine self-profile\n{}\
         loop iterations: {} over {} cycles ({:.3} iters/cycle)\n\
         fast-forward jumps: {} (mean {:.1} cycles, max {})\n\
         event-heap depth: mean {:.1}, max {}\n",
        t.render(),
        eng.loop_iterations,
        stats.cycles,
        eng.loop_iterations as f64 / (stats.cycles.max(1)) as f64,
        eng.jump_len.count,
        eng.jump_len.mean(),
        eng.jump_len.max,
        eng.heap_depth.mean(),
        eng.heap_depth.max,
    );
    let mut h = Table::new(vec!["component", "host time", "share"]);
    let host_total = eng.host_total_ns().max(1);
    for (i, comp) in ENGINE_HOST_COMPONENTS.iter().enumerate() {
        let ns = eng.host_ns[i];
        h.row(vec![
            comp.to_string(),
            format!("{:.3} ms", ns as f64 / 1e6),
            format!("{:.1}%", 100.0 * ns as f64 / host_total as f64),
        ]);
    }
    out.push_str(&format!(
        "\nhost time by component ({} of {} iterations sampled, stride {})\n{}\
         dominant component: {}\n",
        eng.host_samples,
        eng.loop_iterations,
        eng.host_sampling,
        h.render(),
        eng.dominant_component().unwrap_or("-"),
    ));
    Some(out)
}

/// Renders the TB lifecycle attribution summary: the four-way lifetime
/// decomposition, the bound/stolen child queue-wait split, queue wait
/// by nesting depth, and the launch-DAG critical path. `None` when the
/// run did not profile latency (the caller hard-errors).
fn latency_summary(stats: &gpu_sim::stats::SimStats) -> Option<String> {
    use gpu_sim::stats::LatencyStats;
    use sim_metrics::report::Table;
    let lat = stats.latency.as_ref()?;
    let mut t = Table::new(vec!["component", "quantiles"]);
    for (name, h) in [
        ("lifetime", &lat.lifetime),
        ("launch path", &lat.launch_path),
        ("  of which KMU wait", &lat.kmu_wait),
        ("queue wait", &lat.queue_wait),
        ("dispatch gap", &lat.dispatch_gap),
        ("exec", &lat.exec),
        ("child queue wait", &lat.child_queue_wait),
        ("  bound children", &lat.bound_queue_wait),
        ("  stolen children", &lat.stolen_queue_wait),
    ] {
        t.row(vec![name.to_string(), LatencyStats::quantile_line(h)]);
    }
    let mut d = Table::new(vec!["nesting depth", "TBs", "queue wait"]);
    for (depth, h) in &lat.depth_queue_wait {
        d.row(vec![depth.to_string(), h.count.to_string(), LatencyStats::quantile_line(h)]);
    }
    let cp = &lat.critical_path;
    Some(format!(
        "latency attribution ({} TBs, {} partition violations, KMU depth high-water {})\n{}\
         \nqueue wait by nesting depth\n{}\
         \ncritical path: {} TBs, {} cycles ({} queue / {} exec, {:.1}% scheduling-induced)\n",
        lat.tbs,
        lat.partition_violations,
        lat.kmu_depth_hwm,
        t.render(),
        d.render(),
        cp.len,
        cp.cycles,
        cp.queue_cycles,
        cp.exec_cycles,
        100.0 * cp.queue_cycles as f64 / (cp.queue_cycles + cp.exec_cycles).max(1) as f64,
    ))
}

/// Renders the per-class reuse summary for a profiled run: hit counts
/// and shares per lineage class at each cache level, mean reuse
/// distances, plus the L2 same/cross-SMX and bound/stolen splits.
/// `None` when the run did not profile locality (the caller
/// hard-errors).
fn locality_summary(stats: &gpu_sim::stats::SimStats) -> Option<String> {
    use gpu_sim::cache::ReuseClass;
    use sim_metrics::report::Table;
    let loc = stats.locality.as_ref()?;
    let mut t = Table::new(vec![
        "reuse class",
        "l1 hits",
        "l1 share",
        "l1 dist",
        "l2 hits",
        "l2 share",
        "l2 dist",
    ]);
    for class in ReuseClass::ALL {
        let i = class.index();
        t.row(vec![
            class.name().to_string(),
            stats.l1.prov.class(class).to_string(),
            format!("{:.1}%", 100.0 * stats.l1.prov.share(class)),
            format!("{:.0} cyc", loc.l1_reuse_dist[i].mean()),
            stats.l2.prov.class(class).to_string(),
            format!("{:.1}%", 100.0 * stats.l2.prov.share(class)),
            format!("{:.0} cyc", loc.l2_reuse_dist[i].mean()),
        ]);
    }
    Some(format!(
        "locality provenance\n{}\
         L2 hits on installing SMX: {} same, {} cross\n\
         child L1 hits: bound {} ({:.1}% parent-child), stolen {} ({:.1}% parent-child)\n",
        t.render(),
        stats.l2.prov.same_smx,
        stats.l2.prov.cross_smx,
        loc.bind.bound_hits,
        100.0 * loc.bind.bound_share(),
        loc.bind.stolen_hits,
        100.0 * loc.bind.stolen_share(),
    ))
}
