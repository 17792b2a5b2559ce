//! Metric plumbing: names, summary statistics, the headline `ipc_gain`,
//! the result line, and the baseline comparison.

use dynpar::LaunchModelKind;
use laperm_bench::MatrixRecords;
use sim_metrics::harness::{RunRecord, SchedulerKind};
use sim_metrics::json::{parse, Json};

/// The paper's average Adaptive-Bind IPC gain over round-robin, measured
/// on GPGPU-Sim (Figure 9).
pub const PAPER_IPC_GAIN: f64 = 0.27;

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// One measured number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `1/s`, `share`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// `true` when `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile `p <= want` that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond its nearest-rank
/// position, or `None` when even the 1st percentile does not.
pub fn tail_percentile(n: usize, want: u32) -> Option<u32> {
    (1..=want.min(99)).rev().find(|&p| n - nearest_rank(n, p) >= TAIL_SAMPLES)
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Percentile `p` of `xs` by the nearest-rank rule; 0 when empty.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p).min(v.len()) - 1]
}

/// The headline gain: the mean over (workload, launch model) pairs of
/// Adaptive-Bind IPC / round-robin IPC − 1, normalized exactly as
/// Figure 9 does. `None` when a pair lacks either record.
pub fn ipc_gain(records: &[RunRecord]) -> Option<f64> {
    let m = MatrixRecords::from_records(records.to_vec());
    let mut gains = Vec::new();
    for w in m.workloads() {
        for model in LaunchModelKind::all() {
            let r = m.get(&w, model.name(), SchedulerKind::AdaptiveBind.name())?;
            gains.push(m.normalized_ipc(r)? - 1.0);
        }
    }
    if gains.is_empty() {
        return None;
    }
    Some(gains.iter().sum::<f64>() / gains.len() as f64)
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. A non-finite value
/// cannot be written as JSON, so it is written as 0; it and an invalid
/// metric name both mark the result incorrect.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let sound = metrics.iter().all(|m| m.value.is_finite() && valid_name(&m.name));
    let body = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{}: {{\"value\": {value:?}, \"unit\": {}}}", quote(&m.name), quote(m.unit))
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        correct && sound
    )
}

fn quote(s: &str) -> String {
    Json::Str(s.to_string()).render()
}

/// How one end-to-end metric may worsen, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Reports JSON syntax errors and missing or mistyped fields.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(benchmark_json)?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("missing 'end_to_end'")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without 'name'")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without 'better'")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without 'bound'")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// What a previous run's standard output recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedRun {
    /// `host_cpus` from the `provenance:` line, if present.
    pub host_cpus: Option<usize>,
    /// `(name, value)` of every metric on the result line.
    pub values: Vec<(String, f64)>,
}

/// Reads a previous run's standard output: the `provenance:` line and
/// the final result line.
///
/// # Errors
///
/// Reports output without a parseable result line.
pub fn parse_run_output(text: &str) -> Result<SavedRun, String> {
    let host_cpus = text
        .lines()
        .filter(|l| l.starts_with("provenance:"))
        .flat_map(str::split_whitespace)
        .find_map(|field| field.strip_prefix("host_cpus="))
        .and_then(|n| n.parse().ok());
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("empty output")?;
    let doc = parse(last)?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no 'metrics' object".into());
    };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(SavedRun { host_cpus, values })
}

/// Compares current end-to-end metrics against a baseline run. A metric
/// worse than the baseline by more than its bound is `FAIL`, or `MISS`
/// when the two runs come from hosts with different CPU counts (their
/// wall-clock numbers are not comparable). Returns `(no FAIL, report)`.
pub fn compare_to_baseline(
    current: &[Metric],
    baseline: &[(String, f64)],
    bounds: &[Bound],
    hosts: (Option<usize>, usize),
) -> (bool, String) {
    let cross_host = hosts.0 != Some(hosts.1);
    let mut ok = true;
    let mut report = String::new();
    if cross_host {
        let base = hosts.0.map_or("an unknown".to_string(), |n| format!("a {n}-cpu"));
        report.push_str(&format!(
            "  NOTE baseline came from {base} host, this run from a {}-cpu host; \
             misses are annotated MISS, not failed\n",
            hosts.1
        ));
    }
    for b in bounds {
        let (Some(cur), Some((_, base))) = (
            current.iter().find(|m| m.name == b.name),
            baseline.iter().find(|(n, _)| *n == b.name),
        ) else {
            report.push_str(&format!("  NEW  {}: no baseline value\n", b.name));
            continue;
        };
        let worse_by = if *base == 0.0 {
            0.0
        } else if b.lower_is_better {
            cur.value / base - 1.0
        } else {
            1.0 - cur.value / base
        };
        let tag = if worse_by <= b.bound {
            "OK  "
        } else if cross_host {
            "MISS"
        } else {
            ok = false;
            "FAIL"
        };
        report.push_str(&format!(
            "  {tag} {}: {} vs baseline {base} ({:+.1}% worse, bound {:.0}%)\n",
            b.name,
            cur.value,
            worse_by * 100.0,
            b.bound * 100.0
        ));
    }
    (ok, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_character_rule() {
        for good in ["wall_s", "engine.host_share.smx", "sim_p90_ms", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".lead", "-lead", "has space", "slash/no", "é", "semi;colon"] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn every_declared_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = crate::END_TO_END.iter().map(|m| m.0).collect();
        names.extend(crate::layers::PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(100, 90), Some(90));
        assert_eq!(tail_percentile(1000, 90), Some(90));
        // 99 samples: p90 sits at rank 90 and leaves only 9 beyond.
        assert_eq!(tail_percentile(99, 90), Some(89));
        assert_eq!(tail_percentile(20, 90), Some(50));
        assert_eq!(tail_percentile(11, 90), Some(9));
        assert_eq!(tail_percentile(10, 90), None);
        for n in 11..400 {
            let p = tail_percentile(n, 90).expect("enough samples");
            assert!(n - nearest_rank(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            if p < 90 {
                assert!(n - nearest_rank(n, p + 1) < TAIL_SAMPLES, "n={n}: p{} also fits", p + 1);
            }
        }
    }

    #[test]
    fn percentile_and_median_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ipc_gain_agrees_with_the_figure9_adaptive_column() {
        use gpu_sim::config::GpuConfig;
        use laperm_bench::sweep::{matrix_cells_for, run_matrix_cells};
        use workloads::{suite, Scale};

        let mut cfg = GpuConfig::kepler_k20c();
        cfg.profile_locality = true;
        let picked: Vec<_> = suite(Scale::Tiny)
            .into_iter()
            .filter(|w| ["bfs-citation", "join-uniform"].contains(&w.full_name().as_str()))
            .collect();
        let outcome = run_matrix_cells(&matrix_cells_for(&picked), 2, &cfg);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        let gain = ipc_gain(&outcome.records).expect("complete matrix");

        // Figure 9 prints one AVERAGE row per launch model; its last
        // column is the Adaptive-Bind mean, rounded to two decimals.
        let fig = laperm_bench::fig9(&MatrixRecords::from_records(outcome.records));
        let averages: Vec<f64> = fig
            .lines()
            .filter(|l| l.starts_with("AVERAGE"))
            .map(|l| {
                let last = l.split_whitespace().last().expect("adaptive column");
                last.trim_end_matches('x').parse::<f64>().expect("ratio")
            })
            .collect();
        assert_eq!(averages.len(), 2, "{fig}");
        let from_figure = averages.iter().sum::<f64>() / 2.0 - 1.0;
        assert!((gain - from_figure).abs() <= 0.005 + 1e-9, "{gain} vs {from_figure}");
    }

    #[test]
    fn ipc_gain_needs_both_schedulers() {
        assert_eq!(ipc_gain(&[]), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[Metric::new("wall_s", 1.25, "s"), Metric::new("setup_s", 0.5, "s")],
        );
        let doc = parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));

        let broken = result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]);
        assert!(broken.starts_with("{\"correct\": false"), "{broken}");
    }

    #[test]
    fn baseline_from_another_host_is_annotated_not_failed() {
        let bounds = vec![Bound { name: "wall_s".into(), lower_is_better: true, bound: 0.1 }];
        let current = [Metric::new("wall_s", 2.0, "s")];
        let baseline = vec![("wall_s".to_string(), 1.0)];
        let (ok, report) = compare_to_baseline(&current, &baseline, &bounds, (Some(2), 2));
        assert!(!ok && report.contains("FAIL wall_s"), "{report}");
        let (ok, report) = compare_to_baseline(&current, &baseline, &bounds, (Some(1), 2));
        assert!(ok && report.contains("MISS wall_s"), "{report}");
        let (ok, report) = compare_to_baseline(&current, &baseline, &bounds, (None, 2));
        assert!(ok && report.contains("MISS"), "{report}");
        let within = [Metric::new("wall_s", 1.05, "s")];
        let (ok, report) = compare_to_baseline(&within, &baseline, &bounds, (Some(2), 2));
        assert!(ok && report.contains("OK   wall_s"), "{report}");
    }

    #[test]
    fn run_output_round_trips_through_the_parser() {
        let line = result_line(true, 3, 0, &[Metric::new("wall_s", 1.5, "s")]);
        let text = format!("provenance: host_cpus=4 seed=0\nwall_s = 1.5 s\n{line}\n");
        let saved = parse_run_output(&text).expect("parses");
        assert_eq!(saved.host_cpus, Some(4));
        assert_eq!(saved.values, vec![("wall_s".to_string(), 1.5)]);
    }

    #[test]
    fn benchmark_json_declares_the_metrics_this_program_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        let e2e: Vec<String> = crate::END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layers: Vec<String> =
            crate::layers::PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        for w in names("workloads") {
            assert!(crate::WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
        }
        assert!(parse_bounds(&text).expect("bounds").iter().all(|b| b.bound <= 0.25));
    }
}
