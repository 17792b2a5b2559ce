//! Chrome/Perfetto `trace_event` JSON export.
//!
//! [`perfetto_json`] renders one run — its [`TraceRecord`] stream, final
//! [`SimStats`], and optional [`MachineSample`] series — as a JSON
//! document loadable directly in <https://ui.perfetto.dev> or
//! `chrome://tracing`:
//!
//! * each SMX is a process track (pid = SMX index) carrying the TB
//!   residency spans that ran on it, as async `b`/`e` pairs whose
//!   category distinguishes `parent` from `child` TBs;
//! * device launches, stage-3 steals, and backup adoptions are instant
//!   events on the SMX they happened on;
//! * queue-set occupancies and windowed IPC are counter tracks;
//! * KMU/KDU activity, priority assignment, and fast-forward jumps live
//!   on a synthetic "Engine" track (pid = number of SMXs);
//! * engine-profiled runs add a "Host" track (pid = number of SMXs + 1)
//!   whose `host:<component>` spans lay the sampled host-nanosecond
//!   cost of each pipeline stage end to end, so wall-time hot spots
//!   render next to the sim-time story they explain;
//! * latency-profiled runs draw the launch-DAG critical path as flow
//!   arrows (`s`/`f` pairs): one arrow per parent→child edge on the
//!   chain, leaving the parent's track when the child is created and
//!   landing on the child's track when it dispatches, so the
//!   scheduling-induced inflation is visible as arrow length.
//!
//! Timestamps are simulation cycles used directly as the format's
//! microsecond `ts` field (1 cycle = 1 µs on screen). Everything is
//! hand-rolled — the workspace has no serde — and [`validate_trace`]
//! re-parses a document line by line to enforce the invariants CI cares
//! about: well-formed shape, non-decreasing `ts`, and matched `b`/`e`
//! pairs.

use gpu_sim::stats::{MachineSample, SimStats, ENGINE_HOST_COMPONENTS};
use gpu_sim::trace::{TraceEvent, TraceRecord};
use std::collections::HashMap;

/// Sort rank so simultaneous events order sensibly: metadata first, then
/// span opens, then counters/instants, then span closes.
fn rank(ph: char) -> u8 {
    match ph {
        'M' => 0,
        'b' => 1,
        // Flow points sort with counters/instants: an `f` landing at a
        // child's dispatch cycle must follow the `b` that opens its span.
        'C' | 'i' | 'X' | 's' | 'f' => 2,
        _ => 3,
    }
}

/// Renders a run as a Chrome `trace_event` JSON document (object format,
/// one event per line). `samples`, when non-empty, adds a windowed IPC
/// counter; pass `&[]` if none were collected.
pub fn perfetto_json(
    records: &[TraceRecord],
    stats: &SimStats,
    samples: &[MachineSample],
    num_smxs: u16,
) -> String {
    let engine_pid = u64::from(num_smxs);
    let mut events: Vec<(u64, u8, String)> = Vec::new();
    let mut push = |ts: u64, ph: char, line: String| {
        events.push((ts, rank(ph), line));
    };

    // Track metadata: one process per SMX plus the engine track, with
    // sort indices keeping SMX order stable in the UI.
    for p in 0..u64::from(num_smxs) {
        push(
            0,
            'M',
            format!(
                "{{\"ph\": \"M\", \"pid\": {p}, \"tid\": 0, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"SMX{p}\"}}}}"
            ),
        );
        push(
            0,
            'M',
            format!(
                "{{\"ph\": \"M\", \"pid\": {p}, \"tid\": 0, \"name\": \"process_sort_index\", \
                 \"args\": {{\"sort_index\": {p}}}}}"
            ),
        );
    }
    push(
        0,
        'M',
        format!(
            "{{\"ph\": \"M\", \"pid\": {engine_pid}, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"Engine\"}}}}"
        ),
    );

    // TB residency spans: async begin/end pairs matched by category + id,
    // drawn on the SMX the TB ran on. The record index is a unique id.
    let mut smx_of: HashMap<(u32, u32), u64> = HashMap::new();
    for (i, r) in stats.tb_records.iter().enumerate() {
        let pid = u64::from(r.smx.0);
        smx_of.insert((r.tb.batch.0, r.tb.index), pid);
        let cat = if r.is_dynamic { "child" } else { "parent" };
        let name = format!("B{}.{}", r.tb.batch.0, r.tb.index);
        let end = if r.finished_at >= r.dispatched_at { r.finished_at } else { stats.cycles };
        let parent = match r.parent {
            Some((pb, ptb, psmx)) => {
                format!(", \"parent\": \"B{}.{}\", \"parent_smx\": {}", pb.0, ptb, psmx.0)
            }
            None => String::new(),
        };
        push(
            r.dispatched_at,
            'b',
            format!(
                "{{\"ph\": \"b\", \"cat\": \"{cat}\", \"id\": \"0x{i:x}\", \"pid\": {pid}, \
                 \"tid\": 0, \"name\": \"{name}\", \"ts\": {}, \
                 \"args\": {{\"priority\": {}, \"kind\": {}, \"created_at\": {}{parent}}}}}",
                r.dispatched_at, r.priority.0, r.kind.0, r.created_at
            ),
        );
        push(
            end,
            'e',
            format!(
                "{{\"ph\": \"e\", \"cat\": \"{cat}\", \"id\": \"0x{i:x}\", \"pid\": {pid}, \
                 \"tid\": 0, \"name\": \"{name}\", \"ts\": {end}}}"
            ),
        );
    }

    // Launch-DAG critical path: one flow arrow per edge of the chain,
    // from the parent's track at the child's creation cycle to the
    // child's track at its dispatch cycle. The arrow's length on screen
    // IS the child's launch-path + queue-wait — the scheduling-induced
    // part of the critical path.
    if let Some(lat) = &stats.latency {
        let mut index_of: HashMap<(u32, u32), usize> = HashMap::new();
        for (i, r) in stats.tb_records.iter().enumerate() {
            index_of.insert((r.tb.batch.0, r.tb.index), i);
        }
        for (edge, pair) in lat.critical_path.chain.windows(2).enumerate() {
            let (Some(&pi), Some(&ci)) = (
                index_of.get(&(pair[0].batch.0, pair[0].index)),
                index_of.get(&(pair[1].batch.0, pair[1].index)),
            ) else {
                continue;
            };
            let (parent, child) = (&stats.tb_records[pi], &stats.tb_records[ci]);
            let queue_wait = child.dispatched_at.saturating_sub(child.created_at);
            push(
                child.created_at,
                's',
                format!(
                    "{{\"ph\": \"s\", \"cat\": \"critical_path\", \"id\": \"0xcp{edge:x}\", \
                     \"pid\": {}, \"tid\": 0, \"name\": \"critical-path\", \"ts\": {}, \
                     \"args\": {{\"from\": \"B{}.{}\", \"to\": \"B{}.{}\"}}}}",
                    u64::from(parent.smx.0),
                    child.created_at,
                    parent.tb.batch.0,
                    parent.tb.index,
                    child.tb.batch.0,
                    child.tb.index
                ),
            );
            push(
                child.dispatched_at,
                'f',
                format!(
                    "{{\"ph\": \"f\", \"bp\": \"e\", \"cat\": \"critical_path\", \
                     \"id\": \"0xcp{edge:x}\", \"pid\": {}, \"tid\": 0, \
                     \"name\": \"critical-path\", \"ts\": {}, \
                     \"args\": {{\"queue_wait\": {queue_wait}}}}}",
                    u64::from(child.smx.0),
                    child.dispatched_at
                ),
            );
        }
    }

    // Engine events, queue counters, and SMX instants from the trace.
    for r in records {
        let ts = r.cycle;
        match r.event {
            TraceEvent::KernelQueued { batch } => push(
                ts,
                'i',
                format!(
                    "{{\"ph\": \"i\", \"pid\": {engine_pid}, \"tid\": 0, \"s\": \"p\", \
                     \"name\": \"kernel-queued\", \"ts\": {ts}, \"args\": {{\"batch\": {}}}}}",
                    batch.0
                ),
            ),
            TraceEvent::KernelToKdu { batch, entry } => push(
                ts,
                'i',
                format!(
                    "{{\"ph\": \"i\", \"pid\": {engine_pid}, \"tid\": 0, \"s\": \"p\", \
                     \"name\": \"kernel-to-kdu\", \"ts\": {ts}, \
                     \"args\": {{\"batch\": {}, \"entry\": {entry}}}}}",
                    batch.0
                ),
            ),
            TraceEvent::GroupCoalesced { batch, entry } => push(
                ts,
                'i',
                format!(
                    "{{\"ph\": \"i\", \"pid\": {engine_pid}, \"tid\": 0, \"s\": \"p\", \
                     \"name\": \"group-coalesced\", \"ts\": {ts}, \
                     \"args\": {{\"batch\": {}, \"entry\": {entry}}}}}",
                    batch.0
                ),
            ),
            // Dispatch/retire pairs are already rendered as spans from
            // `stats.tb_records`.
            TraceEvent::TbDispatched { .. } | TraceEvent::TbCompleted { .. } => {}
            TraceEvent::LaunchIssued { by, num_tbs } => {
                let pid = smx_of.get(&(by.batch.0, by.index)).copied().unwrap_or(engine_pid);
                push(
                    ts,
                    'i',
                    format!(
                        "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": 0, \"s\": \"t\", \
                         \"name\": \"launch\", \"ts\": {ts}, \
                         \"args\": {{\"by\": \"B{}.{}\", \"num_tbs\": {num_tbs}}}}}",
                        by.batch.0, by.index
                    ),
                );
            }
            TraceEvent::QueueEnqueued { set, depth, .. }
            | TraceEvent::QueueDequeued { set, depth, .. } => push(
                ts,
                'C',
                format!(
                    "{{\"ph\": \"C\", \"pid\": {}, \"tid\": 0, \"name\": \"queue_depth\", \
                     \"ts\": {ts}, \"args\": {{\"entries\": {depth}}}}}",
                    u64::from(set)
                ),
            ),
            TraceEvent::Stage3Steal { thief, victim_set, batch, tbs_moved } => push(
                ts,
                'i',
                format!(
                    "{{\"ph\": \"i\", \"pid\": {}, \"tid\": 0, \"s\": \"t\", \
                     \"name\": \"steal\", \"ts\": {ts}, \
                     \"args\": {{\"victim_set\": {victim_set}, \"batch\": {}, \
                     \"tbs_moved\": {tbs_moved}}}}}",
                    u64::from(thief.0),
                    batch.0
                ),
            ),
            TraceEvent::PriorityAssigned { batch, raw, clamped } => push(
                ts,
                'i',
                format!(
                    "{{\"ph\": \"i\", \"pid\": {engine_pid}, \"tid\": 0, \"s\": \"p\", \
                     \"name\": \"priority-assigned\", \"ts\": {ts}, \
                     \"args\": {{\"batch\": {}, \"raw\": {}, \"clamped\": {}}}}}",
                    batch.0, raw.0, clamped.0
                ),
            ),
            TraceEvent::BackupAdopted { smx, backup_set } => push(
                ts,
                'i',
                format!(
                    "{{\"ph\": \"i\", \"pid\": {}, \"tid\": 0, \"s\": \"t\", \
                     \"name\": \"backup-adopted\", \"ts\": {ts}, \
                     \"args\": {{\"backup_set\": {backup_set}}}}}",
                    u64::from(smx.0)
                ),
            ),
            TraceEvent::FastForward { from, to } => push(
                from,
                'X',
                format!(
                    "{{\"ph\": \"X\", \"pid\": {engine_pid}, \"tid\": 0, \
                     \"name\": \"fast-forward\", \"ts\": {from}, \"dur\": {}}}",
                    to - from
                ),
            ),
        }
    }

    // Host-time track: one span per pipeline stage, durations in
    // sampled host nanoseconds laid end to end from ts 0. Only emitted
    // when a run profiled the engine and actually sampled something —
    // the track is telemetry about the simulator process, not the
    // simulated machine.
    let host_pid = u64::from(num_smxs) + 1;
    if let Some(eng) = stats.engine.as_ref().filter(|e| e.host_total_ns() > 0) {
        push(
            0,
            'M',
            format!(
                "{{\"ph\": \"M\", \"pid\": {host_pid}, \"tid\": 0, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"Host\"}}}}"
            ),
        );
        let mut at = 0u64;
        for (i, comp) in ENGINE_HOST_COMPONENTS.iter().enumerate() {
            let ns = eng.host_ns[i];
            if ns == 0 {
                continue;
            }
            push(
                at,
                'X',
                format!(
                    "{{\"ph\": \"X\", \"pid\": {host_pid}, \"tid\": 0, \
                     \"name\": \"host:{comp}\", \"ts\": {at}, \"dur\": {ns}, \
                     \"args\": {{\"samples\": {}}}}}",
                    eng.host_samples
                ),
            );
            at += ns;
        }
    }

    // Windowed IPC counter on the engine track.
    for pair in samples.windows(2) {
        let ts = pair[1].cycle;
        push(
            ts,
            'C',
            format!(
                "{{\"ph\": \"C\", \"pid\": {engine_pid}, \"tid\": 0, \"name\": \"ipc\", \
                 \"ts\": {ts}, \"args\": {{\"ipc\": {:.4}}}}}",
                pair[1].ipc_since(&pair[0])
            ),
        );
    }

    // Windowed parent-child reuse counters, only for profiled runs (the
    // sample fields are all-zero otherwise and would draw flat tracks).
    if stats.locality.is_some() {
        for pair in samples.windows(2) {
            let ts = pair[1].cycle;
            let l1 = pair[1].l1_parent_child_hits.saturating_sub(pair[0].l1_parent_child_hits);
            let l2 = pair[1].l2_parent_child_hits.saturating_sub(pair[0].l2_parent_child_hits);
            push(
                ts,
                'C',
                format!(
                    "{{\"ph\": \"C\", \"pid\": {engine_pid}, \"tid\": 0, \
                     \"name\": \"l1_parent_child_hits\", \"ts\": {ts}, \
                     \"args\": {{\"hits\": {l1}}}}}"
                ),
            );
            push(
                ts,
                'C',
                format!(
                    "{{\"ph\": \"C\", \"pid\": {engine_pid}, \"tid\": 0, \
                     \"name\": \"l2_parent_child_hits\", \"ts\": {ts}, \
                     \"args\": {{\"hits\": {l2}}}}}"
                ),
            );
        }
    }

    events.sort_by_key(|a| (a.0, a.1));
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, (_, _, line)) in events.iter().enumerate() {
        out.push_str(line);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Summary counts from a validated trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events.
    pub events: usize,
    /// `SMX<n>` process tracks declared.
    pub smx_tracks: usize,
    /// Completed `b`/`e` span pairs.
    pub spans: usize,
    /// Counter samples (`ph: C`).
    pub counters: usize,
    /// Of `counters`, locality provenance samples (the
    /// `l1_parent_child_hits` / `l2_parent_child_hits` tracks emitted
    /// for profiled runs).
    pub prov_counters: usize,
    /// Instant events (`ph: i`).
    pub instants: usize,
    /// Host-time stage spans (`ph: X` events named `host:*`, emitted
    /// only for engine-profiled runs).
    pub host_spans: usize,
    /// Completed `s`/`f` flow pairs (critical-path edges, emitted only
    /// for latency-profiled runs).
    pub flows: usize,
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn field_num(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Re-parses a [`perfetto_json`] document and checks the invariants the
/// CI smoke step enforces: the object wrapper is well formed, braces
/// balance on every event line, `ts` never decreases, every async
/// span open has exactly one matching close (by category + id), and
/// every flow start (`s`) has exactly one finish (`f`).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_trace(json: &str) -> Result<TraceCheck, String> {
    let trimmed = json.trim();
    if !trimmed.starts_with("{\"traceEvents\": [") || !trimmed.ends_with("]}") {
        return Err("missing traceEvents object wrapper".to_string());
    }
    let mut check = TraceCheck::default();
    let mut last_ts = 0u64;
    let mut open_spans: HashMap<(String, String), usize> = HashMap::new();
    let mut open_flows: HashMap<(String, String), usize> = HashMap::new();
    for (lineno, raw) in json.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"ph\"") {
            continue;
        }
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        if opens != closes {
            return Err(format!("line {}: unbalanced braces", lineno + 1));
        }
        let ph = field_str(line, "ph").ok_or_else(|| format!("line {}: no ph", lineno + 1))?;
        check.events += 1;
        if ph != "M" {
            let ts = field_num(line, "ts").ok_or_else(|| format!("line {}: no ts", lineno + 1))?;
            if ts < last_ts {
                return Err(format!("line {}: ts {} decreases below {}", lineno + 1, ts, last_ts));
            }
            last_ts = ts;
        }
        match ph.as_str() {
            "M" => {
                if field_str(line, "name").as_deref() == Some("process_name") {
                    let args_name = line.rfind("\"name\": \"").map(|i| &line[i + 9..]);
                    if args_name.is_some_and(|n| n.starts_with("SMX")) {
                        check.smx_tracks += 1;
                    }
                }
            }
            "b" | "e" => {
                let cat = field_str(line, "cat")
                    .ok_or_else(|| format!("line {}: span without cat", lineno + 1))?;
                let id = field_str(line, "id")
                    .ok_or_else(|| format!("line {}: span without id", lineno + 1))?;
                let entry = open_spans.entry((cat, id)).or_insert(0);
                if ph == "b" {
                    *entry += 1;
                } else {
                    if *entry == 0 {
                        return Err(format!("line {}: e without matching b", lineno + 1));
                    }
                    *entry -= 1;
                    check.spans += 1;
                }
            }
            "C" => {
                check.counters += 1;
                if matches!(
                    field_str(line, "name").as_deref(),
                    Some("l1_parent_child_hits" | "l2_parent_child_hits")
                ) {
                    check.prov_counters += 1;
                }
            }
            "i" | "X" => {
                check.instants += 1;
                if ph == "X" && field_str(line, "name").is_some_and(|n| n.starts_with("host:")) {
                    check.host_spans += 1;
                }
            }
            "s" | "t" | "f" => {
                let cat = field_str(line, "cat")
                    .ok_or_else(|| format!("line {}: flow without cat", lineno + 1))?;
                let id = field_str(line, "id")
                    .ok_or_else(|| format!("line {}: flow without id", lineno + 1))?;
                let entry = open_flows.entry((cat, id)).or_insert(0);
                match ph.as_str() {
                    "s" => *entry += 1,
                    "t" => {
                        if *entry == 0 {
                            return Err(format!("line {}: t without matching s", lineno + 1));
                        }
                    }
                    _ => {
                        if *entry == 0 {
                            return Err(format!("line {}: f without matching s", lineno + 1));
                        }
                        *entry -= 1;
                        check.flows += 1;
                    }
                }
            }
            other => return Err(format!("line {}: unknown ph {other}", lineno + 1)),
        }
    }
    if let Some(((cat, id), _)) = open_spans.iter().find(|(_, &n)| n > 0) {
        return Err(format!("unclosed span {cat}/{id}"));
    }
    if let Some(((cat, id), _)) = open_flows.iter().find(|(_, &n)| n > 0) {
        return Err(format!("unfinished flow {cat}/{id}"));
    }
    if check.events == 0 {
        return Err("empty trace".to_string());
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use gpu_sim::program::KernelKindId;
    use gpu_sim::stats::TbRecord;
    use gpu_sim::types::{BatchId, Priority, SmxId, TbRef};

    fn tb(batch: u32, index: u32, smx: u16, dynamic: bool, span: (u64, u64)) -> TbRecord {
        TbRecord {
            tb: TbRef { batch: BatchId(batch), index },
            kind: KernelKindId(u16::from(dynamic)),
            smx: SmxId(smx),
            priority: Priority(u8::from(dynamic)),
            is_dynamic: dynamic,
            parent: dynamic.then_some((BatchId(0), 0, SmxId(0))),
            created_at: span.0.saturating_sub(2),
            matured_at: span.0.saturating_sub(2),
            schedulable_at: span.0,
            dispatched_at: span.0,
            first_issue_at: span.0,
            finished_at: span.1,
        }
    }

    fn sample_stats() -> SimStats {
        SimStats {
            cycles: 100,
            tb_records: vec![tb(0, 0, 0, false, (0, 50)), tb(1, 0, 1, true, (20, 70))],
            ..Default::default()
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord { cycle: 0, event: TraceEvent::KernelQueued { batch: BatchId(0) } },
            TraceRecord {
                cycle: 4,
                event: TraceEvent::QueueEnqueued { batch: BatchId(1), set: 0, level: 1, depth: 1 },
            },
            TraceRecord {
                cycle: 10,
                event: TraceEvent::LaunchIssued {
                    by: TbRef { batch: BatchId(0), index: 0 },
                    num_tbs: 1,
                },
            },
            TraceRecord {
                cycle: 18,
                event: TraceEvent::Stage3Steal {
                    thief: SmxId(1),
                    victim_set: 0,
                    batch: BatchId(1),
                    tbs_moved: 1,
                },
            },
            TraceRecord { cycle: 80, event: TraceEvent::FastForward { from: 80, to: 100 } },
        ]
    }

    #[test]
    fn export_validates_and_counts_tracks() {
        let json = perfetto_json(&sample_records(), &sample_stats(), &[], 4);
        let check = validate_trace(&json).expect("valid trace");
        assert_eq!(check.smx_tracks, 4);
        assert_eq!(check.spans, 2);
        assert!(check.counters >= 1);
        assert!(check.instants >= 3);
        assert!(json.contains("\"cat\": \"parent\""));
        assert!(json.contains("\"cat\": \"child\""));
        assert!(json.contains("\"name\": \"steal\""));
        assert!(json.contains("\"name\": \"fast-forward\""));
    }

    #[test]
    fn ipc_counter_from_samples() {
        let samples = [
            MachineSample { cycle: 0, thread_instructions: 0, ..Default::default() },
            MachineSample { cycle: 50, thread_instructions: 100, ..Default::default() },
            MachineSample { cycle: 100, thread_instructions: 300, ..Default::default() },
        ];
        let json = perfetto_json(&[], &sample_stats(), &samples, 2);
        assert!(json.contains("\"name\": \"ipc\""));
        assert!(json.contains("\"ipc\": 2.0000"));
        assert!(json.contains("\"ipc\": 4.0000"));
        validate_trace(&json).expect("valid trace");
    }

    #[test]
    fn prov_counters_emitted_only_for_profiled_runs() {
        let samples = [
            MachineSample { cycle: 0, ..Default::default() },
            MachineSample {
                cycle: 50,
                thread_instructions: 100,
                l1_parent_child_hits: 30,
                l2_parent_child_hits: 10,
                ..Default::default()
            },
            MachineSample {
                cycle: 100,
                thread_instructions: 200,
                l1_parent_child_hits: 70,
                l2_parent_child_hits: 15,
                ..Default::default()
            },
        ];
        let plain = perfetto_json(&[], &sample_stats(), &samples, 2);
        assert_eq!(validate_trace(&plain).unwrap().prov_counters, 0);
        assert!(!plain.contains("l1_parent_child_hits"));

        let mut stats = sample_stats();
        stats.locality = Some(Default::default());
        let profiled = perfetto_json(&[], &stats, &samples, 2);
        let check = validate_trace(&profiled).expect("valid trace");
        assert_eq!(check.prov_counters, 4, "two windows x two levels");
        assert!(profiled.contains("\"name\": \"l1_parent_child_hits\""));
        assert!(profiled.contains("\"hits\": 40")); // 70 - 30 in window 2
        assert!(profiled.contains("\"hits\": 5")); // 15 - 10 in window 2
    }

    #[test]
    fn host_track_emitted_only_for_engine_profiled_runs() {
        use gpu_sim::stats::EngineStats;

        let plain = perfetto_json(&sample_records(), &sample_stats(), &[], 4);
        assert_eq!(validate_trace(&plain).unwrap().host_spans, 0);
        assert!(!plain.contains("\"name\": \"Host\""));

        let mut stats = sample_stats();
        stats.engine = Some(EngineStats {
            loop_iterations: 10,
            host_samples: 2,
            host_ns: [100, 0, 50, 900, 25],
            ..EngineStats::default()
        });
        let profiled = perfetto_json(&sample_records(), &stats, &[], 4);
        let check = validate_trace(&profiled).expect("valid trace");
        assert_eq!(check.host_spans, 4, "four stages with nonzero host time");
        assert!(profiled.contains("\"name\": \"Host\""));
        // Spans lay end to end: tb_dispatch starts after the 150 ns of
        // the two stages before it.
        assert!(profiled.contains("\"name\": \"host:smx\", \"ts\": 150, \"dur\": 900"));
        assert!(!profiled.contains("host:kmu_dispatch"), "zero-cost stage omitted");
    }

    #[test]
    fn critical_path_flows_emitted_only_for_latency_profiled_runs() {
        use gpu_sim::stats::{CriticalPath, LatencyStats};

        let plain = perfetto_json(&[], &sample_stats(), &[], 4);
        assert_eq!(validate_trace(&plain).unwrap().flows, 0);
        assert!(!plain.contains("critical_path"));

        let mut stats = sample_stats();
        stats.latency = Some(LatencyStats {
            critical_path: CriticalPath {
                len: 2,
                cycles: 70,
                queue_cycles: 20,
                exec_cycles: 50,
                chain: vec![
                    TbRef { batch: BatchId(0), index: 0 },
                    TbRef { batch: BatchId(1), index: 0 },
                ],
            },
            ..LatencyStats::default()
        });
        let profiled = perfetto_json(&[], &stats, &[], 4);
        let check = validate_trace(&profiled).expect("valid trace");
        assert_eq!(check.flows, 1, "one edge in a two-TB chain");
        // The arrow leaves SMX0 (parent) when the child is created at
        // cycle 18 and lands on SMX1 (child) at its dispatch, cycle 20.
        assert!(profiled.contains("\"ph\": \"s\", \"cat\": \"critical_path\""));
        assert!(
            profiled.contains("\"pid\": 0, \"tid\": 0, \"name\": \"critical-path\", \"ts\": 18")
        );
        assert!(profiled.contains("\"ph\": \"f\", \"bp\": \"e\""));
        assert!(profiled.contains("\"queue_wait\": 2"));
    }

    #[test]
    fn validator_rejects_unmatched_flows() {
        let json = "{\"traceEvents\": [\n\
            {\"ph\": \"s\", \"cat\": \"critical_path\", \"id\": \"0xcp0\", \"pid\": 0, \
             \"tid\": 0, \"name\": \"critical-path\", \"ts\": 1}\n\
            ]}";
        let err = validate_trace(json).unwrap_err();
        assert!(err.contains("unfinished flow"), "{err}");

        let json = "{\"traceEvents\": [\n\
            {\"ph\": \"f\", \"bp\": \"e\", \"cat\": \"critical_path\", \"id\": \"0xcp0\", \
             \"pid\": 0, \"tid\": 0, \"name\": \"critical-path\", \"ts\": 1}\n\
            ]}";
        let err = validate_trace(json).unwrap_err();
        assert!(err.contains("f without matching s"), "{err}");
    }

    #[test]
    fn validator_rejects_decreasing_ts() {
        let json = "{\"traceEvents\": [\n\
            {\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"s\": \"p\", \"name\": \"a\", \"ts\": 5},\n\
            {\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"s\": \"p\", \"name\": \"b\", \"ts\": 3}\n\
            ]}";
        let err = validate_trace(json).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }

    #[test]
    fn validator_rejects_unmatched_spans() {
        let json = "{\"traceEvents\": [\n\
            {\"ph\": \"b\", \"cat\": \"parent\", \"id\": \"0x1\", \"pid\": 0, \"tid\": 0, \
             \"name\": \"B0.0\", \"ts\": 1}\n\
            ]}";
        let err = validate_trace(json).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");

        let json = "{\"traceEvents\": [\n\
            {\"ph\": \"e\", \"cat\": \"parent\", \"id\": \"0x1\", \"pid\": 0, \"tid\": 0, \
             \"name\": \"B0.0\", \"ts\": 1}\n\
            ]}";
        let err = validate_trace(json).unwrap_err();
        assert!(err.contains("without matching"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{\"traceEvents\": [\n]}").is_err());
    }
}
