//! Shared-footprint analysis (paper Section III-A, Figure 2).
//!
//! The analysis expands a workload's complete TB tree *statically* — no
//! timing simulation — by walking host-kernel TB programs, collecting
//! every global-memory line each TB touches, and recursing into
//! device-side launches. From the tree it computes the paper's three
//! shared-footprint ratios:
//!
//! * **parent-child** `pc/c`: lines shared between a direct parent TB and
//!   the union of its children's lines, over the children's union size.
//! * **child-sibling** `cos/cs`: lines shared between one child TB and
//!   the union of its siblings' lines, over the siblings' union size
//!   (averaged over children).
//! * **parent-parent**: lines shared between adjacent parent TBs, over
//!   the other's size (the paper reports ~9%, far below parent-child).
//!
//! Each TB's lines are kept as an ascending, deduplicated `Vec`. For a
//! launching TB the children's lines are sorted together once and
//! run-length counted, so a child's sibling union is the children's
//! union minus the lines only that child touches. Past one pass over
//! the addresses, the analysis costs O(n log n) in `n`, the number of
//! (TB, distinct line) pairs in the tree; building every sibling union
//! explicitly would cost O(k²·L) per launching TB with `k` children of
//! `L` lines each.

use std::cmp::Ordering;

use gpu_sim::program::{AddrPattern, KernelKindId};
use gpu_sim::types::{Addr, LineAddr};
use workloads::Workload;

const LINE_BITS: u32 = 7; // 128-byte lines, as in the paper's analysis

/// Safety cap on recursive launch depth.
const MAX_DEPTH: u32 = 8;

#[derive(Debug)]
struct TbNode {
    /// Distinct lines the TB touches, ascending.
    lines: Vec<LineAddr>,
    /// The TBs of every launch this TB issues, in launch order. All of
    /// a TB's launches form one sibling set.
    children: Vec<TbNode>,
}

/// Results of the footprint analysis of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintAnalysis {
    /// Workload display name.
    pub workload: String,
    /// Mean parent-child shared footprint ratio over launching TBs.
    pub parent_child: f64,
    /// Mean child-sibling shared footprint ratio over child TBs with at
    /// least one sibling.
    pub child_sibling: f64,
    /// Mean adjacent parent-parent shared footprint ratio.
    pub parent_parent: f64,
    /// Number of direct-parent (launching) TBs analyzed.
    pub launching_tbs: usize,
    /// Total child TBs analyzed.
    pub child_tbs: usize,
}

impl FootprintAnalysis {
    /// Runs the analysis on a workload.
    pub fn analyze(workload: &dyn Workload) -> Self {
        let mut parents: Vec<TbNode> = Vec::new();
        let mut scratch = Vec::new();
        for hk in workload.host_kernels() {
            for tb in 0..hk.num_tbs {
                let node = expand(workload, hk.kind, hk.param, tb, hk.req.threads, 0, &mut scratch);
                parents.push(node);
            }
        }

        // Parent-child and child-sibling ratios over every launching TB
        // in the tree (host parents and nested launchers alike).
        let mut pc_ratios = Vec::new();
        let mut cs_ratios = Vec::new();
        let mut launching = 0usize;
        let mut child_count = 0usize;
        // Per launching TB: the children's union, ascending, and how many
        // children touch each of its lines.
        let mut union: Vec<LineAddr> = Vec::new();
        let mut touching: Vec<usize> = Vec::new();
        let mut stack: Vec<&TbNode> = parents.iter().collect();
        while let Some(node) = stack.pop() {
            if !node.children.is_empty() {
                launching += 1;
                child_count += node.children.len();
                union.clear();
                union.extend(node.children.iter().flat_map(|c| c.lines.iter().copied()));
                union.sort_unstable();
                touching.clear();
                touching.extend(union.chunk_by(|a, b| a == b).map(<[_]>::len));
                union.dedup();
                if !union.is_empty() {
                    let shared = intersection_len(&union, &node.lines);
                    pc_ratios.push(shared as f64 / union.len() as f64);
                }
                if node.children.len() >= 2 {
                    for child in &node.children {
                        // A line of this child is shared when another
                        // child touches it too, and is missing from the
                        // siblings' union when no other child does.
                        let (mut shared, mut at) = (0, 0);
                        for &line in &child.lines {
                            at += union[at..].partition_point(|&u| u < line);
                            shared += usize::from(touching[at] >= 2);
                        }
                        let sibling_union = union.len() - (child.lines.len() - shared);
                        if sibling_union > 0 {
                            cs_ratios.push(shared as f64 / sibling_union as f64);
                        }
                    }
                }
            }
            stack.extend(node.children.iter());
        }

        // Adjacent parent-parent sharing.
        let mut pp_ratios = Vec::new();
        for pair in parents.windows(2) {
            if !pair[1].lines.is_empty() {
                let shared = intersection_len(&pair[0].lines, &pair[1].lines);
                pp_ratios.push(shared as f64 / pair[1].lines.len() as f64);
            }
        }

        FootprintAnalysis {
            workload: workload.full_name(),
            parent_child: mean(&pc_ratios),
            child_sibling: mean(&cs_ratios),
            parent_parent: mean(&pp_ratios),
            launching_tbs: launching,
            child_tbs: child_count,
        }
    }
}

/// Expands one TB and, recursively, every TB it launches. `scratch`
/// collects a TB's lines before they are copied into an exactly sized
/// `Vec`, so the tree holds no spare capacity.
fn expand(
    workload: &dyn Workload,
    kind: KernelKindId,
    param: u64,
    tb_index: u32,
    threads: u32,
    depth: u32,
    scratch: &mut Vec<LineAddr>,
) -> TbNode {
    let program = workload.tb_program(kind, param, tb_index);
    scratch.clear();
    for m in program.global_mem_ops() {
        push_lines(&m.pattern, threads, scratch);
    }
    scratch.sort_unstable();
    scratch.dedup();
    let lines = scratch.to_vec();
    let mut children = Vec::new();
    if depth < MAX_DEPTH {
        for launch in program.launches() {
            for child_tb in 0..launch.num_tbs {
                children.push(expand(
                    workload,
                    launch.kind,
                    launch.param,
                    child_tb,
                    launch.req.threads,
                    depth + 1,
                    scratch,
                ));
            }
        }
    }
    TbNode { lines, children }
}

/// Appends the lines of [`AddrPattern::tb_addrs`]`(threads)` to `lines`,
/// skipping a line equal to the one just pushed (neighbouring threads
/// mostly share a line).
fn push_lines(pattern: &AddrPattern, threads: u32, lines: &mut Vec<LineAddr>) {
    let mut push = |addr: Addr| {
        let line = addr >> LINE_BITS;
        if lines.last() != Some(&line) {
            lines.push(line);
        }
    };
    match pattern {
        AddrPattern::Strided { base, stride } => {
            (0..threads).for_each(|t| push(base + u64::from(t) * u64::from(*stride)));
        }
        AddrPattern::Gather(addrs) => addrs.iter().take(threads as usize).for_each(|&a| push(a)),
        AddrPattern::Broadcast(a) => {
            if threads > 0 {
                push(*a);
            }
        }
    }
}

/// The number of lines two ascending, duplicate-free line sets share.
fn intersection_len(a: &[LineAddr], b: &[LineAddr]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Figure 2 for a whole suite: one row per workload plus the averages the
/// paper quotes in the text.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintSummary {
    /// Per-workload analyses, in suite order.
    pub rows: Vec<FootprintAnalysis>,
}

impl FootprintSummary {
    /// Analyzes every workload in a suite.
    pub fn analyze_suite(suite: &[std::sync::Arc<dyn Workload>]) -> Self {
        FootprintSummary {
            rows: suite.iter().map(|w| FootprintAnalysis::analyze(w.as_ref())).collect(),
        }
    }

    /// Mean parent-child ratio over the suite (paper: ~38%).
    pub fn mean_parent_child(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.parent_child).collect::<Vec<_>>())
    }

    /// Mean child-sibling ratio over the suite (paper: ~30%).
    pub fn mean_child_sibling(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.child_sibling).collect::<Vec<_>>())
    }

    /// Mean parent-parent ratio over the suite (paper: ~9%).
    pub fn mean_parent_parent(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.parent_parent).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::ResourceReq;
    use gpu_sim::program::{LaunchSpec, MemOp, ProgramSource, TbOp, TbProgram};
    use workloads::apps::amr::Amr;
    use workloads::apps::bfs::Bfs;
    use workloads::apps::join::{Join, JoinInput};
    use workloads::graph::GraphKind;
    use workloads::{HostKernel, Scale};

    #[test]
    fn ratios_are_in_unit_interval() {
        let a = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        for r in [a.parent_child, a.child_sibling, a.parent_parent] {
            assert!((0.0..=1.0).contains(&r), "ratio {r} out of range");
        }
        assert!(a.launching_tbs > 0);
        assert!(a.child_tbs > 0);
    }

    #[test]
    fn parent_child_exceeds_parent_parent() {
        let a = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        assert!(
            a.parent_child > a.parent_parent,
            "parent-child {} should exceed parent-parent {}",
            a.parent_child,
            a.parent_parent
        );
    }

    #[test]
    fn clustered_graph_has_more_sibling_sharing_than_random() {
        let cite = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        let rmat = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Graph500, Scale::Tiny));
        assert!(
            cite.child_sibling > rmat.child_sibling,
            "citation sibling {} should exceed graph500 sibling {}",
            cite.child_sibling,
            rmat.child_sibling
        );
    }

    #[test]
    fn amr_and_join_have_low_sibling_sharing() {
        let amr = FootprintAnalysis::analyze(&Amr::new(Scale::Tiny));
        let join = FootprintAnalysis::analyze(&Join::new(JoinInput::Uniform, Scale::Tiny));
        let bfs = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        assert!(amr.child_sibling < 0.1, "amr sibling {}", amr.child_sibling);
        assert!(join.child_sibling < bfs.child_sibling);
    }

    #[test]
    fn amr_counts_nested_launchers() {
        let a = FootprintAnalysis::analyze(&Amr::new(Scale::Tiny));
        // First-level children that deep-refine are launching TBs too.
        let amr = Amr::new(Scale::Tiny);
        assert!(a.launching_tbs > amr.host_kernels()[0].num_tbs as usize / 4);
    }

    #[test]
    fn regx_siblings_share_the_transition_table() {
        use workloads::apps::regx::{Regx, RegxInput};
        let regx = FootprintAnalysis::analyze(&Regx::new(RegxInput::Strings, Scale::Tiny));
        let bfs = FootprintAnalysis::analyze(&Bfs::new(GraphKind::Citation, Scale::Tiny));
        assert!(
            regx.child_sibling > bfs.child_sibling,
            "regx sibling {} should top bfs {} (shared NFA table)",
            regx.child_sibling,
            bfs.child_sibling
        );
    }

    #[test]
    fn suite_summary_matches_paper_structure() {
        let all = workloads::suite(Scale::Tiny);
        let summary = FootprintSummary::analyze_suite(&all);
        assert_eq!(summary.rows.len(), all.len());
        // The headline structure: parent-child sharing is substantial and
        // exceeds parent-parent sharing on average.
        assert!(summary.mean_parent_child() > 0.2);
        assert!(summary.mean_parent_child() > summary.mean_parent_parent());
        assert!(summary.mean_child_sibling() > 0.0);
    }

    #[test]
    fn analysis_is_deterministic() {
        let w = Bfs::new(GraphKind::Cage15, Scale::Tiny);
        assert_eq!(FootprintAnalysis::analyze(&w), FootprintAnalysis::analyze(&w));
    }

    /// A hand-sized tree. Host TB `t` touches lines {1,2,3} shifted by
    /// `2t` and issues two launches, whose three TBs form one sibling
    /// set: {2,4} and {4,5} from the first launch, {6} from the second
    /// (all shifted by `2t` as well).
    struct MicroTree {
        parents: u32,
    }

    fn line(l: u64) -> u64 {
        l << LINE_BITS
    }

    fn gather(addrs: &[u64]) -> TbOp {
        TbOp::Mem(MemOp::load(AddrPattern::Gather(addrs.into())))
    }

    impl ProgramSource for MicroTree {
        fn tb_program(&self, kind: KernelKindId, param: u64, tb: u32) -> TbProgram {
            // Host TB `t` shifts its tree by `2t` lines and passes the
            // shift to its children as their `param`.
            let shift = if kind.0 == 0 { 2 * u64::from(tb) } else { param };
            let launch = |kind, num_tbs| {
                TbOp::Launch(LaunchSpec {
                    kind: KernelKindId(kind),
                    param: shift,
                    num_tbs,
                    req: ResourceReq::new(32, 16, 0),
                })
            };
            match (kind.0, tb) {
                (0, _) => TbProgram::new(vec![
                    // 32 threads x 4 bytes: exactly line 1 (+shift).
                    TbOp::Mem(MemOp::load(AddrPattern::Strided {
                        base: line(1 + shift),
                        stride: 4,
                    })),
                    gather(&[line(3 + shift), line(2 + shift) + 64, line(3 + shift) + 8]),
                    // Shared memory is not global footprint.
                    TbOp::Mem(MemOp::shared(AddrPattern::Broadcast(line(99)))),
                    launch(1, 2),
                    launch(2, 1),
                ]),
                // Repeated, out-of-order addresses within one child.
                (1, 0) => TbProgram::new(vec![gather(&[
                    line(2 + shift),
                    line(4 + shift) + 4,
                    line(2 + shift) + 100,
                ])]),
                (1, _) => TbProgram::new(vec![
                    gather(&[line(5 + shift)]),
                    TbOp::Mem(MemOp::store(AddrPattern::Broadcast(line(4 + shift) + 7))),
                    // A launch of zero TBs adds no children.
                    launch(3, 0),
                ]),
                _ => TbProgram::new(vec![TbOp::Mem(MemOp::load(AddrPattern::Broadcast(line(
                    6 + shift,
                ))))]),
            }
        }
    }

    impl Workload for MicroTree {
        fn name(&self) -> &str {
            "micro-tree"
        }

        fn input(&self) -> String {
            String::new()
        }

        fn host_kernels(&self) -> Vec<HostKernel> {
            vec![HostKernel {
                kind: KernelKindId(0),
                param: 0,
                num_tbs: self.parents,
                req: ResourceReq::new(32, 16, 0),
            }]
        }
    }

    #[test]
    fn micro_tree_matches_hand_computed_ratios() {
        let one = FootprintAnalysis::analyze(&MicroTree { parents: 1 });
        // Children's union {2,4,5,6}; the parent's {1,2,3} shares {2}.
        assert_eq!(one.parent_child, 1.0 / 4.0);
        // {2,4} vs siblings {4,5,6}: 1/3. {4,5} vs {2,4,6}: 1/3.
        // {6} vs {2,4,5}: 0.
        assert_eq!(one.child_sibling, (1.0 / 3.0 + 1.0 / 3.0 + 0.0) / 3.0);
        assert_eq!(one.parent_parent, 0.0);
        assert_eq!((one.launching_tbs, one.child_tbs), (1, 3));

        // The second parent touches {3,4,5}: it shares {3} with the first.
        let two = FootprintAnalysis::analyze(&MicroTree { parents: 2 });
        assert_eq!(two.parent_parent, 1.0 / 3.0);
        assert_eq!(two.parent_child, 1.0 / 4.0);
        assert_eq!((two.launching_tbs, two.child_tbs), (2, 6));
    }

    /// The analysis as first written: one `HashSet` per TB and an
    /// explicit union of every child's siblings. Quadratic in the number
    /// of children, but obviously the definition.
    mod reference {
        use std::collections::HashSet;

        use super::super::{mean, FootprintAnalysis, LINE_BITS, MAX_DEPTH};
        use gpu_sim::program::KernelKindId;
        use gpu_sim::types::LineAddr;
        use workloads::Workload;

        struct Node {
            lines: HashSet<LineAddr>,
            children: Vec<Node>,
        }

        pub fn analyze(workload: &dyn Workload) -> FootprintAnalysis {
            let mut parents = Vec::new();
            for hk in workload.host_kernels() {
                for tb in 0..hk.num_tbs {
                    parents.push(expand(workload, hk.kind, hk.param, tb, hk.req.threads, 0));
                }
            }
            let (mut pc, mut cs) = (Vec::new(), Vec::new());
            let (mut launching, mut child_count) = (0, 0);
            let mut stack: Vec<&Node> = parents.iter().collect();
            while let Some(node) = stack.pop() {
                if !node.children.is_empty() {
                    launching += 1;
                    child_count += node.children.len();
                    let union: HashSet<LineAddr> =
                        node.children.iter().flat_map(|c| c.lines.iter().copied()).collect();
                    if !union.is_empty() {
                        let shared = union.intersection(&node.lines).count();
                        pc.push(shared as f64 / union.len() as f64);
                    }
                    if node.children.len() >= 2 {
                        for (i, child) in node.children.iter().enumerate() {
                            let siblings: HashSet<LineAddr> = node
                                .children
                                .iter()
                                .enumerate()
                                .filter(|&(j, _)| j != i)
                                .flat_map(|(_, s)| s.lines.iter().copied())
                                .collect();
                            if !siblings.is_empty() {
                                let shared = siblings.intersection(&child.lines).count();
                                cs.push(shared as f64 / siblings.len() as f64);
                            }
                        }
                    }
                }
                stack.extend(node.children.iter());
            }
            let mut pp = Vec::new();
            for pair in parents.windows(2) {
                if !pair[1].lines.is_empty() {
                    let shared = pair[0].lines.intersection(&pair[1].lines).count();
                    pp.push(shared as f64 / pair[1].lines.len() as f64);
                }
            }
            FootprintAnalysis {
                workload: workload.full_name(),
                parent_child: mean(&pc),
                child_sibling: mean(&cs),
                parent_parent: mean(&pp),
                launching_tbs: launching,
                child_tbs: child_count,
            }
        }

        fn expand(
            workload: &dyn Workload,
            kind: KernelKindId,
            param: u64,
            tb_index: u32,
            threads: u32,
            depth: u32,
        ) -> Node {
            let program = workload.tb_program(kind, param, tb_index);
            let lines = program
                .global_mem_ops()
                .flat_map(|m| m.pattern.tb_addrs(threads))
                .map(|a| a >> LINE_BITS)
                .collect();
            let mut children = Vec::new();
            if depth < MAX_DEPTH {
                for launch in program.launches() {
                    for child_tb in 0..launch.num_tbs {
                        children.push(expand(
                            workload,
                            launch.kind,
                            launch.param,
                            child_tb,
                            launch.req.threads,
                            depth + 1,
                        ));
                    }
                }
            }
            Node { lines, children }
        }
    }

    /// Every field of the analysis equals the reference's, bit for bit.
    fn assert_matches_reference(w: &dyn Workload, seed: u64) {
        let fast = FootprintAnalysis::analyze(w);
        let slow = reference::analyze(w);
        let name = &fast.workload;
        assert_eq!(fast.workload, slow.workload);
        for (what, a, b) in [
            ("parent_child", fast.parent_child, slow.parent_child),
            ("child_sibling", fast.child_sibling, slow.child_sibling),
            ("parent_parent", fast.parent_parent, slow.parent_parent),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{name} seed {seed} {what}: {a} vs {b}");
        }
        assert_eq!(fast.launching_tbs, slow.launching_tbs, "{name} seed {seed}");
        assert_eq!(fast.child_tbs, slow.child_tbs, "{name} seed {seed}");
    }

    #[test]
    fn micro_tree_matches_reference() {
        for parents in 0..4 {
            assert_matches_reference(&MicroTree { parents }, 0);
        }
    }

    #[test]
    fn tiny_suite_matches_reference() {
        for seed in [0, 7] {
            for w in workloads::suite_seeded(Scale::Tiny, seed) {
                assert_matches_reference(w.as_ref(), seed);
            }
        }
    }

    #[test]
    #[ignore = "release-only"]
    fn ci_suite_matches_reference() {
        for w in workloads::suite(Scale::Ci) {
            assert_matches_reference(w.as_ref(), 0);
        }
    }
}
