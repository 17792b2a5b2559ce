//! The eight irregular dynamic-parallelism benchmarks of the LaPerm paper
//! (Table II), re-expressed as TB-program generators over synthetic
//! inputs with the same structural properties as the paper's data sets.
//!
//! | Application | Inputs |
//! |---|---|
//! | Adaptive Mesh Refinement (AMR) | combustion-simulation-like mesh |
//! | Barnes-Hut Tree (BHT) | random data points |
//! | Breadth-First Search (BFS) | citation, graph500, cage15 |
//! | Graph Coloring (CLR) | citation, graph500, cage15 |
//! | Regular Expression Match (REGX) | DARPA-packet-like, random strings |
//! | Product Recommendation (PRE) | MovieLens-like ratings |
//! | Relational Join (JOIN) | uniform, Gaussian key distributions |
//! | Single-Source Shortest Path (SSSP) | citation, graph500, cage15 |
//!
//! Every benchmark implements [`Workload`]: it owns its input data,
//! produces per-TB instruction streams through its
//! [`ProgramSource`], and reports the
//! host kernels that start it. Device-side launches are embedded in the
//! generated programs, so the same workload runs under CDP or DTBL and
//! under any TB scheduler.
//!
//! # Example
//!
//! ```
//! use workloads::{suite, Scale};
//!
//! let all = suite(Scale::Tiny);
//! assert_eq!(all.len(), 16);
//! assert!(all.iter().any(|w| w.full_name() == "bfs-citation"));
//! ```

pub mod apps;
pub mod dsl_emit;
pub mod graph;
pub mod layout;
pub mod rng;
pub mod scale;
pub mod validate;

use std::any::Any;
use std::sync::Arc;

use gpu_sim::kernel::ResourceReq;
use gpu_sim::program::{KernelKindId, ProgramSource, TbProgram};

use crate::apps::amr::Amr;
use crate::apps::bfs::Bfs;
use crate::apps::bht::Bht;
use crate::apps::clr::Clr;
use crate::apps::graph_common::GraphApp;
use crate::apps::join::{Join, JoinInput};
use crate::apps::pre::Pre;
use crate::apps::regx::{Regx, RegxInput};
use crate::apps::sssp::Sssp;
use crate::graph::Csr;
use crate::graph::GraphKind::{self, Cage15, Citation, Graph500};

pub use scale::Scale;
pub use validate::{validate_workload, ValidationError};

/// A kernel launched from the host to start a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostKernel {
    /// Kernel kind (workload-local id).
    pub kind: KernelKindId,
    /// Opaque parameter.
    pub param: u64,
    /// Grid size in TBs.
    pub num_tbs: u32,
    /// Per-TB resources.
    pub req: ResourceReq,
}

/// A benchmark application: input data plus program generation.
///
/// `Any` is a supertrait, so a `&dyn Workload` upcasts to `&dyn Any`
/// and downcasts to its concrete application type to inspect its
/// inputs (for example a [`apps::bfs::Bfs`]'s graph).
///
/// # Implementing your own workload
///
/// A workload owns its input data, names the host kernels that start it,
/// and generates each TB's program on demand. Device-side launches are
/// just [`TbOp::Launch`](gpu_sim::program::TbOp) ops inside parent
/// programs:
///
/// ```
/// use gpu_sim::kernel::ResourceReq;
/// use gpu_sim::program::{
///     AddrPattern, KernelKindId, LaunchSpec, MemOp, ProgramSource, TbOp, TbProgram,
/// };
/// use workloads::{HostKernel, Workload};
///
/// /// Each parent TB scans a private block and spawns one child that
/// /// re-reads it.
/// struct Scan { blocks: u32 }
///
/// impl ProgramSource for Scan {
///     fn tb_program(&self, kind: KernelKindId, param: u64, tb: u32) -> TbProgram {
///         let block = if kind.0 == 0 { u64::from(tb) } else { param } * 4096;
///         let load = TbOp::Mem(MemOp::load(AddrPattern::Strided { base: block, stride: 4 }));
///         if kind.0 == 0 {
///             TbProgram::new(vec![
///                 load.clone(),
///                 TbOp::Launch(LaunchSpec {
///                     kind: KernelKindId(1),
///                     param: u64::from(tb),
///                     num_tbs: 1,
///                     req: ResourceReq::new(64, 16, 0),
///                 }),
///                 TbOp::Compute(32),
///             ])
///         } else {
///             TbProgram::new(vec![load, TbOp::Compute(16)])
///         }
///     }
/// }
///
/// impl Workload for Scan {
///     fn name(&self) -> &str { "scan" }
///     fn input(&self) -> String { String::new() }
///     fn host_kernels(&self) -> Vec<HostKernel> {
///         vec![HostKernel {
///             kind: KernelKindId(0),
///             param: 0,
///             num_tbs: self.blocks,
///             req: ResourceReq::new(128, 16, 0),
///         }]
///     }
/// }
///
/// // It now runs under any scheduler and launch model:
/// use gpu_sim::{config::GpuConfig, engine::Simulator};
/// let w = Scan { blocks: 16 };
/// let hk = w.host_kernels()[0];
/// let mut sim = Simulator::new(GpuConfig::small_test(), Box::new(w));
/// sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req).unwrap();
/// let stats = sim.run_to_completion().unwrap();
/// assert_eq!(stats.tb_records.len(), 32); // 16 parents + 16 children
/// ```
pub trait Workload: ProgramSource + Any {
    /// Application name ("bfs", "amr", …).
    fn name(&self) -> &str;

    /// Input data-set name ("citation", "uniform", …); empty when the
    /// application has a single canonical input.
    fn input(&self) -> String;

    /// Kernels the host launches to run the benchmark, in order.
    fn host_kernels(&self) -> Vec<HostKernel>;

    /// `name` and `input` joined for reports ("bfs-citation").
    fn full_name(&self) -> String {
        let input = self.input();
        if input.is_empty() {
            self.name().to_string()
        } else {
            format!("{}-{}", self.name(), input)
        }
    }

    /// The workload's programs expressed as workload-DSL source text,
    /// when the application provides a port (every suite workload does).
    /// The compiled program stream must be byte-identical to this
    /// generator's — the `wdsl` crate's suite-equivalence tests and the
    /// CI corpus gate enforce that. `None` means generator-only.
    fn dsl_text(&self) -> Option<String> {
        None
    }
}

/// Adapter that lets an `Arc<dyn Workload>` serve as the engine's program
/// source while the harness keeps its own handle.
#[derive(Clone)]
pub struct SharedSource(pub Arc<dyn Workload>);

impl std::fmt::Debug for SharedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSource({})", self.0.full_name())
    }
}

impl ProgramSource for SharedSource {
    fn tb_program(&self, kind: KernelKindId, param: u64, tb_index: u32) -> TbProgram {
        self.0.tb_program(kind, param, tb_index)
    }

    fn kind_name(&self, kind: KernelKindId) -> String {
        self.0.kind_name(kind)
    }
}

/// The full Table II suite at the given scale: 16 application/input
/// pairs, in the paper's order.
pub fn suite(scale: Scale) -> Vec<Arc<dyn Workload>> {
    suite_seeded(scale, 0)
}

/// [`suite`] with an explicit input seed, for multi-sample experiments
/// (seed 0 is the canonical instance used throughout the repository).
///
/// Each of the three input graphs is generated once and shared by its
/// BFS, CLR and SSSP, as in Table II; nothing is kept after the call, so
/// every build repeats the same work.
pub fn suite_seeded(scale: Scale, seed: u64) -> Vec<Arc<dyn Workload>> {
    let mut inputs = Inputs::new(scale, seed);
    SUITE.iter().map(|(_, build)| build(&mut inputs)).collect()
}

/// The full names of the [`suite`] members, in the paper's order,
/// without generating any input.
pub fn suite_names() -> impl Iterator<Item = &'static str> {
    SUITE.iter().map(|(name, _)| *name)
}

/// The one [`suite_seeded`] member named `full_name`, generating only
/// its own input; `None` when no member has that name.
///
/// ```
/// use workloads::{suite_seeded, workload_seeded, Scale};
///
/// let w = workload_seeded("bfs-citation", Scale::Tiny, 7).unwrap();
/// let member = suite_seeded(Scale::Tiny, 7).into_iter().find(|m| m.full_name() == "bfs-citation");
/// assert_eq!(w.dsl_text(), member.unwrap().dsl_text());
/// assert!(workload_seeded("bfs", Scale::Tiny, 7).is_none());
/// ```
pub fn workload_seeded(full_name: &str, scale: Scale, seed: u64) -> Option<Arc<dyn Workload>> {
    let (_, build) = SUITE.iter().find(|(name, _)| *name == full_name)?;
    Some(build(&mut Inputs::new(scale, seed)))
}

/// The inputs of one suite build. A graph is generated when the first
/// member reading it is built and handed to the later ones.
struct Inputs {
    scale: Scale,
    seed: u64,
    graphs: Vec<(GraphKind, Arc<Csr>)>,
}

impl Inputs {
    fn new(scale: Scale, seed: u64) -> Self {
        Inputs { scale, seed, graphs: Vec::new() }
    }

    fn graph(&mut self, kind: GraphKind) -> Arc<Csr> {
        if let Some((_, graph)) = self.graphs.iter().find(|(k, _)| *k == kind) {
            return graph.clone();
        }
        let graph = Arc::new(GraphApp::input_graph(kind, self.scale, self.seed));
        self.graphs.push((kind, graph.clone()));
        graph
    }
}

/// Builds one suite member from the inputs of its build.
type Build = fn(&mut Inputs) -> Arc<dyn Workload>;

/// The suite: each member's full name and constructor, in Table II order.
const SUITE: [(&str, Build); 16] = [
    ("amr", |i| Arc::new(Amr::new_seeded(i.scale, i.seed))),
    ("bht", |i| Arc::new(Bht::new_seeded(i.scale, i.seed))),
    ("bfs-citation", |i| Arc::new(Bfs::on_graph(Citation, i.scale, i.graph(Citation)))),
    ("bfs-graph500", |i| Arc::new(Bfs::on_graph(Graph500, i.scale, i.graph(Graph500)))),
    ("bfs-cage15", |i| Arc::new(Bfs::on_graph(Cage15, i.scale, i.graph(Cage15)))),
    ("clr-citation", |i| Arc::new(Clr::on_graph(Citation, i.scale, i.graph(Citation)))),
    ("clr-graph500", |i| Arc::new(Clr::on_graph(Graph500, i.scale, i.graph(Graph500)))),
    ("clr-cage15", |i| Arc::new(Clr::on_graph(Cage15, i.scale, i.graph(Cage15)))),
    ("regx-darpa", |i| Arc::new(Regx::new_seeded(RegxInput::Darpa, i.scale, i.seed))),
    ("regx-strings", |i| Arc::new(Regx::new_seeded(RegxInput::Strings, i.scale, i.seed))),
    ("pre", |i| Arc::new(Pre::new_seeded(i.scale, i.seed))),
    ("join-uniform", |i| Arc::new(Join::new_seeded(JoinInput::Uniform, i.scale, i.seed))),
    ("join-gaussian", |i| Arc::new(Join::new_seeded(JoinInput::Gaussian, i.scale, i.seed))),
    ("sssp-citation", |i| Arc::new(Sssp::on_graph(Citation, i.scale, i.graph(Citation)))),
    ("sssp-graph500", |i| Arc::new(Sssp::on_graph(Graph500, i.scale, i.graph(Graph500)))),
    ("sssp-cage15", |i| Arc::new(Sssp::on_graph(Cage15, i.scale, i.graph(Cage15)))),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_sixteen_workloads() {
        let s = suite(Scale::Tiny);
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn full_names_are_unique() {
        let s = suite(Scale::Tiny);
        let mut names: Vec<String> = s.iter().map(|w| w.full_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16, "duplicate workload names");
    }

    #[test]
    fn every_workload_has_host_kernels() {
        for w in suite(Scale::Tiny) {
            assert!(!w.host_kernels().is_empty(), "{} has no host kernels", w.full_name());
            for hk in w.host_kernels() {
                assert!(hk.num_tbs > 0);
                assert!(hk.req.threads > 0);
            }
        }
    }

    #[test]
    fn every_workload_generates_nonempty_parent_programs() {
        for w in suite(Scale::Tiny) {
            let hk = w.host_kernels()[0];
            let prog = w.tb_program(hk.kind, hk.param, 0);
            assert!(!prog.is_empty(), "{} parent TB 0 has empty program", w.full_name());
        }
    }

    #[test]
    fn every_workload_launches_children_somewhere() {
        for w in suite(Scale::Tiny) {
            let hk = w.host_kernels()[0];
            let launches: usize = (0..hk.num_tbs)
                .map(|tb| w.tb_program(hk.kind, hk.param, tb).launches().count())
                .sum();
            assert!(launches > 0, "{} launches no children", w.full_name());
        }
    }

    #[test]
    fn seeded_suites_differ_from_canonical() {
        let a = suite_seeded(Scale::Tiny, 0);
        let b = suite_seeded(Scale::Tiny, 12345);
        // Same structure...
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.full_name(), y.full_name());
        }
        // ...but different generated inputs for at least the graph apps.
        let hk = a[2].host_kernels()[0];
        let differs = (0..hk.num_tbs).any(|tb| {
            a[2].tb_program(hk.kind, hk.param, tb) != b[2].tb_program(hk.kind, hk.param, tb)
        });
        assert!(differs, "seeds must change the generated inputs");
    }

    #[test]
    fn suite_names_match_the_built_suite() {
        let built: Vec<String> = suite(Scale::Tiny).iter().map(|w| w.full_name()).collect();
        assert_eq!(suite_names().collect::<Vec<_>>(), built);
    }

    #[test]
    fn workload_seeded_builds_the_suite_member() {
        for seed in [0, 7] {
            for member in suite_seeded(Scale::Tiny, seed) {
                let name = member.full_name();
                let w = workload_seeded(&name, Scale::Tiny, seed).expect("suite name");
                assert_eq!(w.full_name(), name);
                assert_eq!(w.host_kernels(), member.host_kernels(), "{name} seed {seed}");
                // The DSL text embeds the inputs: equal text, equal programs.
                assert_eq!(w.dsl_text(), member.dsl_text(), "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn workload_seeded_rejects_non_member_names() {
        for name in ["bfs", "bfs-road", "list", ""] {
            assert!(workload_seeded(name, Scale::Tiny, 0).is_none(), "{name:?}");
        }
    }

    #[test]
    fn graph_apps_of_one_suite_build_share_their_graph() {
        use crate::apps::graph_common::GraphApp;
        fn app(w: &Arc<dyn Workload>) -> Option<&GraphApp> {
            let any: &dyn Any = w.as_ref();
            any.downcast_ref::<Bfs>()
                .map(Bfs::app)
                .or_else(|| any.downcast_ref::<Clr>().map(Clr::app))
                .or_else(|| any.downcast_ref::<Sssp>().map(Sssp::app))
        }
        let all = suite(Scale::Tiny);
        for kind in GraphKind::all() {
            let graphs: Vec<&Csr> = all
                .iter()
                .filter_map(app)
                .filter(|a| a.graph_kind() == kind)
                .map(GraphApp::graph)
                .collect();
            assert_eq!(graphs.len(), 3, "{kind}: bfs, clr and sssp");
            assert!(graphs.iter().all(|g| std::ptr::eq(*g, graphs[0])), "{kind}");
        }
    }

    #[test]
    fn shared_source_delegates() {
        let w = suite(Scale::Tiny).remove(0);
        let hk = w.host_kernels()[0];
        let src = SharedSource(w.clone());
        assert_eq!(src.tb_program(hk.kind, hk.param, 0), w.tb_program(hk.kind, hk.param, 0));
    }
}
