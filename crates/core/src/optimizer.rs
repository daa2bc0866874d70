//! The four code-layout optimizers, as a thin shim over the trait-based
//! [`pipeline`](crate::pipeline).
//!
//! An [`Optimizer`] runs the full pipeline of §II-F on a module: profile on
//! the test input, run the configured locality model at the configured
//! granularity, and emit the transformed program with its new layout.
//! Code the profile never saw (cold functions / cold blocks) is appended
//! after the optimized sequence in original order — reference affinity
//! deliberately handles both hot and cold paths the profile *did* see, but
//! can say nothing about unexecuted code.
//!
//! [`OptimizerKind`] is the one table of the paper's 2×2 matrix: its
//! variants, [`OptimizerKind::name`] and [`OptimizerKind::from_name`] are
//! the only name ↔ pipeline mapping, and
//! [`build_pipeline`](crate::pipeline::build_pipeline) derives from it.

use crate::bbreorder::BbReorderError;
use crate::pipeline::{pipeline_for, PipelineParams};
use crate::profile::{Profile, ProfileConfig};
use clop_affinity::AffinityConfig;
use clop_ir::{Layout, Module};
use clop_trace::Granularity;
use clop_trg::TrgConfig;
use std::fmt;

/// Which of the paper's four optimizers to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Global function reordering, w-window affinity model.
    FunctionAffinity,
    /// Inter-procedural basic-block reordering, w-window affinity model.
    BbAffinity,
    /// Global function reordering, TRG model.
    FunctionTrg,
    /// Inter-procedural basic-block reordering, TRG model.
    BbTrg,
}

impl OptimizerKind {
    /// All four optimizers, in the paper's presentation order.
    pub const ALL: [OptimizerKind; 4] = [
        OptimizerKind::FunctionAffinity,
        OptimizerKind::BbAffinity,
        OptimizerKind::FunctionTrg,
        OptimizerKind::BbTrg,
    ];

    /// True for the basic-block granularity optimizers.
    pub fn is_bb(self) -> bool {
        matches!(self, OptimizerKind::BbAffinity | OptimizerKind::BbTrg)
    }

    /// True for the affinity-model optimizers.
    pub fn is_affinity(self) -> bool {
        matches!(
            self,
            OptimizerKind::FunctionAffinity | OptimizerKind::BbAffinity
        )
    }

    /// The granularity this kind transforms at.
    pub fn granularity(self) -> Granularity {
        if self.is_bb() {
            Granularity::BasicBlock
        } else {
            Granularity::Function
        }
    }

    /// The registry name of this kind's pipeline (same as `Display`).
    pub fn name(self) -> String {
        self.as_str().to_string()
    }

    /// The kind whose pipeline is named `name`; `None` for any other name.
    pub fn from_name(name: &str) -> Option<OptimizerKind> {
        OptimizerKind::ALL.into_iter().find(|k| k.as_str() == name)
    }

    /// `"<transform>-<model>"`, the name [`Pipeline::new`] composes for
    /// this kind's pipeline.
    ///
    /// [`Pipeline::new`]: crate::pipeline::Pipeline::new
    fn as_str(self) -> &'static str {
        match self {
            OptimizerKind::FunctionAffinity => "function-affinity",
            OptimizerKind::BbAffinity => "bb-affinity",
            OptimizerKind::FunctionTrg => "function-trg",
            OptimizerKind::BbTrg => "bb-trg",
        }
    }
}

impl fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why an optimization run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum OptError {
    /// The profiling run produced no events (nothing to model).
    EmptyProfile,
    /// BB reordering could not transform this program (the paper's "N/A"
    /// cases).
    BbReorder(BbReorderError),
    /// The requested pipeline name is not one of the four pipelines.
    UnknownPipeline(String),
    /// The static verifier rejected the pipeline's output (always a bug in
    /// a model or transform; see `clop-verify`). Skipped when
    /// `CLOP_VERIFY=0`.
    Verify(clop_verify::VerifyReport),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::EmptyProfile => write!(f, "profiling produced an empty trace"),
            OptError::BbReorder(e) => write!(f, "basic-block reordering failed: {}", e),
            OptError::UnknownPipeline(name) => {
                write!(f, "pipeline `{}` is not registered", name)
            }
            OptError::Verify(report) => {
                write!(f, "static verification rejected the result: {}", report)
            }
        }
    }
}

impl std::error::Error for OptError {}

impl From<BbReorderError> for OptError {
    fn from(e: BbReorderError) -> Self {
        OptError::BbReorder(e)
    }
}

impl From<OptError> for clop_util::ClopError {
    fn from(e: OptError) -> Self {
        let pipeline = match &e {
            OptError::UnknownPipeline(name) => name.clone(),
            _ => String::new(),
        };
        clop_util::ClopError::Pipeline {
            pipeline,
            detail: e.to_string(),
        }
    }
}

/// The result of optimizing a program: a (possibly transformed) module plus
/// the layout to link it with.
#[derive(Clone, Debug)]
pub struct OptimizedProgram {
    /// The module to link. Identical to the input for function reordering;
    /// the pre-processed variant for BB reordering.
    pub module: Module,
    /// The optimized layout.
    pub layout: Layout,
    /// Registry name of the pipeline that produced this (e.g.
    /// `"function-affinity"`).
    pub name: String,
    /// The profile used (kept for reporting: retention, trace sizes).
    pub profile: Profile,
}

/// A configured optimizer.
#[derive(Clone, Debug)]
pub struct Optimizer {
    /// Which model × granularity to run.
    pub kind: OptimizerKind,
    /// Affinity model window range (used by the affinity optimizers).
    pub affinity: AffinityConfig,
    /// TRG model window / slot configuration (used by the TRG optimizers).
    pub trg: TrgConfig,
    /// Profiling configuration (test-input run).
    pub profile: ProfileConfig,
    /// Worker count for the sharded locality analyses; the resulting layout
    /// is bit-identical for any value (1 = serial).
    pub jobs: usize,
}

impl Optimizer {
    /// An optimizer of the given kind with the paper's default model and
    /// profiling parameters.
    ///
    /// The TRG model assumes a uniform code-block size (§II-C: the
    /// compiler has no binary sizes); the assumed size depends on the
    /// granularity — a typical function is ~1 KB, a typical basic block
    /// ~64 B — which sets the slot count and the 2C window.
    pub fn new(kind: OptimizerKind) -> Self {
        let params = PipelineParams::for_granularity(kind.granularity());
        Optimizer {
            kind,
            affinity: params.affinity,
            trg: params.trg,
            profile: params.profile,
            jobs: params.jobs,
        }
    }

    /// The pipeline parameters this optimizer carries.
    pub fn params(&self) -> PipelineParams {
        PipelineParams {
            affinity: self.affinity,
            trg: self.trg,
            profile: self.profile,
            jobs: self.jobs,
        }
    }

    /// Run this kind's pipeline on a module.
    pub fn optimize(&self, module: &Module) -> Result<OptimizedProgram, OptError> {
        pipeline_for(self.kind, &self.params()).optimize(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_ir::prelude::*;

    /// main loops calling f then g; h is never called.
    fn module_with_cold_function() -> Module {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .call("c1", 8, "f", "c2")
            .call("c2", 8, "g", "back")
            .branch("back", 8, CondModel::LoopCounter { trip: 30 }, "c1", "end")
            .ret("end", 8)
            .finish();
        b.function("f").ret("fb", 32).finish();
        b.function("g").ret("gb", 32).finish();
        b.function("h").ret("hb", 64).finish();
        b.build().unwrap()
    }

    #[test]
    fn function_affinity_produces_valid_layout() {
        let m = module_with_cold_function();
        let opt = Optimizer::new(OptimizerKind::FunctionAffinity)
            .optimize(&m)
            .unwrap();
        assert!(opt.layout.is_permutation_of(&opt.module));
        assert_eq!(opt.module.num_blocks(), m.num_blocks());
        // Cold function h (id 3) is placed last.
        match &opt.layout {
            Layout::FunctionOrder(order) => assert_eq!(order.last(), Some(&FuncId(3))),
            _ => panic!("function optimizer must produce a function order"),
        }
    }

    #[test]
    fn function_trg_produces_valid_layout() {
        let m = module_with_cold_function();
        let opt = Optimizer::new(OptimizerKind::FunctionTrg)
            .optimize(&m)
            .unwrap();
        assert!(opt.layout.is_permutation_of(&opt.module));
    }

    #[test]
    fn bb_affinity_transforms_and_reorders() {
        let m = module_with_cold_function();
        let opt = Optimizer::new(OptimizerKind::BbAffinity)
            .optimize(&m)
            .unwrap();
        // Pre-processing adds one stub per function.
        assert_eq!(opt.module.num_blocks(), m.num_blocks() + m.num_functions());
        assert!(opt.layout.is_permutation_of(&opt.module));
        assert!(matches!(opt.layout, Layout::BlockOrder(_)));
    }

    #[test]
    fn bb_trg_produces_valid_layout() {
        let m = module_with_cold_function();
        let opt = Optimizer::new(OptimizerKind::BbTrg).optimize(&m).unwrap();
        assert!(opt.layout.is_permutation_of(&opt.module));
    }

    #[test]
    fn bb_reordering_propagates_unsupported_dispatch() {
        let mut b = ModuleBuilder::new("interp");
        let names: Vec<String> = (0..16).map(|i| format!("op{}", i)).collect();
        {
            let mut fb = b.function("main");
            let t: Vec<(&str, f64)> = names.iter().map(|s| (s.as_str(), 1.0)).collect();
            fb.switch("dispatch", 64, &t);
            for s in &names {
                fb.ret(s, 8);
            }
            fb.finish();
        }
        let m = b.build().unwrap();
        let err = Optimizer::new(OptimizerKind::BbAffinity)
            .optimize(&m)
            .unwrap_err();
        assert!(matches!(err, OptError::BbReorder(_)));
        // Function reordering still works on the same program.
        assert!(Optimizer::new(OptimizerKind::FunctionAffinity)
            .optimize(&m)
            .is_ok());
    }

    #[test]
    fn optimizer_is_deterministic() {
        let m = module_with_cold_function();
        for kind in OptimizerKind::ALL {
            let a = Optimizer::new(kind).optimize(&m);
            let b = Optimizer::new(kind).optimize(&m);
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.layout, y.layout, "{}", kind),
                (Err(x), Err(y)) => assert_eq!(x, y),
                _ => panic!("nondeterministic outcome for {}", kind),
            }
        }
    }

    #[test]
    fn complete_order_appends_cold_units() {
        use crate::pipeline::complete_order;
        assert_eq!(complete_order([2u32, 0], 4), vec![2, 0, 1, 3]);
        assert_eq!(complete_order([], 3), vec![0, 1, 2]);
        // Duplicates from the model are collapsed.
        assert_eq!(complete_order([1u32, 1, 0], 2), vec![1, 0]);
    }

    #[test]
    fn kind_predicates_and_display() {
        assert!(OptimizerKind::BbAffinity.is_bb());
        assert!(OptimizerKind::BbAffinity.is_affinity());
        assert!(!OptimizerKind::FunctionTrg.is_affinity());
        assert!(!OptimizerKind::FunctionTrg.is_bb());
        assert_eq!(
            OptimizerKind::FunctionAffinity.to_string(),
            "function-affinity"
        );
    }

    #[test]
    fn hot_pair_functions_placed_adjacently() {
        // f and g always called back to back: affinity must keep them
        // adjacent in the function order.
        let m = module_with_cold_function();
        let opt = Optimizer::new(OptimizerKind::FunctionAffinity)
            .optimize(&m)
            .unwrap();
        let Layout::FunctionOrder(order) = &opt.layout else {
            unreachable!()
        };
        let pos = |f: u32| order.iter().position(|x| x.0 == f).unwrap() as i64;
        assert_eq!((pos(1) - pos(2)).abs(), 1, "order: {:?}", order);
    }
}
