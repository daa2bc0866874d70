//! `optimize`: every registered pipeline on every primary program, with
//! the test and the reference input as the profile.
//!
//! This is the compile-time side: profiling, the affinity threshold and
//! hierarchy stages, TRG build and reduce, realization and verification.
//! No cache simulation runs here. The paper's N/A cells (BB reordering of
//! the dispatch-heavy programs) are checked every pass but not timed.

use crate::clock::{Elapsed, Stopwatch};
use crate::metrics::Measured;
use crate::span::Tracer;
use crate::stats::SeedRng;
use clop_affinity::{AffinityHierarchy, PairThresholds};
use clop_core::bbreorder::JUMP_BYTES;
use clop_core::{
    build_pipeline, registered_pipelines, OptError, OptimizedProgram, Pipeline, PipelineParams,
    Profile, ProfileConfig,
};
use clop_ir::{Layout, Module};
use clop_trg::Trg;
use clop_workloads::{primary_program, PrimaryBenchmark, Workload};

/// The four paper pipelines, in registry order.
pub const PIPELINES: [&str; 4] = ["function-affinity", "bb-affinity", "function-trg", "bb-trg"];

/// Which programs the workload covers.
pub struct Config {
    pub programs: Vec<PrimaryBenchmark>,
    /// Profile with the reference input too (the slow tail).
    pub ref_profiles: bool,
    /// Set-up repetitions (the median is reported).
    pub setups: usize,
}

impl Config {
    pub fn full() -> Config {
        Config {
            programs: PrimaryBenchmark::ALL.to_vec(),
            ref_profiles: true,
            setups: 3,
        }
    }

    /// One small program, test profiles only: for the self-test.
    pub fn tiny() -> Config {
        Config {
            programs: vec![PrimaryBenchmark::Mcf],
            ref_profiles: false,
            setups: 1,
        }
    }
}

/// One (pipeline, program, profile input) cell.
pub struct Cell {
    pub name: String,
    pub pipeline: Pipeline,
    pub params: PipelineParams,
    pub program: usize,
    /// The paper marks this cell N/A: BB reordering must refuse it.
    pub not_applicable: bool,
}

pub struct Setup {
    pub programs: Vec<Workload>,
    pub cells: Vec<Cell>,
}

/// BB reordering cannot handle the wide dispatch switches of perlbench and
/// povray: the paper's N/A entries.
pub fn expected_na(pipeline: &str, b: PrimaryBenchmark) -> bool {
    pipeline.starts_with("bb-")
        && matches!(b, PrimaryBenchmark::Perlbench | PrimaryBenchmark::Povray)
}

pub fn setup(cfg: &Config) -> Result<Setup, String> {
    for p in PIPELINES {
        if !registered_pipelines().iter().any(|n| n == p) {
            return Err(format!("pipeline {} is not registered", p));
        }
    }
    let programs: Vec<Workload> = cfg.programs.iter().map(|&b| primary_program(b)).collect();
    let mut cells = Vec::new();
    for (pi, (&b, w)) in cfg.programs.iter().zip(&programs).enumerate() {
        let mut inputs = vec![("test", w.test_exec)];
        if cfg.ref_profiles {
            inputs.push(("ref", w.ref_exec));
        }
        for pipeline in PIPELINES {
            let granularity = if pipeline.starts_with("bb-") {
                clop_trace::Granularity::BasicBlock
            } else {
                clop_trace::Granularity::Function
            };
            for &(input, exec) in &inputs {
                let mut params = PipelineParams::for_granularity(granularity).with_jobs(1);
                params.profile = ProfileConfig::with_exec(exec);
                let pipe = build_pipeline(pipeline, &params)
                    .ok_or_else(|| format!("cannot build {}", pipeline))?;
                cells.push(Cell {
                    name: format!("{}/{}/{}", pipeline, b.name(), input),
                    pipeline: pipe,
                    params,
                    program: pi,
                    not_applicable: expected_na(pipeline, b),
                });
            }
        }
    }
    Ok(Setup { programs, cells })
}

/// The correctness contract of one optimize result: the layout is a
/// permutation of the module it lays out, and the (module, layout) pair
/// passes `clop-verify` against the original module.
pub fn check_result(original: &Module, prepared: &Module, layout: &Layout) -> Result<(), String> {
    if !layout.is_permutation_of(prepared) {
        return Err("layout is not a permutation of its module".to_string());
    }
    let mut report = clop_verify::verify_module(prepared);
    report.extend(clop_verify::check_transform(
        original, prepared, layout, JUMP_BYTES,
    ));
    if !report.is_ok() {
        return Err(format!("clop-verify rejects the result: {}", report));
    }
    Ok(())
}

/// `Pipeline::optimize` re-done stage by stage, with a span around each
/// call into a layer. Mirrors `Pipeline::optimize_with_cache` without a
/// cache; the layout must be identical to the one-call result.
pub fn optimize_staged(
    cell: &Cell,
    module: &Module,
    t: &mut Tracer,
) -> Result<OptimizedProgram, OptError> {
    let pipe = &cell.pipeline;
    let prepared = t.time("core.prepare", || pipe.transform.prepare(module))?;
    let profile = t.time("core.profile", || {
        Profile::collect(&prepared, &pipe.profile)
    });
    let trace = pipe.transform.trace(&profile);
    if trace.is_empty() {
        return Err(OptError::EmptyProfile);
    }
    t.count("trace.events", trace.len() as u64);
    t.count("trace.distinct_blocks", trace.num_distinct() as u64);
    let hot = if pipe.model.name() == "affinity" {
        let config = cell.params.affinity;
        let jobs = cell.params.jobs;
        let th = t.time("affinity.thresholds", || {
            PairThresholds::measure_jobs(trace, config.w_max, jobs)
        });
        t.count("affinity.pairs", th.len() as u64);
        t.time("affinity.hierarchy", || {
            AffinityHierarchy::build(trace, &th, config).layout()
        })
    } else {
        let config = cell.params.trg;
        let jobs = cell.params.jobs;
        let g = t.time("trg.build", || Trg::build_jobs(trace, config.window, jobs));
        t.count("trg.edges", g.num_edges() as u64);
        t.time("trg.reduce", || {
            clop_trg::reduce(&g, config.slots, trace).sequence
        })
    };
    let layout = t.time("core.realize", || pipe.transform.realize(&prepared, &hot))?;
    let mut report = t.time("verify.module", || clop_verify::verify_module(&prepared));
    report.extend(t.time("verify.transform", || {
        clop_verify::check_transform(module, &prepared, &layout, JUMP_BYTES)
    }));
    if !report.is_ok() {
        return Err(OptError::Verify(report));
    }
    Ok(OptimizedProgram {
        module: prepared,
        layout,
        name: pipe.name.clone(),
        profile,
    })
}

/// The measured state across passes.
pub struct Bench {
    pub setup: Setup,
    rng: SeedRng,
    /// Layout of each cell from the first pass that produced one.
    reference: Vec<Option<Layout>>,
}

impl Bench {
    pub fn new(setup: Setup, seed: u64) -> Bench {
        let n = setup.cells.len();
        Bench {
            setup,
            rng: SeedRng::new(seed, 1),
            reference: vec![None; n],
        }
    }

    /// Check one cell's outcome; returns the layout to pin as reference.
    fn check_cell(
        &mut self,
        ci: usize,
        result: Result<OptimizedProgram, OptError>,
    ) -> Result<(), String> {
        let cell = &self.setup.cells[ci];
        let module = &self.setup.programs[cell.program].module;
        let opt = match (result, cell.not_applicable) {
            (Err(OptError::BbReorder(_)), true) => return Ok(()),
            (Ok(_), true) => return Err(format!("{}: N/A cell was optimized", cell.name)),
            (Err(e), _) => return Err(format!("{}: {}", cell.name, e)),
            (Ok(opt), false) => opt,
        };
        check_result(module, &opt.module, &opt.layout)
            .map_err(|e| format!("{}: {}", cell.name, e))?;
        match &self.reference[ci] {
            Some(r) if *r != opt.layout => Err(format!(
                "{}: layout differs from the first pass (staged vs one-call or nondeterminism)",
                cell.name
            )),
            Some(_) => Ok(()),
            None => {
                self.reference[ci] = Some(opt.layout);
                Ok(())
            }
        }
    }

    /// One pass over every cell in a seed-drawn order. Returns the timed
    /// work.
    pub fn pass(&mut self, tracer: Option<&mut Tracer>, m: &mut Measured) -> Elapsed {
        let order = self.rng.permutation(self.setup.cells.len());
        let mut timed = Elapsed::default();
        let mut tracer = tracer;
        for ci in order {
            let cell = &self.setup.cells[ci];
            let module = &self.setup.programs[cell.program].module;
            if cell.not_applicable {
                // Checked, never timed.
                let r = cell.pipeline.optimize(module);
                let outcome = self.check_cell(ci, r);
                m.op(outcome);
                continue;
            }
            let sw = Stopwatch::start();
            let result = match tracer.as_deref_mut() {
                None => cell.pipeline.optimize(module),
                Some(t) => {
                    let id = t.begin_cell("optimize", ci as u64);
                    let r = optimize_staged(cell, module, t);
                    t.end(id);
                    r
                }
            };
            let mut e = sw.elapsed();
            if tracer.is_none() {
                e = m.sample(&cell.name, e);
                m.work_units += 1.0;
                m.work += e;
            }
            timed += e;
            let outcome = self.check_cell(ci, result);
            m.op(outcome);
        }
        timed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_layout_equals_one_call_layout() {
        let s = setup(&Config::tiny()).unwrap();
        for cell in &s.cells {
            let module = &s.programs[cell.program].module;
            let one = cell.pipeline.optimize(module).unwrap();
            let mut t = Tracer::new();
            let id = t.begin_cell("optimize", 0);
            let staged = optimize_staged(cell, module, &mut t).unwrap();
            t.end(id);
            assert_eq!(one.layout, staged.layout, "{}", cell.name);
            t.check_nesting().unwrap();
        }
    }

    #[test]
    fn a_corrupted_layout_fails_the_check() {
        let s = setup(&Config::tiny()).unwrap();
        for cell in &s.cells {
            let module = &s.programs[cell.program].module;
            let opt = cell.pipeline.optimize(module).unwrap();
            check_result(module, &opt.module, &opt.layout).unwrap();
            let bad = match &opt.layout {
                Layout::FunctionOrder(o) => {
                    let mut o = o.clone();
                    o[1] = o[0];
                    Layout::FunctionOrder(o)
                }
                Layout::BlockOrder(o) => {
                    let mut o = o.clone();
                    o.pop();
                    Layout::BlockOrder(o)
                }
            };
            assert!(
                check_result(module, &opt.module, &bad).is_err(),
                "{}",
                cell.name
            );
        }
    }

    #[test]
    fn na_cells_must_refuse() {
        let cfg = Config {
            programs: vec![PrimaryBenchmark::Povray],
            ref_profiles: false,
            setups: 1,
        };
        let mut b = Bench::new(setup(&cfg).unwrap(), 3);
        let mut m = Measured::default();
        b.pass(None, &mut m);
        assert_eq!(m.attempted, 4);
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        // Flip the expectation: an N/A cell that "succeeds" or a real cell
        // that refuses is a failure.
        for c in &mut b.setup.cells {
            c.not_applicable = !c.not_applicable;
        }
        let mut m = Measured::default();
        b.pass(None, &mut m);
        assert_eq!(m.failures.len(), 4);
    }
}
