//! `evaluate`: price candidate layouts the way the experiment sweep does.
//!
//! Set-up builds the original layout plus the three Table II optimizers'
//! layouts of each primary program. Each pass then evaluates every layout
//! on the reference input (link, execute, fetch stream), measures it solo
//! and in co-run with a seed-drawn Table I probe on both channels (pure
//! simulation and the timed HwLike model), runs one 4-tenant co-run per
//! subject and one budgeted random layout search per subject. Affinity
//! and TRG do no timed work here.

use crate::clock::{Elapsed, Stopwatch};
use crate::metrics::Measured;
use crate::span::Tracer;
use crate::stats::{geomean, mean, SeedRng};
use clop_cachesim::corun::naive;
use clop_cachesim::{
    CacheStats, CorunCacheResult, NwayCorunResult, ThreadOutcome, TimedRun, TimingConfig,
};
use clop_core::{
    random_search_function_order, timed_fetch_stream_from, EvalConfig, OptError, Optimizer,
    OptimizerKind, ProfileConfig, ProgramRun,
};
use clop_ir::{Interpreter, Layout, LinkedImage, Module};
use clop_workloads::{primary_program, probe_program, PrimaryBenchmark, ProbeBenchmark, Workload};

/// The three optimizers of Table II.
pub const KINDS: [OptimizerKind; 3] = [
    OptimizerKind::FunctionAffinity,
    OptimizerKind::BbAffinity,
    OptimizerKind::FunctionTrg,
];

/// The Table I probes a subject co-runs with.
pub const PROBES: [ProbeBenchmark; 2] = [ProbeBenchmark::Gcc, ProbeBenchmark::Gamess];

/// Tenants of the n-way co-run (the subject plus peers).
pub const NWAY_TENANTS: usize = 4;

pub struct Config {
    pub subjects: Vec<PrimaryBenchmark>,
    /// Layouts evaluated by each subject's random search.
    pub search_budget: u64,
    pub setups: usize,
}

impl Config {
    pub fn full() -> Config {
        Config {
            subjects: PrimaryBenchmark::ALL.to_vec(),
            search_budget: 4,
            setups: 3,
        }
    }

    /// Two small subjects: for the self-test.
    pub fn tiny() -> Config {
        Config {
            subjects: vec![PrimaryBenchmark::Mcf, PrimaryBenchmark::Sjeng],
            search_budget: 2,
            setups: 1,
        }
    }
}

/// One layout to evaluate.
pub struct LayoutCell {
    pub name: String,
    pub subject: usize,
    /// `None` for the original layout.
    pub kind: Option<OptimizerKind>,
    pub module: Module,
    pub layout: Layout,
}

pub struct Setup {
    pub subjects: Vec<Workload>,
    pub configs: Vec<EvalConfig>,
    pub cells: Vec<LayoutCell>,
    /// Reference runs of the probes, in [`PROBES`] order.
    pub probes: Vec<ProgramRun>,
    /// Set-up failures (an optimizer refusing a cell the paper does not
    /// mark N/A, or accepting one it does).
    pub failures: Vec<String>,
}

fn eval_config(w: &Workload) -> EvalConfig {
    EvalConfig {
        exec: w.ref_exec,
        ..Default::default()
    }
}

pub fn setup(cfg: &Config) -> Setup {
    let subjects: Vec<Workload> = cfg.subjects.iter().map(|&b| primary_program(b)).collect();
    let configs: Vec<EvalConfig> = subjects.iter().map(eval_config).collect();
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for (si, (&b, w)) in cfg.subjects.iter().zip(&subjects).enumerate() {
        cells.push(LayoutCell {
            name: format!("layout/{}/original", b.name()),
            subject: si,
            kind: None,
            module: w.module.clone(),
            layout: Layout::original(&w.module),
        });
        for kind in KINDS {
            let mut opt = Optimizer::new(kind);
            opt.profile = ProfileConfig::with_exec(w.test_exec);
            opt.jobs = 1;
            let na = crate::optimize::expected_na(&kind.name(), b);
            match (opt.optimize(&w.module), na) {
                (Ok(o), false) => cells.push(LayoutCell {
                    name: format!("layout/{}/{}", b.name(), kind),
                    subject: si,
                    kind: Some(kind),
                    module: o.module,
                    layout: o.layout,
                }),
                (Err(OptError::BbReorder(_)), true) => {}
                (Ok(_), true) => {
                    failures.push(format!("{}/{}: N/A cell optimized", b.name(), kind))
                }
                (Err(e), _) => failures.push(format!("{}/{}: {}", b.name(), kind, e)),
            }
        }
    }
    let probes = PROBES
        .iter()
        .map(|&p| {
            let w = probe_program(p);
            ProgramRun::evaluate(&w.module, &Layout::original(&w.module), &eval_config(&w))
        })
        .collect();
    Setup {
        subjects,
        configs,
        cells,
        probes,
        failures,
    }
}

/// Everything measured about one layout; must repeat exactly every pass.
#[derive(Clone, Debug, PartialEq)]
pub struct LayoutStats {
    pub solo: CacheStats,
    pub timed_solo: TimedRun,
    pub corun: CorunCacheResult,
    pub timed_corun: [ThreadOutcome; 2],
}

/// Everything one pass measured, in cell order.
#[derive(Clone, Debug, PartialEq)]
pub struct PassStats {
    pub layouts: Vec<LayoutStats>,
    pub nway: Vec<NwayCorunResult>,
    pub search: Vec<(Layout, CacheStats, u64)>,
}

/// Seed-drawn inputs, fixed for the whole run. The draws are balanced so
/// every seed prices the same amount of work: each probe serves half the
/// subjects, and each subject's original is a peer in the same number of
/// n-way co-runs.
struct Draws {
    /// Probe index per subject.
    probe: Vec<usize>,
    /// Peer subjects of each subject's n-way co-run.
    peers: Vec<Vec<usize>>,
    /// Random-search seed per subject.
    search_seed: Vec<u64>,
}

impl Draws {
    fn new(subjects: usize, seed: u64) -> Draws {
        let mut rng = SeedRng::new(seed, 2);
        // Subjects in a seed-drawn cyclic order: the first half co-runs
        // with one probe and the rest with the other; each subject's peers
        // are the subjects that follow it in the cycle.
        let cycle = rng.permutation(subjects);
        let mut probe = vec![0; subjects];
        let mut peers = vec![Vec::new(); subjects];
        for (i, &s) in cycle.iter().enumerate() {
            probe[s] = i * PROBES.len() / subjects;
            let n_peers = (NWAY_TENANTS - 1).min(subjects - 1);
            peers[s] = (1..=n_peers).map(|k| cycle[(i + k) % subjects]).collect();
        }
        let search_seed = (0..subjects).map(|_| rng.next_u64()).collect();
        Draws {
            probe,
            peers,
            search_seed,
        }
    }
}

pub struct Bench {
    pub setup: Setup,
    search_budget: u64,
    draws: Draws,
    rng: SeedRng,
    /// The first pass's statistics; every later pass must equal them.
    pub reference: Option<PassStats>,
}

/// `ProgramRun::evaluate` split into its three calls, each in a span.
fn evaluate_traced(
    module: &Module,
    layout: &Layout,
    cfg: &EvalConfig,
    t: &mut Tracer,
) -> ProgramRun {
    let image = t.time("ir.link", || LinkedImage::link(module, layout, cfg.link));
    let outcome = t.time("ir.exec", || Interpreter::new(cfg.exec).run(module));
    let stream = t.time("core.stream", || {
        timed_fetch_stream_from(module, &image, &outcome)
    });
    ProgramRun {
        stream,
        instructions: outcome.instructions,
        image_bytes: image.image_size(),
        cache: cfg.cache,
    }
}

fn count_stats(t: &mut Tracer, stats: &[CacheStats]) {
    for s in stats {
        t.count("cachesim.accesses", s.accesses);
        t.count("cachesim.misses", s.misses);
    }
}

/// Run `f`, either timed into a span (traced) or not.
fn maybe<R>(t: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

impl Bench {
    pub fn new(setup: Setup, cfg: &Config, seed: u64) -> Bench {
        let draws = Draws::new(setup.subjects.len(), seed);
        Bench {
            setup,
            search_budget: cfg.search_budget,
            draws,
            rng: SeedRng::new(seed, 3),
            reference: None,
        }
    }

    fn probe_of(&self, subject: usize) -> &ProgramRun {
        &self.setup.probes[self.draws.probe[subject]]
    }

    /// Evaluate and measure one layout.
    fn layout_cell(&self, li: usize, mut t: Option<&mut Tracer>) -> (ProgramRun, LayoutStats) {
        let cell = &self.setup.cells[li];
        let cfg = &self.setup.configs[cell.subject];
        let probe = self.probe_of(cell.subject);
        let hw = TimingConfig::hw_like();
        let run = match t.as_deref_mut() {
            Some(t) => evaluate_traced(&cell.module, &cell.layout, cfg, t),
            None => ProgramRun::evaluate(&cell.module, &cell.layout, cfg),
        };
        let solo = maybe(&mut t, "cachesim.solo", || run.solo_sim());
        let timed_solo = maybe(&mut t, "cachesim.timed_solo", || run.solo_timed(hw));
        let corun = maybe(&mut t, "cachesim.corun", || run.corun_sim(probe));
        let timed_corun = maybe(&mut t, "cachesim.timed_corun", || {
            run.corun_timed(probe, hw)
        });
        if let Some(t) = t {
            count_stats(
                t,
                &[
                    solo,
                    timed_solo.stats,
                    corun.per_thread[0],
                    corun.per_thread[1],
                    timed_corun[0].stats,
                    timed_corun[1].stats,
                ],
            );
        }
        let stats = LayoutStats {
            solo,
            timed_solo,
            corun,
            timed_corun,
        };
        (run, stats)
    }

    /// The index of `subject`'s layout by `kind` (`None`: the original).
    /// The original and the function-affinity layout always exist.
    fn index_of(&self, subject: usize, kind: Option<OptimizerKind>) -> usize {
        self.setup
            .cells
            .iter()
            .position(|c| c.subject == subject && c.kind == kind)
            .expect("every subject has an original and a function-affinity layout")
    }

    fn nway_tenants<'r>(
        &self,
        subject: usize,
        runs: &'r [Option<ProgramRun>],
    ) -> Vec<&'r ProgramRun> {
        let own = self.index_of(subject, Some(OptimizerKind::FunctionAffinity));
        let mut tenants = vec![runs[own].as_ref().expect("run evaluated this pass")];
        for &p in &self.draws.peers[subject] {
            let orig = self.index_of(p, None);
            tenants.push(runs[orig].as_ref().expect("run evaluated this pass"));
        }
        tenants
    }

    /// One pass; returns the timed work.
    pub fn pass(&mut self, tracer: Option<&mut Tracer>, m: &mut Measured) -> Elapsed {
        let mut t = tracer;
        let n = self.setup.cells.len();
        let subjects = self.setup.subjects.len();
        let mut runs: Vec<Option<ProgramRun>> = (0..n).map(|_| None).collect();
        let mut layouts: Vec<Option<LayoutStats>> = vec![None; n];
        let mut timed = Elapsed::default();
        let mut record = |m: &mut Measured, name: &str, e: Elapsed, traced: bool| {
            if traced {
                timed += e;
            } else {
                let e = m.sample(name, e);
                m.work_units += 1.0;
                m.work += e;
                timed += e;
            }
        };
        let traced = t.is_some();

        for li in self.rng.permutation(n) {
            let sw = Stopwatch::start();
            let cell_span = t.as_deref_mut().map(|t| t.begin_cell("layout", li as u64));
            let (run, stats) = self.layout_cell(li, t.as_deref_mut());
            if let (Some(t), Some(id)) = (t.as_deref_mut(), cell_span) {
                t.end(id);
            }
            record(m, &self.setup.cells[li].name, sw.elapsed(), traced);
            runs[li] = Some(run);
            layouts[li] = Some(stats);
        }

        let mut nway = vec![None; subjects];
        for s in self.rng.permutation(subjects) {
            let tenants = self.nway_tenants(s, &runs);
            let sw = Stopwatch::start();
            let cell_span = t
                .as_deref_mut()
                .map(|t| t.begin_cell("nway", (n + s) as u64));
            let r = maybe(&mut t, "cachesim.nway", || {
                tenants[0].corun_sim_nway(&tenants[1..])
            });
            if let (Some(t), Some(id)) = (t.as_deref_mut(), cell_span) {
                count_stats(t, &r.per_tenant);
                t.end(id);
            }
            record(
                m,
                &format!("nway/{}", self.setup.subjects[s].name),
                sw.elapsed(),
                traced,
            );
            nway[s] = Some(r);
        }

        let mut search = vec![None; subjects];
        for s in self.rng.permutation(subjects) {
            let w = &self.setup.subjects[s];
            let cfg = &self.setup.configs[s];
            let (budget, seed) = (self.search_budget, self.draws.search_seed[s]);
            let sw = Stopwatch::start();
            let cell_span = t
                .as_deref_mut()
                .map(|t| t.begin_cell("search", (n + subjects + s) as u64));
            let r = maybe(&mut t, "core.search", || {
                random_search_function_order(&w.module, cfg, budget, seed)
            });
            if let (Some(t), Some(id)) = (t.as_deref_mut(), cell_span) {
                t.count("search.layouts", r.evaluated);
                t.end(id);
            }
            record(m, &format!("search/{}", w.name), sw.elapsed(), traced);
            search[s] = Some((r.layout, r.stats, r.evaluated));
        }

        let stats = PassStats {
            layouts: layouts
                .into_iter()
                .map(|x| x.expect("all evaluated"))
                .collect(),
            nway: nway.into_iter().map(|x| x.expect("all run")).collect(),
            search: search.into_iter().map(|x| x.expect("all run")).collect(),
        };
        self.check_pass(&runs, stats, m);
        timed
    }

    /// Cells of the pass as operations: each must reproduce the first
    /// pass exactly; on the first pass the n-way co-runs must also equal
    /// the naive oracle, tenant by tenant.
    fn check_pass(&mut self, runs: &[Option<ProgramRun>], stats: PassStats, m: &mut Measured) {
        let Some(reference) = &self.reference else {
            for (s, fast) in stats.nway.iter().enumerate() {
                let tenants = self.nway_tenants(s, runs);
                let lines: Vec<Vec<u64>> = tenants.iter().map(|r| r.lines()).collect();
                let streams: Vec<&[u64]> = lines.iter().map(|l| l.as_slice()).collect();
                let oracle = naive::simulate_corun_nway(&streams, tenants[0].cache);
                m.op(if oracle.per_tenant == fast.per_tenant {
                    Ok(())
                } else {
                    Err(format!(
                        "nway/{}: fast co-run differs from the naive oracle",
                        self.setup.subjects[s].name
                    ))
                });
            }
            for (cell, l) in self.setup.cells.iter().zip(&stats.layouts) {
                m.op(sane(l).map_err(|e| format!("{}: {}", cell.name, e)));
            }
            for (w, (_, st, evaluated)) in self.setup.subjects.iter().zip(&stats.search) {
                m.op(if *evaluated == self.search_budget && st.accesses > 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "search/{}: evaluated {} layouts",
                        w.name, evaluated
                    ))
                });
            }
            self.reference = Some(stats);
            return;
        };
        for (i, cell) in self.setup.cells.iter().enumerate() {
            m.op(if stats.layouts[i] == reference.layouts[i] {
                Ok(())
            } else {
                Err(format!("{}: statistics differ between passes", cell.name))
            });
        }
        for (s, w) in self.setup.subjects.iter().enumerate() {
            m.op(if stats.nway[s] == reference.nway[s] {
                Ok(())
            } else {
                Err(format!("nway/{}: statistics differ between passes", w.name))
            });
            m.op(if stats.search[s] == reference.search[s] {
                Ok(())
            } else {
                Err(format!("search/{}: result differs between passes", w.name))
            });
        }
    }

    /// The quality metrics of the optimized layouts, from the first pass:
    /// (solo, co-run subject, co-run probe) mean miss ratios and the
    /// geomean of optimized over original subject finish cycles.
    pub fn quality(&self) -> Option<(f64, f64, f64, f64)> {
        let reference = self.reference.as_ref()?;
        let (mut solo, mut own, mut peer, mut cycles) = (vec![], vec![], vec![], vec![]);
        for (cell, l) in self.setup.cells.iter().zip(&reference.layouts) {
            if cell.kind.is_none() {
                continue;
            }
            let orig = &reference.layouts[self.index_of(cell.subject, None)];
            solo.push(l.solo.miss_ratio());
            own.push(l.corun.per_thread[0].miss_ratio());
            peer.push(l.corun.per_thread[1].miss_ratio());
            cycles.push(l.timed_corun[0].finish_cycles / orig.timed_corun[0].finish_cycles);
        }
        if solo.is_empty() {
            return None;
        }
        Some((mean(&solo), mean(&own), mean(&peer), geomean(&cycles)))
    }
}

/// Internal consistency of one layout's statistics.
fn sane(l: &LayoutStats) -> Result<(), String> {
    let counts = [
        l.solo,
        l.timed_solo.stats,
        l.corun.per_thread[0],
        l.corun.per_thread[1],
        l.timed_corun[0].stats,
        l.timed_corun[1].stats,
    ];
    if counts
        .iter()
        .any(|s| s.accesses == 0 || s.misses > s.accesses)
    {
        return Err("empty or impossible cache statistics".to_string());
    }
    if l.solo.accesses != l.corun.per_thread[0].accesses {
        return Err("solo and co-run see different access counts".to_string());
    }
    if !(l.timed_corun[0].finish_cycles > 0.0 && l.timed_solo.cycles > 0.0) {
        return Err("non-positive cycle counts".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_passes_agree_and_nest() {
        let cfg = Config::tiny();
        let mut b = Bench::new(setup(&cfg), &cfg, 9);
        assert!(b.setup.failures.is_empty(), "{:?}", b.setup.failures);
        let mut m = Measured::default();
        b.pass(None, &mut m);
        let mut t = Tracer::new();
        b.pass(Some(&mut t), &mut m);
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        t.check_nesting().unwrap();
        let layers = t.self_ms(crate::span::Clock::Cpu);
        for name in [
            "ir.link",
            "ir.exec",
            "core.stream",
            "cachesim.nway",
            "core.search",
        ] {
            assert!(layers.contains_key(name), "{}", name);
        }
        assert!(t.counts()["cachesim.accesses"] > 0);
        assert!(b.quality().is_some());
    }

    #[test]
    fn a_changed_statistic_fails_the_check() {
        let cfg = Config::tiny();
        let mut b = Bench::new(setup(&cfg), &cfg, 9);
        let mut m = Measured::default();
        b.pass(None, &mut m);
        let reference = b.reference.as_mut().unwrap();
        reference.layouts[0].solo.misses += 1;
        let mut m = Measured::default();
        b.pass(None, &mut m);
        assert_eq!(m.failures.len(), 1, "{:?}", m.failures);
    }
}
