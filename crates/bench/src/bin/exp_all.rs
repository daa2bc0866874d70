//! `exp_all [--jobs N] [name ...]`: run the named experiments, or all of
//! them when no name is given, in canonical order, sharing one memoizing
//! [`Engine`] so baselines and optimized runs computed by one experiment
//! are reused by the next. Parallelism lives *inside* each experiment
//! (`--jobs N`, or `-j N`; defaults to the machine's available
//! parallelism): experiments fan their independent work items out over a
//! scoped-thread pool, and the pool returns results in input order, so the
//! emitted text and `results/*.json` are identical for every jobs count.
//! An unknown flag or experiment name exits 2 with the experiment list.
//!
//! Each experiment runs supervised (see [`clop_bench::runner`]): a panic
//! or a `CLOP_EXP_TIMEOUT` watchdog expiry is recorded and the remaining
//! experiments still run. Completed experiments checkpoint under
//! `<results>/.checkpoint/`; with `CLOP_RESUME=1` a batch killed mid-run
//! re-executes only unfinished experiments. Exits nonzero (with a summary
//! table) when any experiment failed.
//!
//! [`Engine`]: clop_core::Engine

use clop_bench::experiment::{parse_args, usage, ExperimentCtx};
use clop_bench::runner::{run_jobs, SuiteOptions};
use std::sync::Arc;

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("exp_all: {}", e);
        eprint!("{}", usage());
        std::process::exit(2);
    });
    let ctx = Arc::new(ExperimentCtx::new(args.jobs));
    let opts = SuiteOptions::from_env();
    eprintln!(
        "running {} experiments with --jobs {}{}{}",
        args.experiments.len(),
        ctx.jobs,
        if opts.resume { " (resume)" } else { "" },
        opts.timeout
            .map(|t| format!(" (timeout {:.0}s)", t.as_secs_f64()))
            .unwrap_or_default(),
    );
    let report = run_jobs(&args.experiments, &ctx, &opts);
    let stats = ctx.engine.stats();
    eprintln!(
        "engine: {} evaluations ({} memoized), {} optimizations ({} memoized)",
        stats.eval_misses, stats.eval_hits, stats.opt_misses, stats.opt_hits
    );
    eprintln!();
    eprint!("{}", report.summary_table());
    if !report.all_ok() {
        std::process::exit(1);
    }
}
