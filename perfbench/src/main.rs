//! End-to-end benchmark of the code-layout system: `optimize` (the
//! compile-time pipeline), `evaluate` (pricing layouts with the cache and
//! timing simulators) and `serve` (the streaming daemon).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload optimize|evaluate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one closed-loop caller. Inputs are drawn from `--seed`.
//! An untraced run (`--trace 0`) times the public calls of the workspace
//! crates from outside and reports the end-to-end metrics; a traced run
//! (`--trace 1`) alternates untraced passes with passes that wrap every
//! call into a layer in a span, and reports the per-layer metrics. The
//! last line of standard output is the JSON result.

mod clock;
mod evaluate;
mod host;
mod metrics;
mod optimize;
mod serve;
mod span;
mod stats;

use clock::{Elapsed, Stopwatch};
use metrics::{wall, Measured, Metric, TracedPass};
use span::{Clock, Tracer};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["optimize", "evaluate", "serve"];

/// Command-line settings of one run.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {:?}", value))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {:?}", value))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {:?}", value));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {:?}", value)),
                })
            }
            other => return Err(format!("unknown flag {:?}", other)),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Refuse environments that would change what is measured: a disabled
/// verify stage shortens every optimize call, and `CLOP_SERVE_*`
/// variables would tune the daemon or the client session.
fn check_environment(vars: impl Iterator<Item = (String, String)>) -> Result<(), String> {
    for (k, v) in vars {
        if k == "CLOP_VERIFY" && v == "0" {
            return Err("CLOP_VERIFY=0 skips the verify stage of every optimize call".to_string());
        }
        if k.starts_with("CLOP_SERVE_") {
            return Err(format!(
                "{} is set; the benchmark configures the daemon itself",
                k
            ));
        }
    }
    Ok(())
}

/// Run passes until `opts.seconds` have elapsed. A traced run alternates
/// untraced and traced passes, starting untraced, and makes at least one
/// of each.
fn drive(
    opts: &Opts,
    m: &mut Measured,
    mut pass: impl FnMut(Option<&mut Tracer>, &mut Measured) -> Elapsed,
) {
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        if opts.trace && i % 2 == 1 {
            let mut t = Tracer::new();
            let timed = pass(Some(&mut t), m);
            m.op(t.check_nesting().map_err(|e| format!("trace: {}", e)));
            m.traced.push(TracedPass::from_tracer(&t, timed));
        } else {
            let timed = pass(None, m);
            m.passes.push(timed);
        }
        i += 1;
        let enough = !m.passes.is_empty() && (!opts.trace || !m.traced.is_empty());
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
}

/// Set-up repetitions stop once this much time is spent (after the
/// configured minimum). The host's speed shifts within seconds, so even a
/// cheap set-up is repeated over a few seconds before its median is
/// steady.
const SETUP_BUDGET_S: f64 = 3.0;
const SETUP_MAX_REPS: usize = 1000;

/// Set up at least `n` times (once when traced), recording each wall
/// time; keeps the last set-up.
fn repeat_setup<S>(
    opts: &Opts,
    n: usize,
    m: &mut Measured,
    mut f: impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let start = Instant::now();
    loop {
        let sw = Stopwatch::start();
        let setup = f()?;
        m.setup_done(sw.elapsed());
        let reps = m.setup.len();
        if opts.trace
            || reps >= SETUP_MAX_REPS
            || (reps >= n && start.elapsed().as_secs_f64() >= SETUP_BUDGET_S)
        {
            return Ok(setup);
        }
    }
}

fn run_optimize(opts: &Opts, cfg: optimize::Config) -> Result<Measured, String> {
    let mut m = Measured::gauged();
    let setup = repeat_setup(opts, cfg.setups, &mut m, || optimize::setup(&cfg))?;
    let timed_cells = setup.cells.iter().filter(|c| !c.not_applicable).count();
    m.setting("cells", setup.cells.len());
    m.setting("timed_cells", timed_cells);
    m.setting("analysis_jobs", 1);
    let mut bench = optimize::Bench::new(setup, opts.seed);
    drive(opts, &mut m, |t, m| bench.pass(t, m));
    if !m.cells.is_empty() {
        m.named("optimize_geomean_ms", m.cell_geomean_ms(wall), "ms");
        m.named("optimize_suite_s", m.pass_s(wall), "s");
    }
    Ok(m)
}

fn run_evaluate(opts: &Opts, cfg: evaluate::Config) -> Result<Measured, String> {
    let mut m = Measured::gauged();
    let setup = repeat_setup(opts, cfg.setups, &mut m, || Ok(evaluate::setup(&cfg)))?;
    for f in &setup.failures {
        m.op(Err(f.clone()));
    }
    m.setting("layouts", setup.cells.len());
    m.setting("search_budget", cfg.search_budget);
    m.setting("nway_tenants", evaluate::NWAY_TENANTS);
    m.setting("timing", "hw_like");
    let mut bench = evaluate::Bench::new(setup, &cfg, opts.seed);
    drive(opts, &mut m, |t, m| bench.pass(t, m));
    m.named("sweep_s", m.pass_s(wall), "s");
    match bench.quality() {
        Some((solo, own, peer, cycles)) => {
            m.named("solo_miss_ratio", solo, "ratio");
            m.named("corun_miss_ratio", own, "ratio");
            m.named("peer_miss_ratio", peer, "ratio");
            m.named("corun_cycle_ratio", cycles, "ratio");
        }
        None => m.op(Err("no optimized layout was evaluated".to_string())),
    }
    Ok(m)
}

fn run_serve(opts: &Opts, cfg: serve::Config) -> Result<Measured, String> {
    let mut m = Measured::gauged();
    let mut setup_tracer = Tracer::new();
    let programs = repeat_setup(opts, cfg.setups, &mut m, || {
        let t = if opts.trace {
            Some(&mut setup_tracer)
        } else {
            None
        };
        Ok(serve::setup(&cfg, t))
    })?;
    let config = serve::server_config();
    m.setting("programs", programs.len());
    m.setting("shards_per_version", cfg.shards);
    m.setting("fold_workers", config.workers);
    m.setting("queue_cap", config.queue_cap);
    m.setting("batch_max", config.batch_max);
    m.setting("max_versions", config.max_versions);
    let mut bench = serve::Bench::start(programs, opts.seed)?;
    drive(opts, &mut m, |t, m| bench.pass(t, m));
    bench.check_totals(&mut m);
    if let Err(e) = bench.stop() {
        m.op(Err(format!("stop: {}", e)));
    }
    let split_ms = setup_tracer
        .self_ms(Clock::Cpu)
        .get("trace.split")
        .copied()
        .unwrap_or(0.0);
    for p in &mut m.traced {
        p.values.insert("trace.split_ms".to_string(), split_ms);
    }
    if !m.cells.is_empty() {
        m.named("ingest_shards_per_s", m.work_units / m.work.wall, "1/s");
        m.named("shard_to_query_p50_ms", m.cell_quantile_ms(0.5, wall), "ms");
        m.named("shard_to_query_p90_ms", m.cell_quantile_ms(0.9, wall), "ms");
    }
    Ok(m)
}

/// Run one workload at full size, or at the self-test's tiny size.
fn run(opts: &Opts, tiny: bool) -> Result<Measured, String> {
    match (opts.workload.as_str(), tiny) {
        ("optimize", false) => run_optimize(opts, optimize::Config::full()),
        ("optimize", true) => run_optimize(opts, optimize::Config::tiny()),
        ("evaluate", false) => run_evaluate(opts, evaluate::Config::full()),
        ("evaluate", true) => run_evaluate(opts, evaluate::Config::tiny()),
        (_, false) => run_serve(opts, serve::Config::full()),
        (_, true) => run_serve(opts, serve::Config::tiny()),
    }
}

/// The metrics of a finished run: end-to-end when untraced, per-layer
/// when traced. A metric that is not finite fails the run. The host
/// gauge's memory, resident all run long, is not the workload's.
fn finish(opts: &Opts, m: &mut Measured) -> Result<Vec<(&'static Metric, f64)>, String> {
    let metrics = if opts.trace {
        m.per_layer()
    } else {
        let mut rss =
            metrics::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
        if m.gauge.is_some() {
            rss -= host::RESIDENT_BYTES as f64 / (1024.0 * 1024.0);
        }
        m.end_to_end(rss)
    };
    for (metric, v) in &metrics {
        if !v.is_finite() {
            m.op(Err(format!("metric {} is not finite", metric.name)));
        }
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_environment(std::env::vars()) {
        eprintln!("perfbench: refusing to run: {}", e);
        return ExitCode::from(2);
    }
    let (m, metrics) = match run(&opts, false).and_then(|mut m| {
        let metrics = finish(&opts, &mut m)?;
        Ok((m, metrics))
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            return ExitCode::from(1);
        }
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (k, v) in &m.settings {
        println!("setting {} = {}", k, v);
    }
    println!(
        "passes untraced={} traced={} samples={} setups={}",
        m.passes.len(),
        m.traced.len(),
        m.samples(),
        m.setup.len()
    );
    let setups: Vec<f64> = m.setup.iter().map(|e| e.cpu).collect();
    println!(
        "setup cpu q1={:.4} median={:.4} q3={:.4} s",
        stats::quantile(&setups, 0.25),
        stats::median(&setups),
        stats::quantile(&setups, 0.75)
    );
    println!("host gauge readings={}", m.readings.len());
    for (name, v, unit) in &m.named {
        println!("metric {} = {} {}", name, v, unit);
    }
    if !opts.trace {
        for (name, v, unit) in m.report() {
            println!("metric {} = {} {}", name, v, unit);
        }
    }
    for (metric, v) in &metrics {
        println!(
            "metric {} = {} {} ({} is better)",
            metric.name, v, metric.unit, metric.better
        );
    }
    for f in m.failures.iter().take(20) {
        println!("FAILED {}", f);
    }
    let failed = m.failures.len() as u64;
    println!(
        "{}",
        metrics::result_line(failed == 0, m.attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("serve", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload serve --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload serve --seed 7 --seconds 10 --trace 2")).is_err());
    }

    #[test]
    fn refuses_environments_that_change_the_measurement() {
        let env = |k: &str, v: &str| vec![(k.to_string(), v.to_string())].into_iter();
        assert!(check_environment(env("CLOP_VERIFY", "0")).is_err());
        assert!(check_environment(env("CLOP_VERIFY", "1")).is_ok());
        assert!(check_environment(env("CLOP_SERVE_WORKERS", "4")).is_err());
        assert!(check_environment(env("PATH", "/bin")).is_ok());
    }

    /// Every workload, untraced and traced, at tiny size: no failures, and
    /// the result line carries each catalogue metric exactly once, with its
    /// unit.
    #[test]
    fn every_metric_is_emitted_once_per_workload() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: workload.to_string(),
                    seed: 11,
                    seconds: 0.0,
                    trace,
                };
                let mut m = run(&opts, true).unwrap();
                let metrics = finish(&opts, &mut m).unwrap();
                assert!(
                    m.failures.is_empty(),
                    "{} {}: {:?}",
                    workload,
                    trace,
                    m.failures
                );
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                let line = metrics::result_line(true, m.attempted, 0, &metrics);
                for c in catalogue {
                    let key = format!("\"{}\": {{\"value\": ", c.name);
                    assert_eq!(line.matches(&key).count(), 1, "{} in {}", c.name, line);
                    let unit = format!(
                        "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                        c.name,
                        metrics.iter().find(|(x, _)| x.name == c.name).unwrap().1,
                        c.unit
                    );
                    assert!(line.contains(&unit), "{} unit in {}", c.name, line);
                }
                assert_eq!(metrics.len(), catalogue.len());
                if trace {
                    assert!(m
                        .per_layer()
                        .iter()
                        .any(|(c, v)| c.name == "bench.span_coverage" && *v > 0.5));
                }
            }
        }
    }

    /// BENCHMARK.json at the repository root lists exactly the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (section, catalogue) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).unwrap();
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            let entries = body.matches("\"name\"").count();
            assert_eq!(entries, catalogue.len(), "{}", section);
            for c in catalogue {
                let name = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    c.name, c.unit, c.better
                );
                assert!(body.contains(&name), "{} missing from {}", c.name, section);
            }
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\", \"why\"", w)),
                "{}",
                w
            );
        }
    }
}
