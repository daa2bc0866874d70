//! The metric catalogue, what a workload run measured, and the result
//! line.
//!
//! Every workload emits every end-to-end metric (untraced run) or every
//! per-layer metric (traced run). End-to-end metrics are defined on the
//! workload's *cells*: one optimize call, one layout evaluation (or n-way
//! co-run, or search), or one served version. Layers a workload never
//! enters read 0 in its traced run.

use crate::clock::Elapsed;
use crate::host::{self, Gauge, Reading};
use crate::span::{Clock, Tracer};
use crate::stats::{geomean, median, quantile};
use std::collections::BTreeMap;

/// A metric's name, unit and direction (`"lower"` or `"higher"`).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Emitted by untraced runs. Times are process CPU time (see
/// [`crate::clock`]) scaled to the reference host speed (see
/// [`crate::host`]); the unscaled and wall-time counterparts and the
/// median cell are printed beside them. The median cell is not gated: on
/// `evaluate` it falls among co-run cells whose cost follows the seed's
/// probe draw, and it spread by 0.24 of its median over ten seeds.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("pass_cpu_s", "s", "lower"),
    m("cell_cpu_geomean_ms", "ms", "lower"),
    m("cell_cpu_p90_ms", "ms", "lower"),
    m("throughput_per_cpu_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Emitted by traced runs: self times and counts summed per pass (median
/// over the traced passes), plus the trace's own coverage and overhead.
pub const PER_LAYER: &[Metric] = &[
    // optimize
    m("core.prepare_ms", "ms", "lower"),
    m("core.profile_ms", "ms", "lower"),
    m("affinity.thresholds_ms", "ms", "lower"),
    m("affinity.hierarchy_ms", "ms", "lower"),
    m("trg.build_ms", "ms", "lower"),
    m("trg.reduce_ms", "ms", "lower"),
    m("core.realize_ms", "ms", "lower"),
    m("verify.module_ms", "ms", "lower"),
    m("verify.transform_ms", "ms", "lower"),
    m("trace.events", "count", "lower"),
    m("trace.distinct_blocks", "count", "lower"),
    m("affinity.pairs", "count", "lower"),
    m("trg.edges", "count", "lower"),
    // evaluate
    m("ir.link_ms", "ms", "lower"),
    m("ir.exec_ms", "ms", "lower"),
    m("core.stream_ms", "ms", "lower"),
    m("cachesim.solo_ms", "ms", "lower"),
    m("cachesim.timed_solo_ms", "ms", "lower"),
    m("cachesim.corun_ms", "ms", "lower"),
    m("cachesim.timed_corun_ms", "ms", "lower"),
    m("cachesim.nway_ms", "ms", "lower"),
    m("core.search_ms", "ms", "lower"),
    m("cachesim.accesses", "count", "lower"),
    m("cachesim.misses", "count", "lower"),
    m("search.layouts", "count", "higher"),
    m("cachesim.melem_per_s", "Melem/s", "higher"),
    // serve
    m("trace.split_ms", "ms", "lower"),
    m("serve.send_ms", "ms", "lower"),
    m("serve.sync_ms", "ms", "lower"),
    m("serve.sync_wall_ms", "ms", "lower"),
    m("serve.query_ms.bb-affinity", "ms", "lower"),
    m("serve.query_ms.bb-trg", "ms", "lower"),
    m("core.fold_ms", "ms", "lower"),
    m("serve.fold_share", "ratio", "higher"),
    m("serve.folded", "count", "higher"),
    m("serve.duplicates", "count", "lower"),
    m("serve.retry_busy", "count", "lower"),
    m("serve.fold_errors", "count", "lower"),
    m("serve.retries", "count", "lower"),
    // the trace itself
    m("bench.span_coverage", "ratio", "higher"),
    m("bench.cpu_share", "ratio", "higher"),
    m("bench.trace_overhead_ms", "ms", "lower"),
];

/// Per-layer values of one traced pass: layer self times (ms of process
/// CPU), counts and derived ratios, keyed by per-layer metric name.
#[derive(Clone, Debug, Default)]
pub struct TracedPass {
    pub values: BTreeMap<String, f64>,
    pub coverage: f64,
    /// Process CPU over wall time of the pass's cells.
    pub cpu_share: f64,
    /// Timed work of the pass, comparable to an untraced pass.
    pub timed: Elapsed,
}

impl TracedPass {
    /// Fold a tracer's spans and counts into per-layer metric names: a span
    /// `x.y` becomes `x.y_ms`, except serve queries, which keep the
    /// pipeline as a suffix (`serve.query_ms.<pipeline>`).
    pub fn from_tracer(t: &Tracer, timed: Elapsed) -> TracedPass {
        let mut values = BTreeMap::new();
        for (name, ms) in t.self_ms(Clock::Cpu) {
            let key = match name.strip_prefix("serve.query.") {
                Some(pipeline) => format!("serve.query_ms.{}", pipeline),
                None => format!("{}_ms", name),
            };
            values.insert(key, ms);
        }
        if let Some(&ms) = t.self_ms(Clock::Wall).get("serve.sync") {
            values.insert("serve.sync_wall_ms".to_string(), ms);
        }
        for (name, &n) in t.counts() {
            values.insert(name.clone(), n as f64);
        }
        let get = |k: &str| values.get(k).copied().unwrap_or(0.0);
        let sim_ms: f64 = [
            "cachesim.solo_ms",
            "cachesim.timed_solo_ms",
            "cachesim.corun_ms",
            "cachesim.timed_corun_ms",
            "cachesim.nway_ms",
        ]
        .iter()
        .map(|k| get(k))
        .sum();
        let ratios = [
            (
                "cachesim.melem_per_s",
                get("cachesim.accesses") / 1e6,
                sim_ms / 1e3,
            ),
            (
                "serve.fold_share",
                get("core.fold_ms"),
                get("serve.sync_wall_ms"),
            ),
        ];
        for (name, num, den) in ratios {
            if den > 0.0 {
                values.insert(name.to_string(), num / den);
            }
        }
        let cells = t.cell_time();
        TracedPass {
            values,
            coverage: t.coverage(),
            cpu_share: if cells.wall > 0.0 {
                cells.cpu / cells.wall
            } else {
                0.0
            },
            timed,
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

pub fn cpu(e: &Elapsed) -> f64 {
    e.cpu
}

pub fn wall(e: &Elapsed) -> f64 {
    e.wall
}

pub fn scaled(e: &Elapsed) -> f64 {
    e.scaled
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up repetition.
    pub setup: Vec<Elapsed>,
    /// Timed work of each untraced pass.
    pub passes: Vec<Elapsed>,
    /// Untraced latency samples per cell name.
    pub cells: BTreeMap<String, Vec<Elapsed>>,
    /// Work units completed in untraced timed work, and that time.
    pub work_units: f64,
    pub work: Elapsed,
    /// Operations attempted, and a description of each that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The workload's own named metrics: (name, value, unit).
    pub named: Vec<(String, f64, String)>,
    /// Effective settings, printed with the results.
    pub settings: Vec<(String, String)>,
    pub traced: Vec<TracedPass>,
    /// The host gauge, ticked after each set-up and each untraced cell,
    /// and its readings.
    pub gauge: Option<Gauge>,
    pub readings: Vec<Reading>,
}

impl Measured {
    /// A record with a host gauge, read once before anything is timed.
    pub fn gauged() -> Measured {
        let mut m = Measured {
            gauge: Some(Gauge::new()),
            ..Measured::default()
        };
        m.tick();
        m
    }

    fn tick(&mut self) {
        if let Some(r) = self.gauge.as_mut().and_then(Gauge::tick) {
            self.readings.push(r);
        }
    }

    /// `e` with its CPU time scaled by the last readings of the gauge.
    pub fn scaled(&self, e: Elapsed) -> Elapsed {
        let recent = &self.readings[self.readings.len().saturating_sub(host::WINDOW)..];
        Elapsed {
            scaled: e.cpu * host::scale(recent),
            ..e
        }
    }

    /// Record one set-up, then tick the host gauge.
    pub fn setup_done(&mut self, e: Elapsed) {
        let e = self.scaled(e);
        self.setup.push(e);
        self.tick();
    }

    /// Record one untraced cell, scaled, then tick the host gauge: after
    /// the cell's time is taken, before the next cell starts. Returns the
    /// scaled record, for the pass total.
    pub fn sample(&mut self, cell: &str, e: Elapsed) -> Elapsed {
        let e = self.scaled(e);
        self.cells.entry(cell.to_string()).or_default().push(e);
        self.tick();
        e
    }

    /// Record the outcome of one operation.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_string(), value, unit.to_string()));
    }

    pub fn setting(&mut self, name: &str, value: impl ToString) {
        self.settings.push((name.to_string(), value.to_string()));
    }

    fn all_ms(&self, clock: fn(&Elapsed) -> f64) -> Vec<f64> {
        self.cells
            .values()
            .flatten()
            .map(|e| clock(e) * 1e3)
            .collect()
    }

    /// Geomean over cells of each cell's median (ms).
    pub fn cell_geomean_ms(&self, clock: fn(&Elapsed) -> f64) -> f64 {
        let medians: Vec<f64> = self
            .cells
            .values()
            .map(|v| median(&v.iter().map(|e| clock(e) * 1e3).collect::<Vec<_>>()))
            .collect();
        geomean(&medians)
    }

    /// The `q`-quantile over every cell sample (ms).
    pub fn cell_quantile_ms(&self, q: f64, clock: fn(&Elapsed) -> f64) -> f64 {
        quantile(&self.all_ms(clock), q)
    }

    pub fn pass_s(&self, clock: fn(&Elapsed) -> f64) -> f64 {
        median(&self.passes.iter().map(clock).collect::<Vec<_>>())
    }

    pub fn samples(&self) -> usize {
        self.cells.values().map(Vec::len).sum()
    }

    /// Ungated companions of the end-to-end metrics, for the report: the
    /// host gauge, the unscaled CPU times, the median cell and the
    /// wall-clock counterparts.
    pub fn report(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ms =
            |f: fn(&Reading) -> f64| median(&self.readings.iter().map(f).collect::<Vec<_>>()) * 1e3;
        vec![
            ("host.memory_ms", ms(|r| r.memory), "ms"),
            ("host.compute_ms", ms(|r| r.compute), "ms"),
            ("host.scale", host::scale(&self.readings), "ratio"),
            (
                "raw.setup_s",
                median(&self.setup.iter().map(cpu).collect::<Vec<_>>()),
                "s",
            ),
            ("raw.pass_cpu_s", self.pass_s(cpu), "s"),
            ("raw.cell_cpu_geomean_ms", self.cell_geomean_ms(cpu), "ms"),
            ("raw.cell_cpu_p90_ms", self.cell_quantile_ms(0.9, cpu), "ms"),
            (
                "raw.throughput_per_cpu_s",
                self.work_units / self.work.cpu,
                "1/s",
            ),
            ("cell_cpu_p50_ms", self.cell_quantile_ms(0.5, cpu), "ms"),
            (
                "wall.setup_s",
                median(&self.setup.iter().map(wall).collect::<Vec<_>>()),
                "s",
            ),
            ("wall.pass_s", self.pass_s(wall), "s"),
            ("wall.cell_geomean_ms", self.cell_geomean_ms(wall), "ms"),
            ("wall.cell_p50_ms", self.cell_quantile_ms(0.5, wall), "ms"),
            ("wall.cell_p90_ms", self.cell_quantile_ms(0.9, wall), "ms"),
            (
                "wall.throughput_per_s",
                self.work_units / self.work.wall,
                "1/s",
            ),
            ("cpu_share", self.work.cpu / self.work.wall, "ratio"),
        ]
    }

    /// The end-to-end metrics of an untraced run, CPU times scaled to the
    /// reference host speed.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static Metric, f64)> {
        END_TO_END
            .iter()
            .map(|metric| {
                let v = match metric.name {
                    "setup_s" => median(&self.setup.iter().map(scaled).collect::<Vec<_>>()),
                    "pass_cpu_s" => self.pass_s(scaled),
                    "cell_cpu_geomean_ms" => self.cell_geomean_ms(scaled),
                    "cell_cpu_p90_ms" => self.cell_quantile_ms(0.9, scaled),
                    "throughput_per_cpu_s" => self.work_units / self.work.scaled,
                    "peak_rss_mb" => peak_rss_mb,
                    other => unreachable!("no rule for end-to-end metric {}", other),
                };
                (metric, v)
            })
            .collect()
    }

    /// The per-layer metrics of a traced run: medians over traced passes.
    pub fn per_layer(&self) -> Vec<(&'static Metric, f64)> {
        let med = |f: &dyn Fn(&TracedPass) -> f64| -> f64 {
            median(&self.traced.iter().map(f).collect::<Vec<_>>())
        };
        PER_LAYER
            .iter()
            .map(|metric| {
                let v = match metric.name {
                    "bench.span_coverage" => med(&|p| p.coverage),
                    "bench.cpu_share" => med(&|p| p.cpu_share),
                    "bench.trace_overhead_ms" => (med(&|p| p.timed.cpu) - self.pass_s(cpu)) * 1e3,
                    name => med(&|p| p.get(name)),
                };
                (metric, v)
            })
            .collect()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted,
        failed,
        body.join(", ")
    )
}

/// A finite f64 in full precision (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{:?}", v)
    } else {
        "null".to_string()
    }
}
