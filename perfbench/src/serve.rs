//! `serve`: stream traces into an in-process daemon and query it.
//!
//! One client session, closed loop: for each version it streams the
//! 16-shard split of one program's test-profile BB trace, sends `SYNC`,
//! then queries `bb-affinity` and `bb-trg`. A pass covers all programs of
//! the suite once, in a seed-drawn order. The daemon runs one fold
//! worker. Affinity and TRG run here through the incremental fold rather
//! than batch analysis, behind the admission, queue and protocol path.

use crate::clock::{Elapsed, Stopwatch};
use crate::metrics::Measured;
use crate::span::Tracer;
use crate::stats::SeedRng;
use clop_core::incremental::AnalysisParams;
use clop_core::{build_pipeline, Profile, ProfileConfig, VersionState};
use clop_serve::{ServeConfig, Server, Session, SessionConfig};
use clop_trace::{read_shard, split_shards, TrimmedTrace};
use clop_workloads::full_suite;

/// The pipelines queried after every version.
pub const QUERIES: [&str; 2] = ["bb-affinity", "bb-trg"];

/// Per-layer counters of a traced pass, in [`Bench::counters`] order.
const COUNTERS: [&str; 5] = [
    "serve.folded",
    "serve.duplicates",
    "serve.retry_busy",
    "serve.fold_errors",
    "serve.retries",
];

pub struct Config {
    /// Suite programs served (names); the full suite by default.
    pub programs: Vec<&'static str>,
    pub shards: usize,
    pub setups: usize,
}

impl Config {
    pub fn full() -> Config {
        Config {
            programs: full_suite().iter().map(|e| e.name).collect(),
            shards: 16,
            setups: 3,
        }
    }

    /// Two small programs in 4 shards: for the self-test.
    pub fn tiny() -> Config {
        Config {
            programs: vec!["401.bzip2", "429.mcf"],
            shards: 4,
            setups: 1,
        }
    }
}

/// One program's trace, ready to stream.
pub struct Program {
    pub name: &'static str,
    pub trace: TrimmedTrace,
    pub shards: Vec<Vec<u8>>,
}

pub fn params() -> AnalysisParams {
    AnalysisParams::default()
}

/// Generate, profile and shard every program. In a traced set-up the
/// shard split is a span of its own cell.
pub fn setup(cfg: &Config, mut t: Option<&mut Tracer>) -> Vec<Program> {
    let p = params();
    let suite = full_suite();
    cfg.programs
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let entry = suite
                .iter()
                .find(|e| e.name == name)
                .expect("program is in the suite");
            let w = entry.workload();
            let trace =
                Profile::collect(&w.module, &ProfileConfig::with_exec(w.test_exec)).bb_trace;
            let split = || split_shards(&trace, cfg.shards, p.affinity.w_max, p.trg.window);
            let shards = match t.as_deref_mut() {
                Some(t) => {
                    let id = t.begin_cell("setup", i as u64);
                    let s = t.time("trace.split", split);
                    t.end(id);
                    s
                }
                None => split(),
            };
            Program {
                name,
                trace,
                shards,
            }
        })
        .collect()
}

/// The batch answer every `QUERY` must equal: the pipeline's model run
/// over the whole trace.
pub fn batch_order(trace: &TrimmedTrace, pipeline: &str) -> Vec<u32> {
    build_pipeline(pipeline, &params().pipeline_params())
        .expect("paper pipeline is registered")
        .model
        .sequence(trace)
        .iter()
        .map(|b| b.0)
        .collect()
}

pub fn check_answer(expected: &[u32], got: &[u32]) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "served order ({} ids) differs from the batch order ({} ids)",
            got.len(),
            expected.len()
        ))
    }
}

pub struct Bench {
    pub programs: Vec<Program>,
    /// Batch answers per program, in [`QUERIES`] order.
    pub expected: Vec<[Vec<u32>; 2]>,
    server: Option<Server>,
    session: Session,
    rng: SeedRng,
    versions: u64,
    /// Session counters already charged as failures.
    seen_retries: u64,
    seen_waits: u64,
    /// Shards streamed over the whole run; the daemon must fold each once.
    pub shards_streamed: u64,
}

impl Bench {
    pub fn start(programs: Vec<Program>, seed: u64) -> Result<Bench, String> {
        let expected = programs
            .iter()
            .map(|p| {
                [
                    batch_order(&p.trace, QUERIES[0]),
                    batch_order(&p.trace, QUERIES[1]),
                ]
            })
            .collect();
        let server = Server::start(server_config()).map_err(|e| e.to_string())?;
        let session = Session::new(server.addr(), SessionConfig::default())
            .map_err(|e| format!("session: {}", e))?;
        Ok(Bench {
            programs,
            expected,
            server: Some(server),
            session,
            rng: SeedRng::new(seed, 4),
            versions: 0,
            seen_retries: 0,
            seen_waits: 0,
            shards_streamed: 0,
        })
    }

    /// Charge new session retries and `-RETRY` waits as failed operations.
    fn charge_retries(&mut self, m: &mut Measured) {
        let (r, w) = (self.session.retries(), self.session.backpressure_waits());
        for _ in self.seen_retries..r {
            m.op(Err("session retried a transport failure".to_string()));
        }
        for _ in self.seen_waits..w {
            m.op(Err("daemon answered -RETRY".to_string()));
        }
        self.seen_retries = r;
        self.seen_waits = w;
    }

    /// Stream, sync and query one version of program `pi`. Returns the
    /// shard-to-query time and the send-to-`SYNC` time.
    fn version(
        &mut self,
        pi: usize,
        mut t: Option<&mut Tracer>,
        m: &mut Measured,
    ) -> (Elapsed, Elapsed) {
        self.versions += 1;
        let version = format!("v{}-{}", self.versions, pi);
        let program = &self.programs[pi];
        self.shards_streamed += program.shards.len() as u64;
        let sw = Stopwatch::start();
        for shard in &program.shards {
            let r = match t.as_deref_mut() {
                Some(t) => t.time("serve.send", || self.session.send_shard(&version, shard)),
                None => self.session.send_shard(&version, shard),
            };
            m.op(r
                .map(|_| ())
                .map_err(|e| format!("{}: send: {}", version, e)));
        }
        let synced = match t.as_deref_mut() {
            Some(t) => t.time("serve.sync", || self.session.sync()),
            None => self.session.sync(),
        };
        let ingest = sw.elapsed();
        if let Err(e) = synced {
            m.op(Err(format!("{}: sync: {}", version, e)));
        }
        let mut answers = Vec::new();
        for q in QUERIES {
            let name = format!("serve.query.{}", q);
            let r = match t.as_deref_mut() {
                Some(t) => t.time(&name, || self.session.query(&version, q)),
                None => self.session.query(&version, q),
            };
            answers.push(r);
        }
        let latency = sw.elapsed();
        for (qi, r) in answers.into_iter().enumerate() {
            m.op(match r {
                Ok(order) => check_answer(&self.expected[pi][qi], &order),
                Err(e) => Err(e.to_string()),
            }
            .map_err(|e| format!("{} {}: {}", version, QUERIES[qi], e)));
        }
        self.charge_retries(m);
        (latency, ingest)
    }

    /// Fold the same shards outside the daemon, timing `absorb_shard`
    /// only: the fold's CPU cost without queueing or protocol.
    fn replay_fold(&self, pi: usize, t: &mut Tracer) {
        let mut state = VersionState::new(params());
        for shard in &self.programs[pi].shards {
            let decoded = read_shard(&mut shard.as_slice()).expect("shards decode");
            let _ = t.time("core.fold", || state.absorb_shard(&decoded));
        }
    }

    /// One pass over every program; returns the timed work.
    pub fn pass(&mut self, tracer: Option<&mut Tracer>, m: &mut Measured) -> Elapsed {
        let mut t = tracer;
        let before = t.is_some().then(|| self.counters(m));
        let mut timed = Elapsed::default();
        for pi in self.rng.permutation(self.programs.len()) {
            match t.as_deref_mut() {
                None => {
                    let (latency, ingest) = self.version(pi, None, m);
                    m.work += m.scaled(ingest);
                    m.work_units += self.programs[pi].shards.len() as f64;
                    timed += m.sample(self.programs[pi].name, latency);
                }
                Some(t) => {
                    let cell = self.versions + 1;
                    let id = t.begin_cell("version", cell);
                    let (latency, _) = self.version(pi, Some(t), m);
                    t.end(id);
                    timed += latency;
                    let id = t.begin_cell("fold", cell);
                    self.replay_fold(pi, t);
                    t.end(id);
                }
            }
        }
        if let (Some(t), Some(before)) = (t, before) {
            let after = self.counters(m);
            for (i, name) in COUNTERS.iter().enumerate() {
                t.count(name, after[i].saturating_sub(before[i]));
            }
        }
        timed
    }

    /// The per-layer serve counters: daemon `STATS` counters, then the
    /// session's retries (transport retries plus `-RETRY` waits).
    fn counters(&mut self, m: &mut Measured) -> [u64; 5] {
        let stats = self.session.stats().unwrap_or_else(|e| {
            m.op(Err(format!("STATS: {}", e)));
            Vec::new()
        });
        let get = |n: &str| stats.iter().find(|(k, _)| k == n).map_or(0, |(_, v)| *v);
        [
            get("folded"),
            get("duplicates"),
            get("retry_busy"),
            get("fold_errors"),
            self.session.retries() + self.session.backpressure_waits(),
        ]
    }

    /// The run's closing checks: the daemon folded every streamed shard
    /// exactly once and no fold failed after admission (a failure the
    /// client never sees).
    pub fn check_totals(&mut self, m: &mut Measured) {
        let [folded, duplicates, _, fold_errors, _] = self.counters(m);
        for _ in 0..fold_errors {
            m.op(Err("daemon failed to fold an admitted shard".to_string()));
        }
        m.op(if folded == self.shards_streamed && duplicates == 0 {
            Ok(())
        } else {
            Err(format!(
                "daemon folded {} shards ({} duplicates), expected {}",
                folded, duplicates, self.shards_streamed
            ))
        });
    }

    /// Stop the daemon and wait for its threads.
    pub fn stop(&mut self) -> Result<(), String> {
        let bye = self.session.command("STOP").map_err(|e| e.to_string());
        if let Some(server) = self.server.take() {
            server.join();
        }
        match bye {
            Ok(b) if b == "+BYE" => Ok(()),
            Ok(b) => Err(format!("STOP answered {:?}", b)),
            Err(e) => Err(e),
        }
    }
}

/// Versions the daemon keeps before evicting the least recently ingested,
/// so memory does not grow with run length.
pub const MAX_VERSIONS: usize = 1;

/// The daemon configuration, built explicitly (never from the
/// environment): one fold worker, no watcher, no checkpoints, at most
/// [`MAX_VERSIONS`] resident versions.
pub fn server_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_versions: MAX_VERSIONS,
        params: params(),
        ..ServeConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_orders_match_batch_and_spans_nest() {
        let cfg = Config::tiny();
        let mut b = Bench::start(setup(&cfg, None), 1).unwrap();
        let mut m = Measured::default();
        b.pass(None, &mut m);
        let mut t = Tracer::new();
        b.pass(Some(&mut t), &mut m);
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        // 4 sends + 2 queries per version, 2 versions per pass, 2 passes.
        assert_eq!(m.attempted, 24);
        t.check_nesting().unwrap();
        let layers = t.self_ms(crate::span::Clock::Wall);
        for name in [
            "serve.send",
            "serve.sync",
            "core.fold",
            "serve.query.bb-trg",
        ] {
            assert!(layers.contains_key(name), "{}", name);
        }
        b.stop().unwrap();
    }

    #[test]
    fn a_wrong_served_order_fails_the_check() {
        let cfg = Config::tiny();
        let mut b = Bench::start(setup(&cfg, None), 1).unwrap();
        b.expected[0][1].swap(0, 1);
        let mut m = Measured::default();
        b.pass(None, &mut m);
        assert_eq!(m.failures.len(), 1, "{:?}", m.failures);
        b.stop().unwrap();
        assert!(check_answer(&[1, 2], &[2, 1]).is_err());
    }
}
