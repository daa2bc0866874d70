//! Deterministic network fault injection: a seeded stream wrapper.
//!
//! [`fault`](crate::fault) corrupts *artifacts at rest*; this module corrupts the
//! *transport*. [`FaultStream`] wraps any `Read + Write` byte stream and
//! injects the failure modes a TCP peer actually observes:
//!
//! * **delay** — an operation stalls for a bounded number of
//!   milliseconds before proceeding (congestion, a GC pause on the peer);
//! * **short read** — a read returns fewer bytes than asked, splitting a
//!   protocol frame across arbitrary boundaries;
//! * **partial write** — a write accepts only a prefix, so `write_all`
//!   loops and the frame crosses the wire in fragments;
//! * **duplicate delivery** — written bytes are delivered twice (the
//!   retransmission/replay model for datagram-shaped mistakes, and the
//!   stress test for idempotent resend);
//! * **disconnect** — the stream dies mid-operation: a write delivers a
//!   prefix of the frame and then errors, a read errors outright; every
//!   later operation fails too.
//!
//! Every decision comes from a [`Rng`] seeded by the
//! caller, so a failing run is replayable from its seed: the same
//! `(seed, schedule, operation sequence)` injects the same faults. The
//! schedule itself ([`FaultSpec`]) is a compact `key=value` string so it
//! can travel through environment variables and CLI arguments unchanged.

use crate::rng::Rng;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Per-operation fault probabilities and magnitudes. All probabilities
/// are independent per operation; `0.0` disables a fault kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability an operation is delayed before running.
    pub p_delay: f64,
    /// Maximum injected delay in milliseconds (uniform in `[1, max]`).
    pub max_delay_ms: u64,
    /// Probability a read is truncated / a write accepts only a prefix.
    pub p_short: f64,
    /// Probability written bytes are delivered twice.
    pub p_dup: f64,
    /// Probability the stream dies mid-operation (permanently).
    pub p_disconnect: f64,
}

impl Default for FaultSpec {
    /// The all-quiet schedule: no faults at all.
    fn default() -> FaultSpec {
        FaultSpec {
            p_delay: 0.0,
            max_delay_ms: 0,
            p_short: 0.0,
            p_dup: 0.0,
            p_disconnect: 0.0,
        }
    }
}

impl FaultSpec {
    /// A moderately hostile schedule used by the chaos suites: frequent
    /// frame splitting, occasional delay and duplication, rare death.
    pub fn chaotic() -> FaultSpec {
        FaultSpec {
            p_delay: 0.05,
            max_delay_ms: 5,
            p_short: 0.30,
            p_dup: 0.05,
            p_disconnect: 0.02,
        }
    }

    /// Parse a compact schedule string:
    /// `delay=<p>:<max_ms>,short=<p>,dup=<p>,disc=<p>`. Keys may appear
    /// in any order and may be omitted (omitted ⇒ 0). The empty string
    /// is the all-quiet schedule.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item without '=': {:?}", part))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("bad fault probability {:?}", v))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability {} outside [0, 1]", p));
                }
                Ok(p)
            };
            match key.trim() {
                "delay" => {
                    let (p, ms) = value
                        .split_once(':')
                        .ok_or_else(|| format!("delay needs <p>:<max_ms>, got {:?}", value))?;
                    spec.p_delay = prob(p)?;
                    spec.max_delay_ms = ms
                        .parse()
                        .map_err(|_| format!("bad delay bound {:?}", ms))?;
                }
                "short" => spec.p_short = prob(value)?,
                "dup" => spec.p_dup = prob(value)?,
                "disc" => spec.p_disconnect = prob(value)?,
                other => return Err(format!("unknown fault kind {:?}", other)),
            }
        }
        Ok(spec)
    }
}

/// A `Read + Write` stream with seeded, per-operation fault injection.
/// Wraps both directions of `inner`; once a disconnect fault fires, every
/// subsequent operation fails with `ConnectionReset`.
pub struct FaultStream<S> {
    inner: S,
    rng: Rng,
    spec: FaultSpec,
    dead: bool,
    /// Count of faults injected so far, by kind, for test assertions:
    /// `[delay, short, dup, disconnect]`.
    injected: [u64; 4],
}

impl<S> FaultStream<S> {
    /// Wrap `inner` with the given schedule; all fault decisions derive
    /// from `seed`.
    pub fn new(inner: S, seed: u64, spec: FaultSpec) -> FaultStream<S> {
        FaultStream {
            inner,
            rng: Rng::seed_from_u64(seed),
            spec,
            dead: false,
            injected: [0; 4],
        }
    }

    /// Injected fault counts `[delay, short, dup, disconnect]`.
    pub fn injected(&self) -> [u64; 4] {
        self.injected
    }

    /// True once a disconnect fault has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    fn dead_err() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect")
    }

    fn maybe_delay(&mut self) {
        if self.spec.p_delay > 0.0 && self.rng.gen_bool(self.spec.p_delay) {
            self.injected[0] += 1;
            let ms = 1 + self.rng.next_u64() % self.spec.max_delay_ms.max(1);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::dead_err());
        }
        self.maybe_delay();
        if self.rng.gen_bool(self.spec.p_disconnect) {
            self.injected[3] += 1;
            self.dead = true;
            return Err(Self::dead_err());
        }
        let n = if buf.len() > 1 && self.rng.gen_bool(self.spec.p_short) {
            self.injected[1] += 1;
            1 + self.rng.gen_index(buf.len() - 1)
        } else {
            buf.len()
        };
        self.inner.read(&mut buf[..n])
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::dead_err());
        }
        self.maybe_delay();
        if self.rng.gen_bool(self.spec.p_disconnect) {
            // Mid-frame death: a prefix may already be on the wire before
            // the connection drops — the torn-frame case the receiver's
            // framing must survive.
            self.injected[3] += 1;
            self.dead = true;
            if !buf.is_empty() {
                let k = self.rng.gen_index(buf.len());
                if k > 0 {
                    let _ = self.inner.write(&buf[..k]);
                    let _ = self.inner.flush();
                }
            }
            return Err(Self::dead_err());
        }
        if self.rng.gen_bool(self.spec.p_dup) && !buf.is_empty() {
            // Duplicate delivery: the same bytes land twice. Report the
            // nominal count so the sender's framing stays consistent.
            self.injected[2] += 1;
            self.inner.write_all(buf)?;
            self.inner.write_all(buf)?;
            return Ok(buf.len());
        }
        if buf.len() > 1 && self.rng.gen_bool(self.spec.p_short) {
            // Partial write: accept a strict prefix; `write_all` callers
            // loop and the frame crosses in fragments.
            self.injected[1] += 1;
            let k = 1 + self.rng.gen_index(buf.len() - 1);
            return self.inner.write(&buf[..k]);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(Self::dead_err());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex half: reads from `input`, writes to `output`.
    struct Pipe {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Pipe {
        fn with_input(bytes: &[u8]) -> Pipe {
            Pipe {
                input: Cursor::new(bytes.to_vec()),
                output: Vec::new(),
            }
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn quiet_schedule_is_transparent() {
        let data: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let mut fs = FaultStream::new(Pipe::with_input(&data), 1, FaultSpec::default());
        let mut got = Vec::new();
        fs.read_to_end(&mut got).unwrap();
        assert_eq!(got, data);
        fs.write_all(&data).unwrap();
        assert_eq!(fs.get_ref().output, data);
        assert_eq!(fs.injected(), [0; 4]);
    }

    #[test]
    fn short_reads_still_deliver_every_byte_in_order() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 249) as u8).collect();
        let spec = FaultSpec {
            p_short: 0.9,
            ..FaultSpec::default()
        };
        let mut fs = FaultStream::new(Pipe::with_input(&data), 7, spec);
        let mut got = Vec::new();
        fs.read_to_end(&mut got).unwrap();
        assert_eq!(got, data, "short reads must only split, never corrupt");
        assert!(fs.injected()[1] > 0, "a 0.9 schedule must actually fire");
    }

    #[test]
    fn partial_writes_with_write_all_deliver_every_byte() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 247) as u8).collect();
        let spec = FaultSpec {
            p_short: 0.9,
            ..FaultSpec::default()
        };
        let mut fs = FaultStream::new(Pipe::with_input(&[]), 9, spec);
        fs.write_all(&data).unwrap();
        assert_eq!(fs.get_ref().output, data);
        assert!(fs.injected()[1] > 0);
    }

    #[test]
    fn duplicate_delivery_writes_bytes_twice() {
        let spec = FaultSpec {
            p_dup: 1.0,
            ..FaultSpec::default()
        };
        let mut fs = FaultStream::new(Pipe::with_input(&[]), 3, spec);
        assert_eq!(fs.write(b"abc").unwrap(), 3);
        assert_eq!(fs.get_ref().output, b"abcabc");
        assert_eq!(fs.injected()[2], 1);
    }

    #[test]
    fn disconnect_is_permanent_and_may_tear_a_frame() {
        let spec = FaultSpec {
            p_disconnect: 1.0,
            ..FaultSpec::default()
        };
        let mut fs = FaultStream::new(Pipe::with_input(b"payload"), 5, spec);
        assert!(fs.write(b"0123456789").is_err());
        assert!(fs.is_dead());
        // The torn prefix, if any, is a strict prefix of the frame.
        let out = &fs.get_ref().output;
        assert!(out.len() < 10);
        assert_eq!(&b"0123456789"[..out.len()], &out[..]);
        // Everything after death fails, including reads and flushes.
        let mut buf = [0u8; 4];
        assert!(fs.read(&mut buf).is_err());
        assert!(fs.flush().is_err());
        assert_eq!(fs.injected()[3], 1);
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let data: Vec<u8> = (0..500).map(|i| (i % 241) as u8).collect();
        let spec = FaultSpec::chaotic();
        let run = |seed: u64| {
            let mut fs = FaultStream::new(Pipe::with_input(&[]), seed, spec);
            let mut wrote = 0usize;
            let mut errs = 0usize;
            for chunk in data.chunks(37) {
                match fs.write(chunk) {
                    Ok(n) => wrote += n,
                    Err(_) => errs += 1,
                }
                if fs.is_dead() {
                    break;
                }
            }
            (wrote, errs, fs.injected(), fs.get_ref().output.clone())
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        // Different seeds almost surely diverge under a chaotic schedule.
        assert_ne!(run(42).3, run(43).3);
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        let spec = FaultSpec::parse("delay=0.05:5,short=0.3,dup=0.05,disc=0.02").unwrap();
        assert_eq!(spec, FaultSpec::chaotic());
        let partial = FaultSpec::parse("short=0.5").unwrap();
        assert_eq!(partial.p_short, 0.5);
        assert_eq!(partial.p_disconnect, 0.0);
        assert!(FaultSpec::parse("short").is_err());
        assert!(FaultSpec::parse("short=2.0").is_err());
        assert!(FaultSpec::parse("delay=0.1").is_err());
        assert!(FaultSpec::parse("warp=0.1").is_err());
    }
}
