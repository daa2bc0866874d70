//! Wall and process CPU clocks.
//!
//! On a shared virtual machine the wall time of CPU-bound work swings with
//! the time other guests steal from this one (5–37% of a CPU, changing
//! over minutes, on the 2-vCPU host the benchmark was tuned on). The
//! process CPU clock counts only time this process's threads actually ran,
//! so it moves with the work done, not with the neighbours. The gated
//! end-to-end metrics use it; wall times are reported beside them.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the process CPU clock is read through 64-bit Linux clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is one
    // of the Linux constants for the calling process's or thread's CPU
    // clock.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU clocks are always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed by all threads of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and process CPU time elapsed since a start point.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

/// An interval measured on both clocks, in seconds, and its CPU time
/// scaled to the reference host speed (see [`crate::host`]): not a number
/// until a record scales it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Elapsed {
    pub wall: f64,
    pub cpu: f64,
    pub scaled: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            cpu: process_cpu_s() - self.cpu,
            wall: self.wall.elapsed().as_secs_f64(),
            scaled: f64::NAN,
        }
    }
}

impl std::ops::AddAssign for Elapsed {
    fn add_assign(&mut self, o: Elapsed) {
        self.wall += o.wall;
        self.cpu += o.cpu;
        self.scaled += o.scaled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_the_work_of_every_thread() {
        let sw = Stopwatch::start();
        std::thread::spawn(move || {
            let mut x = 0u64;
            while sw.elapsed().cpu < 0.02 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        })
        .join()
        .expect("busy thread");
        let e = sw.elapsed();
        assert!(e.cpu >= 0.02 && e.wall > 0.0, "{:?}", e);
    }
}
