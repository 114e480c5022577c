//! Host-speed calibration.
//!
//! The recording host is a two-vCPU VM whose core clock moves between two
//! states 1.22-1.28x apart (a fixed integer loop takes 0.93 ms or
//! 1.15-1.19 ms; a state lasts from under a second to minutes), and which
//! state a thread sees depends also on how many vCPUs are busy. Nothing
//! inside the guest shows it - steal time is zero and the TSC is
//! invariant. Ten identical 12-second runs therefore report raw medians
//! up to 20 % apart quartile to quartile (`dataplane_min_pkt`), and the
//! driver accepts a benchmark only if that spread stays within the
//! metric's bound, which is at most 0.25, and asks for a third of it.
//! Measuring longer does not help while a state can outlast a run.
//!
//! Every CPU-bound rep is therefore bracketed by samples of a fixed
//! dependent-chain integer kernel, run on as many threads as the rep keeps
//! busy. The kernel's time is inversely proportional to the core clock, so
//! `REFERENCE_NS / observed` is the host's speed across the rep relative
//! to the reference (the recording host in its fast state), and a wall
//! time multiplied by it is the time the rep would have taken at reference
//! speed. `benchmark/README.md` ("Host-speed normalisation") has the
//! per-workload evidence: how rep times follow the kernel's, and the
//! spread of ten runs with and without. Wall times that do not scale with
//! the core clock - the control-plane round trip spends 97 % of its time
//! blocked on a socket - are reported raw, and every normalised figure has
//! its raw counterpart and `bench.host_speed` printed beside it.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the kernel per sample (about a millisecond).
const KERNEL_ITERS: u64 = 650_000;

/// The kernel's time on the reference host: the recording host in its
/// fast clock state (the minimum over ten minutes of samples).
pub const REFERENCE_NS: f64 = 930_400.0;

/// One timed run of the kernel, nanoseconds: a xorshift chain, every
/// operation waiting on the one before, so memory and issue width do not
/// matter and only the clock does.
fn sample_ns() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..KERNEL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64
}

/// The kernel's time with `threads` threads running it at once: on each,
/// the faster of two samples (an interrupt can only lengthen one); across
/// them, the mean.
fn side_ns(threads: usize) -> f64 {
    let one = || sample_ns().min(sample_ns());
    if threads <= 1 {
        return one();
    }
    let each: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    each.iter().sum::<f64>() / each.len() as f64
}

/// An open bracket around one rep.
pub struct Bracket {
    threads: usize,
    before_ns: f64,
}

impl Bracket {
    /// Sample the kernel on as many threads as the rep will keep busy,
    /// then let the rep run.
    pub fn open(threads: usize) -> Bracket {
        Bracket {
            threads,
            before_ns: side_ns(threads),
        }
    }

    /// Sample again and return the host's speed across the rep relative
    /// to the reference: 1.0 at reference speed, below it when slower.
    /// Multiply a wall time by it (divide a rate) to normalise.
    pub fn close(self) -> f64 {
        REFERENCE_NS * 2.0 / (self.before_ns + side_ns(self.threads))
    }
}

/// Run `f`, which keeps `threads` threads busy, inside a bracket: its
/// result and its wall time in seconds at reference host speed.
pub fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let bracket = Bracket::open(threads);
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (out, wall_s * bracket.close())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bracket_reports_a_plausible_speed() {
        // Debug builds run the kernel several times slower; the point is
        // a finite, positive factor.
        for threads in [1, 2] {
            let speed = Bracket::open(threads).close();
            assert!(speed > 0.001 && speed < 100.0, "{threads}: {speed}");
        }
    }
}
