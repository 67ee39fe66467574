//! The host-speed reference: a fixed kernel, independent of every
//! program crate, timed between repetitions. The host this benchmark
//! runs on is shared, and its speed drifts by up to 2× over minutes;
//! dividing each measured time by the reference time around it cancels
//! that drift while a change to the program still moves the ratio.
//!
//! Normalised times are "seconds at reference speed": the time the work
//! would take on a host where the reference kernel takes
//! [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's duration that defines reference speed.
pub const REFERENCE_S: f64 = 0.010;

/// Words in the working set (4 MiB: beyond the private caches, like
/// the backends' row stores).
const WORDS: usize = 1 << 19;
/// Dependent iterations per measurement.
const ITERATIONS: u64 = 60_000;

/// Measures the reference kernel on the calling thread.
pub struct Reference {
    buffer: Vec<u64>,
}

impl Reference {
    /// Allocates and touches the working set.
    pub fn new() -> Self {
        Self {
            buffer: vec![1; WORDS],
        }
    }

    /// Resident size of the working set, MiB (kept out of the reported
    /// peak memory).
    pub fn resident_mib(&self) -> f64 {
        (self.buffer.len() * std::mem::size_of::<u64>()) as f64 / f64::from(1 << 20)
    }

    /// Runs the kernel once; returns the host seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(kernel(&mut self.buffer));
        t.elapsed().as_secs_f64()
    }
}

/// Dependent random read-modify-writes over `buf`, with an integer hash
/// and a floating-point chain: memory latency, ALU and FPU work in one
/// fixed mix.
fn kernel(buf: &mut [u64]) -> u64 {
    let mask = buf.len() - 1;
    let (mut x, mut f) = (0x9e37_79b9_7f4a_7c15u64, 1.0f64);
    for i in 0..ITERATIONS {
        let j = (x as usize) & mask;
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(buf[j] ^ i);
        buf[j] = x;
        f = f.mul_add(1.000_000_1, (x & 0xff) as f64 * 1e-9);
    }
    x ^ f.to_bits()
}

/// Converts host seconds measured between two reference measurements
/// to seconds at reference speed.
pub fn normalise(host_s: f64, before: f64, after: f64) -> f64 {
    host_s * REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_repeatable_work() {
        let mut a = vec![1u64; 1 << 10];
        let mut b = vec![1u64; 1 << 10];
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert!(Reference::new().measure() > 0.0);
        assert_eq!(normalise(2.0, 0.02, 0.02), 1.0);
    }
}
