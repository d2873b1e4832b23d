//! The host's clock, measured, so that every time the benchmark reports
//! can be scaled to a fixed reference clock.
//!
//! On a shared host the cores' clock moves in steps of a few percent as
//! neighbours load the machine, and every CPU-bound number moves with it.
//! The probe is a fixed chain of dependent multiplies, adds and shifts:
//! it touches no memory, so its time follows the clock and nothing the
//! program under test could change. A time measured in a round,
//! multiplied by [`scale`] of the probe taken right after that round, is
//! the time the same work would take at the reference clock. A
//! neighbour's burst of cache and memory traffic slows the program far
//! more than the probe; repeating work and keeping its fastest pieces is
//! what removes those.

use std::time::Instant;

/// Steps of the dependent chain in one probe run.
const STEPS: u64 = 200_000;

/// Probe runs per [`probe`]; the fastest one is the clock's reading.
const RUNS: usize = 10;

/// The fastest probe run, in seconds, on the reference host: a two-vCPU
/// KVM guest of an Intel Xeon (family 6, model 207) at its usual clock.
pub const REFERENCE_S: f64 = 370e-6;

fn chain() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x1234_5678_9abc_def0u64);
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f)
            ^ (x >> 17);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// The fastest of [`RUNS`] runs of the chain, in seconds (about 4 ms in
/// all): the clock right now.
pub fn probe() -> f64 {
    (0..RUNS).map(|_| chain()).fold(f64::INFINITY, f64::min)
}

/// The factor that turns a time measured at the clock `probe` read into
/// the time it would take at the reference clock.
pub fn scale(probe: f64) -> f64 {
    REFERENCE_S / probe
}

/// Runs `measure` for its times (seconds), then probes the clock and
/// returns them at the reference clock.
pub fn at_reference(measure: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let times: Vec<f64> = measure.into_iter().collect();
    let scale = scale(probe());
    times.into_iter().map(|t| t * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_maps_a_slow_clock_back_to_the_reference() {
        let reading = probe();
        assert!(reading > 0.0 && reading.is_finite());
        assert_eq!(scale(REFERENCE_S), 1.0);
        // A clock half as fast doubles every time; scaling halves it back.
        assert_eq!(scale(REFERENCE_S * 2.0), 0.5);
    }
}
