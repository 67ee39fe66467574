//! The single-cell truth tables as a property at circuit level: over a
//! seeded population of varied devices (`VariationSpec::typical`), every
//! TBA state class (the number of stored ones) must sense a current
//! clear of the next class's, and so must the two stored bits of NOT.
//! Both operations invert: more stored ones, less current.
//!
//! Runs at 300 K only. Heating the ferroelectric capacitors needs
//! `MfmCapacitor::set_temperature` plumbed through `NetlistConfig`, and
//! the MOSFET model has no temperature term.

use felim::cell::netlists::{
    not_testbench, run_with_solver, sensed_current, tba_testbench, CellTestbench, NetlistConfig,
    SolverOptions,
};
use felim::cell::Bit;
use felim::exec::{derive_seed, parallel_map};
use felim::ferro::{DeviceSampler, VariationSpec};

/// Varied devices per pattern; device `i` is the same in every pattern.
const DEVICES: u64 = 16;
const SEED: u64 = 0x2a7c_1a55;

/// The stated margin: each class's lowest current must exceed the next
/// class's highest by this factor.
const MIN_CLASS_RATIO: f64 = 1.25;

/// Sensed RSL current of each varied device in the testbench `build`
/// makes for it, on the default (golden-path) solver.
fn sensed(cfg: &NetlistConfig, build: impl Fn(&NetlistConfig) -> CellTestbench + Sync) -> Vec<f64> {
    let devices: Vec<u64> = (0..DEVICES).collect();
    parallel_map(&devices, |_, &i| {
        let mut sampler =
            DeviceSampler::new(&cfg.mfm, VariationSpec::typical(), derive_seed(SEED, i));
        let mut device = cfg.clone();
        device.mfm = sampler.sample();
        let mut tb = build(&device);
        let trace = run_with_solver(&mut tb, &device, &SolverOptions::default())
            .expect("transient converges");
        sensed_current(&trace, &tb.schedule).expect("read transistor in the trace")
    })
}

/// `(lowest, highest)` of a set of currents.
fn range(currents: &[f64]) -> (f64, f64) {
    currents
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
            (lo.min(i), hi.max(i))
        })
}

/// The worst ratio of a class's lowest current to the next class's
/// highest, over classes ordered from most to least current.
fn worst_ratio(classes: &[(f64, f64)]) -> f64 {
    classes
        .windows(2)
        .map(|w| w[0].0 / w[1].1)
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn tba_state_classes_do_not_overlap_across_devices() {
    let cfg = NetlistConfig::standard();
    let mut by_ones: [Vec<f64>; 4] = Default::default();
    for pattern in 0..8u8 {
        by_ones[pattern.count_ones() as usize].extend(sensed(&cfg, |d| tba_testbench(d, pattern)));
    }
    let classes: Vec<(f64, f64)> = by_ones.iter().map(|c| range(c)).collect();
    for (ones, (lo, hi)) in classes.iter().enumerate() {
        println!("{ones} ones: [{:.3}, {:.3}] nA", lo * 1e9, hi * 1e9);
    }
    let worst = worst_ratio(&classes);
    println!("worst class ratio {worst:.3}");
    assert!(
        worst > MIN_CLASS_RATIO,
        "TBA classes within {MIN_CLASS_RATIO}x of overlapping: {classes:?}"
    );
}

#[test]
fn not_reads_both_stored_bits_apart_across_devices() {
    let cfg = NetlistConfig::standard();
    let zero = range(&sensed(&cfg, |d| not_testbench(d, Bit::Zero)));
    let one = range(&sensed(&cfg, |d| not_testbench(d, Bit::One)));
    println!(
        "NOT: stored 0 [{:.3}, {:.3}] nA, stored 1 [{:.3}, {:.3}] nA",
        zero.0 * 1e9,
        zero.1 * 1e9,
        one.0 * 1e9,
        one.1 * 1e9
    );
    let worst = worst_ratio(&[zero, one]);
    println!("worst NOT ratio {worst:.3}");
    assert!(
        worst > MIN_CLASS_RATIO,
        "NOT bits within {MIN_CLASS_RATIO}x of overlapping: {zero:?} vs {one:?}"
    );
}
