//! Engine structural invariants under stress.

use cfs_core::{ConcurrentSim, CsimOptions, CsimVariant};
use cfs_faults::enumerate_stuck_at;
use cfs_logic::Logic;
use cfs_netlist::generate::{benchmark, generate, CircuitSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..n_inputs)
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

#[test]
fn engine_invariants_hold_under_stress() {
    // Random circuits, random X-containing stimulus, all option
    // combinations: the fault-list structure must stay well-formed after
    // every cycle.
    let mut rng = StdRng::seed_from_u64(404);
    for seed in 0..3u64 {
        let spec = CircuitSpec::new(format!("inv{seed}"), 4, 3, 5, 45, 3000 + seed);
        let c = generate(&spec);
        let faults = enumerate_stuck_at(&c);
        for split in [false, true] {
            for use_macros in [false, true] {
                for drop in [false, true] {
                    let mut sim = ConcurrentSim::new(
                        &c,
                        &faults,
                        CsimOptions {
                            split_invisible: split,
                            use_macros,
                            macro_max_inputs: 4,
                            drop_detected: drop,
                            hot_lanes: cfs_core::DEFAULT_HOT_LANES,
                        },
                    );
                    for _ in 0..15 {
                        let p: Vec<Logic> = (0..c.num_inputs())
                            .map(|_| match rng.gen_range(0..6) {
                                0 => Logic::X,
                                k => Logic::from_bool(k % 2 == 0),
                            })
                            .collect();
                        sim.step(&p);
                        sim.assert_invariants();
                    }
                }
            }
        }
    }
}

#[test]
fn dropping_eventually_frees_detected_elements() {
    // After detection, continued simulation traverses the lists and purges
    // the dropped elements: live storage must shrink towards the floor of
    // permanent local elements of undetected faults.
    let c = benchmark("s298g").unwrap();
    let faults = enumerate_stuck_at(&c);
    let patterns = random_patterns(c.num_inputs(), 120, 3);
    let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::V.options());
    for p in &patterns {
        sim.step(p);
    }
    let detected = sim.detected();
    assert!(detected > 0);
    let live = sim.live_elements();
    let peak = sim.peak_elements();
    assert!(
        live < peak,
        "event-driven dropping reclaimed storage: live {live} < peak {peak}"
    );
    sim.assert_invariants();
}
