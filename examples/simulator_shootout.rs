//! Runs every simulator in the workspace on the same circuit and test set
//! and prints a mini Table 3 row: the four csim variants, PROOFS, the
//! deductive method, and the serial oracle — all agreeing on detections.
//!
//! ```text
//! cargo run --release --example simulator_shootout [circuit] [patterns]
//! ```

use std::time::Instant;

use cfs::atpg::random_patterns;
use cfs::baselines::{DeductiveSim, SerialSim};
use cfs::core_sim::{ConcurrentSim, CsimVariant, ProofsSim};
use cfs::faults::collapse_stuck_at;
use cfs::logic::Logic;
use cfs::netlist::generate::benchmark;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "s526g".to_owned());
    let count: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(200);
    let circuit = benchmark(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?}; try s298g, s526g, s1196g, …");
        std::process::exit(2);
    });
    println!("circuit: {circuit}");
    let faults = collapse_stuck_at(&circuit).representatives;
    let patterns = random_patterns(&circuit, count, 7);
    println!(
        "workload: {} collapsed faults × {} random patterns\n",
        faults.len(),
        patterns.len()
    );
    println!(
        "{:<12} {:>10} {:>10} {:>9}",
        "simulator", "detected", "cpu ms", "mem KB"
    );

    let mut reference: Option<usize> = None;
    for variant in CsimVariant::ALL {
        let mut sim = ConcurrentSim::new(&circuit, &faults, variant.options());
        let report = sim.run(&patterns);
        print_row(
            variant.name(),
            report.detected(),
            report.cpu.as_secs_f64(),
            report.memory_bytes,
        );
        check(&mut reference, report.detected(), variant.name());
    }
    {
        let mut sim = ProofsSim::new(&circuit, &faults);
        let report = sim.run(&patterns);
        print_row(
            "proofs",
            report.detected(),
            report.cpu.as_secs_f64(),
            report.memory_bytes,
        );
        check(&mut reference, report.detected(), "proofs");
    }
    {
        // The deductive method needs a binary start: give every simulator's
        // *detection count* context by rerunning from reset for this row.
        let reset = vec![Logic::Zero; circuit.num_dffs()];
        let start = Instant::now();
        let report = DeductiveSim::new(&circuit, &faults, reset)
            .run(&patterns)
            .expect("binary patterns");
        print_row(
            "deductive*",
            report.detected(),
            start.elapsed().as_secs_f64(),
            report.memory_bytes,
        );
    }
    {
        let sim = SerialSim::new(&circuit, &faults);
        let report = sim.run(&patterns);
        print_row(
            "serial",
            report.detected(),
            report.cpu.as_secs_f64(),
            report.memory_bytes,
        );
        check(&mut reference, report.detected(), "serial");
    }
    println!("\n(*) deductive runs from the all-zero reset state, the others from all-X.");
}

fn print_row(name: &str, detected: usize, cpu_s: f64, mem: usize) {
    println!(
        "{:<12} {:>10} {:>10.1} {:>9}",
        name,
        detected,
        cpu_s * 1e3,
        mem / 1024
    );
}

fn check(reference: &mut Option<usize>, detected: usize, who: &str) {
    match reference {
        None => *reference = Some(detected),
        Some(r) => assert_eq!(*r, detected, "{who} disagrees with the other simulators"),
    }
}
