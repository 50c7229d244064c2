//! The one `.bench` reader builds each circuit with the same `GateId`s
//! whatever the order of its definition lines, and in time linear in the
//! netlist: gate numbering keys fault numbering, detection files,
//! checkpoints and baselines, so it must never move.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cfs_check::check_and_parse_bench;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::{parse_bench, write_bench, Circuit};

fn gate_names(circuit: &Circuit) -> Vec<String> {
    circuit
        .gates()
        .iter()
        .map(|g| g.name().to_owned())
        .collect()
}

/// Reference numbering: sources (inputs and flip-flops) in definition
/// order, then sweeps over the remaining gate definitions, in definition
/// order, each building every gate whose fanins are all built.
fn sweep_order(source: &str) -> Vec<String> {
    let mut order = Vec::new();
    let mut gates: Vec<(String, Vec<String>)> = Vec::new();
    for line in source.lines() {
        let text = line.split('#').next().unwrap_or("").trim();
        if let Some(name) = text.strip_prefix("INPUT(") {
            order.push(name.trim_end_matches(')').trim().to_owned());
            continue;
        }
        let Some((lhs, rhs)) = text.split_once('=') else {
            continue;
        };
        let (func, args) = rhs.trim().split_once('(').expect("name = FN(args)");
        let args = args.trim_end_matches(')').split(',');
        let args = args.map(|a| a.trim().to_owned()).collect();
        if func.trim().eq_ignore_ascii_case("DFF") {
            order.push(lhs.trim().to_owned());
        } else {
            gates.push((lhs.trim().to_owned(), args));
        }
    }
    let mut built: HashSet<String> = order.iter().cloned().collect();
    while !gates.is_empty() {
        let before = gates.len();
        gates.retain(|(name, args)| {
            let ready = args.iter().all(|a| built.contains(a));
            if ready {
                built.insert(name.clone());
                order.push(name.clone());
            }
            !ready
        });
        assert!(
            gates.len() < before,
            "the reference needs an acyclic netlist"
        );
    }
    order
}

/// An inverter chain `n0 -> n1 -> ... -> n{len}`, its gates written in
/// forward or reverse order.
fn inverter_chain(len: usize, reverse: bool) -> String {
    let mut defs: Vec<String> = (1..=len)
        .map(|i| format!("n{i} = NOT(n{})", i - 1))
        .collect();
    if reverse {
        defs.reverse();
    }
    format!("INPUT(n0)\nOUTPUT(n{len})\n{}\n", defs.join("\n"))
}

#[test]
fn s27_gate_order_is_pinned() {
    let names = gate_names(&cfs_netlist::data::s27());
    assert_eq!(
        names.join(" "),
        "G0 G1 G2 G3 G5 G6 G7 G14 G8 G16 G12 G13 G15 G9 G11 G17 G10"
    );
    assert_eq!(names, sweep_order(cfs_netlist::data::S27_BENCH));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shuffling the lines of a generated netlist changes its gate
    /// numbering exactly as the sweep loop would have.
    #[test]
    fn shuffled_definitions_number_gates_like_the_sweep_loop(
        seed in 0u64..1000,
        dffs in 1usize..6,
        gates in 5usize..80,
        shuffle in any::<u64>(),
    ) {
        let spec = CircuitSpec::new(format!("sh{seed}"), 4, 2, dffs, gates, 0x5eed + seed);
        let text = write_bench(&generate(&spec));
        let mut lines: Vec<&str> = text.lines().collect();
        let mut rng = StdRng::seed_from_u64(shuffle);
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.gen_range(0..i + 1));
        }
        let shuffled = lines.join("\n");
        let circuit = parse_bench("sh", &shuffled).expect("a shuffled netlist parses");
        prop_assert_eq!(gate_names(&circuit), sweep_order(&shuffled));
    }
}

/// A chain written back to front must not cost one sweep per gate.
#[test]
fn reverse_ordered_chain_builds_the_forward_circuit_in_linear_time() {
    const LEN: usize = 20_000;
    let forward = write_bench(&parse_bench("chain", &inverter_chain(LEN, false)).unwrap());
    let reverse = inverter_chain(LEN, true);
    let started = Instant::now();
    let (report, built) = check_and_parse_bench("chain", &reverse);
    let elapsed = started.elapsed();
    assert!(!report.has_errors(), "{}", report.render_text());
    assert_eq!(
        write_bench(&built.expect("a clean netlist builds").0),
        forward
    );
    assert_eq!(
        write_bench(&parse_bench("chain", &reverse).unwrap()),
        forward
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "check_and_parse_bench took {elapsed:?}"
    );
}
