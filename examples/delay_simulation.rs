//! Arbitrary-delay simulation: the mode concurrent simulation is prized
//! for in industry (§1 of the paper). The paper's concurrent machine in
//! its arbitrary-delay form (`DelayCsim`), given an empty fault list, is a
//! good-machine simulator: it shows a static hazard producing a glitch
//! that zero-delay simulation cannot see, and clocked operation of a
//! sequential circuit under per-gate delays next to zero-delay csim.
//!
//! ```text
//! cargo run --example delay_simulation
//! ```

use cfs::core_sim::{ConcurrentSim, CsimVariant, DelayCsim};
use cfs::goodsim::DelayModel;
use cfs::logic::{parse_pattern, Logic};
use cfs::netlist::{data::s27, parse_bench};

fn main() {
    hazard_demo();
    clocked_demo();
}

/// y = OR(a, NOT(a)) is constant 1 in zero-delay logic, but a slow inverter
/// exposes a 0-glitch on the falling edge of `a`.
fn hazard_demo() {
    println!("— static-1 hazard under arbitrary delays —");
    let c = parse_bench("hz", "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n")
        .expect("hazard netlist");
    let delays = DelayModel::from_fn(&c, |id| if c.gate(id).name() == "n" { 5 } else { 1 });
    let mut sim = DelayCsim::new(&c, delays, &[]);
    let y = c.find("y").expect("signal y");

    sim.set_inputs(&[Logic::One]);
    let t1 = sim.run_until_quiet(100).expect("settles");
    sim.set_inputs(&[Logic::Zero]);
    let end = t1 + 8;
    let wave: String = (t1..=end)
        .map(|t| {
            sim.run_until_quiet(t);
            sim.value(y).to_string()
        })
        .collect();
    println!(
        "  falling edge on a at t={t1}: y over t={t1}..={end} is {wave} (glitch!), final value {}",
        sim.value(y)
    );
}

/// Clocked operation of s27 with unit delays vs. the zero-delay model.
fn clocked_demo() {
    println!("— clocked s27: arbitrary-delay vs. zero-delay —");
    let c = s27();
    let mut dsim = DelayCsim::new(&c, DelayModel::unit(&c), &[]);
    let mut zsim = ConcurrentSim::new(&c, &[], CsimVariant::Base.options());
    let sequence = ["0000", "1111", "0101", "0011"];
    for (t, pat) in sequence.iter().enumerate() {
        let p = parse_pattern(pat).expect("pattern");
        // Arbitrary-delay: apply inputs, let the network settle, sample,
        // then clock the flip-flops.
        dsim.set_inputs(&p);
        let settled_at = dsim.run_until_quiet(1_000).expect("settles");
        let dout = dsim.value(c.outputs()[0]);
        dsim.clock();
        dsim.run_until_quiet(1_000).expect("clock-to-q settles");
        // Zero-delay: one step per cycle.
        let zout = zsim.step(&p).outputs[0];
        println!(
            "  cycle {t}: inputs {pat} → delay-sim PO {dout} (settled t={settled_at}), zero-delay PO {zout}"
        );
        assert_eq!(dout, zout, "steady-state values agree");
    }
    println!(
        "  list events processed by the delay simulator: {}",
        dsim.events
    );
}
