//! The simulation network: the circuit (optionally macro-collapsed) plus the
//! fault descriptors, compiled into a flat node array for the engine.
//!
//! Adjacency is stored in **compressed sparse row** form: one shared edge
//! array per direction (`src_edges`, `fan_edges`) with per-node offset
//! tables, instead of a `Vec<NodeId>` inside every node. The propagation
//! loop walks fanin and fanout for every event, so keeping the edges in two
//! dense arrays means those walks stream through contiguous memory — and
//! hands the engine plain slices it can borrow without cloning. Fanout
//! edges are sorted (and deduplicated) per node, so events are injected
//! into the scheduler in ascending node order.

use std::collections::HashMap;

use cfs_faults::{Edge, FaultSite, StuckAt, TransitionFault};
use cfs_logic::{GateFn, Logic, Lut3};
use cfs_netlist::{
    extract_macros, CellPlan, Circuit, GateId, GateKind, MacroFaultSite, PlanFault, PlanStep,
};

/// Dense node identifier within the compiled network.
pub(crate) type NodeId = u32;

/// Structural role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// Primary input `pi_index`.
    Input(u32),
    /// Flip-flop; its driver node computes the D value.
    Dff,
    /// Combinational gate or macro cell.
    Eval,
}

/// How a node's good machine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeEval {
    /// Direct gate-function fold.
    Direct(GateFn),
    /// Table look-up (macro cells; index into the LUT pool).
    Lut(u32),
    /// Sources (inputs and flip-flops) are not evaluated.
    None,
}

/// The local effect of a fault at its site node — the information the
/// paper stores in the *fault descriptor* ("how to evaluate the faulty
/// machine").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LocalEffect {
    /// The node's output is stuck.
    OutputStuck(Logic),
    /// One input pin is stuck (branch fault).
    PinStuck {
        /// Pin index.
        pin: u8,
        /// Stuck value.
        value: Logic,
    },
    /// Macro functional fault: evaluate through this faulty LUT.
    FaultyLut(u32),
    /// Transition fault on an input pin (used by the transition engine).
    TransitionPin {
        /// Pin index.
        pin: u8,
        /// Delayed edge.
        edge: Edge,
    },
}

/// Central per-fault record (the paper's fault descriptor).
#[derive(Debug, Clone)]
pub(crate) struct Descriptor {
    /// The node hosting the fault.
    pub site: NodeId,
    /// How to evaluate the faulty machine at the site.
    pub effect: LocalEffect,
    /// Pattern index of first detection.
    pub detected_at: Option<u32>,
    /// Proven undetectable (e.g. functionally redundant within its macro).
    pub untestable: bool,
}

impl Descriptor {
    #[inline]
    pub fn is_detected(&self) -> bool {
        self.detected_at.is_some()
    }
}

/// One compiled node. Adjacency lives in the [`Network`]'s CSR arrays.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub kind: NodeKind,
    pub eval: NodeEval,
    /// Evaluation level (0 for sources).
    pub level: u32,
    /// Faults sited at this node (ascending fault ids) — slice into
    /// [`Network::locals`].
    pub locals: std::ops::Range<u32>,
}

/// The compiled simulation network.
#[derive(Debug, Clone)]
pub(crate) struct Network {
    pub nodes: Vec<Node>,
    /// CSR offsets into [`src_edges`](Self::src_edges); length `nodes + 1`.
    pub src_offsets: Vec<u32>,
    /// Fanin nodes of every node, concatenated in pin order (for a DFF: the
    /// single D driver).
    pub src_edges: Vec<NodeId>,
    /// CSR offsets into [`fan_edges`](Self::fan_edges); length `nodes + 1`.
    pub fan_offsets: Vec<u32>,
    /// Combinational consumers of every node, concatenated; sorted and
    /// deduplicated per node.
    pub fan_edges: Vec<NodeId>,
    pub pi_nodes: Vec<NodeId>,
    pub dff_nodes: Vec<NodeId>,
    /// Primary-output taps (node ids, tap order preserved).
    pub po_taps: Vec<NodeId>,
    pub lut_pool: Vec<Lut3>,
    pub descriptors: Vec<Descriptor>,
    /// Fault ids grouped by site node (see [`Node::locals`]).
    pub locals: Vec<u32>,
    /// Bytes of LUT storage (memory model).
    pub lut_bytes: usize,
    /// Every evaluation node's gate-by-gate plan, for the packed cell
    /// kernel of the hot-fault machine (empty until
    /// [`Network::ensure_plans`]).
    pub plans: Plans,
}

/// The evaluation plans of a network's nodes, flattened: node `n`'s steps
/// are `steps[at[n].0..at[n + 1].0]` and its operands
/// `operands[at[n].1..at[n + 1].1]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plans {
    steps: Vec<PlanStep>,
    operands: Vec<u16>,
    at: Vec<(u32, u32)>,
    /// The plan step, pin and stuck value of every functional
    /// (faulty-LUT) fault, by fault id (macro networks only).
    lut_sites: Vec<(u16, u16, bool)>,
}

impl Plans {
    /// Appends one node's plan (nodes must be pushed in id order).
    fn push(&mut self, steps: &[PlanStep], operands: impl IntoIterator<Item = u16>) {
        if self.at.is_empty() {
            self.at.push((0, 0));
        }
        self.steps.extend_from_slice(steps);
        self.operands.extend(operands);
        self.at
            .push((self.steps.len() as u32, self.operands.len() as u32));
    }

    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Node `n`'s plan over its `support` fanin.
    #[inline]
    pub fn of(&self, n: NodeId, support: usize) -> CellPlan<'_> {
        let (s0, o0) = self.at[n as usize];
        let (s1, o1) = self.at[n as usize + 1];
        CellPlan {
            support,
            steps: &self.steps[s0 as usize..s1 as usize],
            operands: &self.operands[o0 as usize..o1 as usize],
        }
    }

    /// The plan injection of functional fault `fid` on `lanes`.
    pub fn lut_site(&self, fid: u32, lanes: u64) -> PlanFault {
        let (step, pin, value) = self.lut_sites[fid as usize];
        PlanFault {
            word: 0,
            step,
            pin,
            value,
            lanes,
        }
    }

    pub fn memory_bytes(&self) -> usize {
        self.steps.len() * std::mem::size_of::<PlanStep>()
            + self.operands.len() * std::mem::size_of::<u16>()
            + self.at.len() * std::mem::size_of::<(u32, u32)>()
            + self.lut_sites.len() * std::mem::size_of::<(u16, u16, bool)>()
    }
}

impl Network {
    /// Fault ids local to `node`.
    #[inline]
    pub fn locals_of(&self, node: NodeId) -> &[u32] {
        let r = &self.nodes[node as usize].locals;
        &self.locals[r.start as usize..r.end as usize]
    }

    /// Fanin nodes of `node`, in pin order.
    #[inline]
    pub fn sources_of(&self, node: NodeId) -> &[NodeId] {
        let (a, b) = self.src_range(node);
        &self.src_edges[a..b]
    }

    /// Combinational consumers of `node`.
    #[inline]
    pub fn fanout_of(&self, node: NodeId) -> &[NodeId] {
        let i = node as usize;
        &self.fan_edges[self.fan_offsets[i] as usize..self.fan_offsets[i + 1] as usize]
    }

    /// Index range of `node`'s fanin within [`src_edges`](Self::src_edges).
    #[inline]
    pub fn src_range(&self, node: NodeId) -> (usize, usize) {
        let i = node as usize;
        (
            self.src_offsets[i] as usize,
            self.src_offsets[i + 1] as usize,
        )
    }

    #[inline]
    pub fn lut(&self, idx: u32) -> &Lut3 {
        &self.lut_pool[idx as usize]
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Builds the gate network's one-step plans (each evaluation node is
    /// its gate over its own fanin) unless the plans exist already, as
    /// they do for macro networks.
    pub fn ensure_plans(&mut self) {
        if !self.plans.is_empty() {
            return;
        }
        let mut plans = Plans::default();
        for n in 0..self.nodes.len() as NodeId {
            match self.nodes[n as usize].eval {
                NodeEval::Direct(f) => {
                    let arity = self.sources_of(n).len();
                    let step = PlanStep {
                        gate: GateId::from_index(n as usize),
                        f,
                        arity: arity as u16,
                    };
                    plans.push(&[step], 0..arity as u16);
                }
                _ => plans.push(&[], []),
            }
        }
        self.plans = plans;
    }

    /// Bytes of compiled-model storage: node records, CSR adjacency,
    /// locals grouping, and the LUT pool.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + (self.src_offsets.len() + self.fan_offsets.len()) * std::mem::size_of::<u32>()
            + (self.src_edges.len() + self.fan_edges.len()) * std::mem::size_of::<NodeId>()
            + self.locals.len() * std::mem::size_of::<u32>()
            + self.lut_bytes
    }

    /// Per-node level table (scheduler construction).
    pub fn levels(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes.iter().map(|n| n.level)
    }

    /// The same network with every fault removed — what the builders
    /// return for an empty fault list, since node numbering never depends
    /// on the faults. The good LUTs are interned before any faulty one, so
    /// they are a prefix of the pool.
    pub fn fault_free(&self) -> Network {
        let good_luts = self
            .nodes
            .iter()
            .filter_map(|n| match n.eval {
                NodeEval::Lut(idx) => Some(idx as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut net = Network {
            nodes: self.nodes.clone(),
            src_offsets: self.src_offsets.clone(),
            src_edges: self.src_edges.clone(),
            fan_offsets: self.fan_offsets.clone(),
            fan_edges: self.fan_edges.clone(),
            pi_nodes: self.pi_nodes.clone(),
            dff_nodes: self.dff_nodes.clone(),
            po_taps: self.po_taps.clone(),
            lut_pool: self.lut_pool[..good_luts].to_vec(),
            descriptors: Vec::new(),
            locals: Vec::new(),
            lut_bytes: 0,
            plans: Plans::default(),
        };
        attach_resolved(&mut net, &[]);
        net
    }
}

/// Flattens per-node adjacency vectors into a CSR (offsets, edges) pair.
/// When `sort` is set, each node's edge list is sorted and deduplicated.
fn flatten_adjacency(per_node: Vec<Vec<NodeId>>, sort: bool) -> (Vec<u32>, Vec<NodeId>) {
    let mut offsets = Vec::with_capacity(per_node.len() + 1);
    let mut edges = Vec::with_capacity(per_node.iter().map(Vec::len).sum());
    offsets.push(0);
    for mut list in per_node {
        if sort {
            list.sort_unstable();
            list.dedup();
        }
        edges.extend_from_slice(&list);
        offsets.push(edges.len() as u32);
    }
    (offsets, edges)
}

/// Compiles a gate-level network (no macros): one node per circuit node.
pub(crate) fn build_gate_network(circuit: &Circuit, faults: &[FaultSpec]) -> Network {
    let n = circuit.num_nodes();
    let mut nodes: Vec<Node> = Vec::with_capacity(n);
    let mut src_tmp: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    let mut fan_tmp: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for (i, gate) in circuit.gates().iter().enumerate() {
        let (kind, eval, sources) = match gate.kind() {
            GateKind::Input => (NodeKind::Input(0), NodeEval::None, Vec::new()),
            GateKind::Dff => (
                NodeKind::Dff,
                NodeEval::None,
                vec![gate.fanin()[0].index() as NodeId],
            ),
            GateKind::Comb(f) => (
                NodeKind::Eval,
                NodeEval::Direct(f),
                gate.fanin().iter().map(|&g| g.index() as NodeId).collect(),
            ),
        };
        let fanout = gate
            .fanout()
            .iter()
            .filter(|&&g| circuit.gate(g).kind().is_comb())
            .map(|&g| g.index() as NodeId)
            .collect();
        src_tmp.push(sources);
        fan_tmp.push(fanout);
        nodes.push(Node {
            kind,
            eval,
            level: circuit.level(GateId::from_index(i)),
            locals: 0..0,
        });
    }
    for (k, &pi) in circuit.inputs().iter().enumerate() {
        nodes[pi.index()].kind = NodeKind::Input(k as u32);
    }
    let pi_nodes = circuit
        .inputs()
        .iter()
        .map(|&g| g.index() as NodeId)
        .collect();
    let dff_nodes = circuit
        .dffs()
        .iter()
        .map(|&g| g.index() as NodeId)
        .collect();
    let po_taps = circuit
        .outputs()
        .iter()
        .map(|&g| g.index() as NodeId)
        .collect();

    let (src_offsets, src_edges) = flatten_adjacency(src_tmp, false);
    let (fan_offsets, fan_edges) = flatten_adjacency(fan_tmp, true);
    let mut net = Network {
        nodes,
        src_offsets,
        src_edges,
        fan_offsets,
        fan_edges,
        pi_nodes,
        dff_nodes,
        po_taps,
        lut_pool: Vec::new(),
        descriptors: Vec::new(),
        locals: Vec::new(),
        lut_bytes: 0,
        plans: Plans::default(),
    };
    attach_faults(&mut net, faults, |site_gate| site_gate.index() as NodeId);
    net
}

/// Compiles a macro-collapsed network: nodes are PIs, flip-flops, and macro
/// cells; internal stuck-at faults become functional (faulty-LUT) faults.
pub(crate) fn build_macro_network(
    circuit: &Circuit,
    faults: &[FaultSpec],
    max_inputs: usize,
) -> Network {
    let macros = extract_macros(circuit, max_inputs);
    // Node layout: sources keep position by original id compaction:
    // first all PIs and DFFs (in circuit order), then one node per cell.
    let mut node_of_gate: Vec<Option<NodeId>> = vec![None; circuit.num_nodes()];
    let mut nodes: Vec<Node> = Vec::new();
    let mut pi_nodes = Vec::new();
    let mut dff_nodes = Vec::new();
    for (k, &pi) in circuit.inputs().iter().enumerate() {
        node_of_gate[pi.index()] = Some(nodes.len() as NodeId);
        pi_nodes.push(nodes.len() as NodeId);
        nodes.push(Node {
            kind: NodeKind::Input(k as u32),
            eval: NodeEval::None,
            level: 0,
            locals: 0..0,
        });
    }
    for &q in circuit.dffs() {
        node_of_gate[q.index()] = Some(nodes.len() as NodeId);
        dff_nodes.push(nodes.len() as NodeId);
        nodes.push(Node {
            kind: NodeKind::Dff,
            eval: NodeEval::None,
            level: 0,
            locals: 0..0,
        });
    }
    // Cells and direct gates in evaluation order; the LUT pool starts with
    // the good LUTs. The pool is content-deduplicated: identical functions
    // (frequent for the per-fault functional-fault LUTs, e.g. constants)
    // share storage, which is what keeps the paper's "look up table
    // overhead not too high" so macro extraction pays off in memory on
    // large circuits. A direct gate is compiled as in the gate network: a
    // one-step plan over its own fanin, and no LUT.
    let mut lut_pool: Vec<Lut3> = Vec::new();
    let mut lut_interner: HashMap<Lut3, u32> = HashMap::new();
    let mut cell_node: Vec<NodeId> = vec![0; macros.num_cells()];
    // Plans in node order: the sources' empty plans, then one per cell or
    // direct gate.
    let mut plans = Plans::default();
    for _ in 0..nodes.len() {
        plans.push(&[], []);
    }
    for &root in macros.eval_order() {
        let id = nodes.len() as NodeId;
        node_of_gate[root.index()] = Some(id);
        let eval = if let Some(ci) = macros.cell_index_of(root) {
            let cell = &macros.cells()[ci];
            cell_node[ci] = id;
            plans.push(cell.plan().steps, cell.plan().operands.iter().copied());
            NodeEval::Lut(intern_lut(
                &mut lut_pool,
                &mut lut_interner,
                cell.lut().clone(),
            ))
        } else {
            let gate = circuit.gate(root);
            let GateKind::Comb(f) = gate.kind() else {
                unreachable!("direct gates are combinational")
            };
            let arity = gate.fanin().len() as u16;
            plans.push(
                &[PlanStep {
                    gate: root,
                    f,
                    arity,
                }],
                0..arity,
            );
            NodeEval::Direct(f)
        };
        nodes.push(Node {
            kind: NodeKind::Eval,
            eval,
            level: 0, // patched below (needs all evaluation nodes placed)
            locals: 0..0,
        });
    }
    // Resolve sources, fanouts, levels; adjacency collects in temporaries
    // and flattens to CSR once every edge is known. A cell reads its
    // support, a direct gate its fanin in pin order.
    let mut src_tmp: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
    let mut fan_tmp: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
    for &root in macros.eval_order() {
        let me = node_of_gate[root.index()].expect("evaluation node placed");
        let inputs = match macros.cell_of(root) {
            Some(cell) => cell.support(),
            None => circuit.gate(root).fanin(),
        };
        let sources: Vec<NodeId> = inputs
            .iter()
            .map(|&s| node_of_gate[s.index()].expect("support node exists"))
            .collect();
        let level = 1 + sources
            .iter()
            .map(|&s| nodes[s as usize].level)
            .max()
            .unwrap_or(0);
        nodes[me as usize].level = level;
        for &s in &sources {
            fan_tmp[s as usize].push(me);
        }
        src_tmp[me as usize] = sources;
    }
    for (k, &q) in circuit.dffs().iter().enumerate() {
        let d = circuit.gate(q).fanin()[0];
        let driver = node_of_gate[d.index()].expect("D driver is a source or a cell root");
        let me = dff_nodes[k];
        src_tmp[me as usize] = vec![driver];
    }
    let po_taps = circuit
        .outputs()
        .iter()
        .map(|&g| node_of_gate[g.index()].expect("PO taps are sources or roots"))
        .collect();

    let (src_offsets, src_edges) = flatten_adjacency(src_tmp, false);
    let (fan_offsets, fan_edges) = flatten_adjacency(fan_tmp, true);
    let mut net = Network {
        nodes,
        src_offsets,
        src_edges,
        fan_offsets,
        fan_edges,
        pi_nodes,
        dff_nodes,
        po_taps,
        lut_pool,
        descriptors: Vec::new(),
        locals: Vec::new(),
        lut_bytes: 0,
        plans,
    };
    // Fault mapping: sources map directly; combinational sites become
    // functional faults of their cell.
    let mut faulty_lut_cache: HashMap<(usize, MacroFaultSite), Option<u32>> = HashMap::new();
    let mut lut_sites = vec![(0, 0, false); faults.len()];
    let specs: Vec<ResolvedFault> = faults
        .iter()
        .enumerate()
        .map(|(fid, spec)| match spec {
            FaultSpec::Stuck(f) => {
                let g = f.site.gate();
                match circuit.gate(g).kind() {
                    GateKind::Input | GateKind::Dff => ResolvedFault::Plain {
                        site: node_of_gate[g.index()].expect("source node"),
                        effect: plain_effect(f),
                    },
                    GateKind::Comb(_) => {
                        let Some(ci) = macros.cell_index_of(g) else {
                            // A direct gate keeps plain pin and output faults.
                            return ResolvedFault::Plain {
                                site: node_of_gate[g.index()].expect("direct gate node"),
                                effect: plain_effect(f),
                            };
                        };
                        let cell = &macros.cells()[ci];
                        let msite = match f.site {
                            FaultSite::Output { gate } => MacroFaultSite::Output {
                                gate,
                                value: f.stuck_at_one,
                            },
                            FaultSite::Pin { gate, pin } => MacroFaultSite::Pin {
                                gate,
                                pin: pin as usize,
                                value: f.stuck_at_one,
                            },
                        };
                        let plan = cell.plan();
                        let site = plan.fault_at(msite).expect("site belongs to its cell");
                        lut_sites[fid] = (site.step, site.pin, site.value);
                        let entry = faulty_lut_cache.entry((ci, msite)).or_insert_with(|| {
                            let lut = plan.lut(Some(site));
                            if lut.binary_table().equivalent(cell.table()) {
                                None // redundant within the macro
                            } else {
                                Some(intern_lut(&mut net.lut_pool, &mut lut_interner, lut))
                            }
                        });
                        match entry {
                            Some(idx) => ResolvedFault::Plain {
                                site: cell_node[ci],
                                effect: LocalEffect::FaultyLut(*idx),
                            },
                            None => ResolvedFault::Untestable {
                                site: cell_node[ci],
                            },
                        }
                    }
                }
            }
            FaultSpec::Transition(t) => ResolvedFault::Plain {
                site: node_of_gate[t.gate.index()]
                    .expect("transition sites are gate-level; macros unsupported"),
                effect: LocalEffect::TransitionPin {
                    pin: t.pin,
                    edge: t.edge,
                },
            },
        })
        .collect();
    attach_resolved(&mut net, &specs);
    net.plans.lut_sites = lut_sites;
    net
}

/// Interns a LUT by content, returning its pool index.
fn intern_lut(pool: &mut Vec<Lut3>, interner: &mut HashMap<Lut3, u32>, lut: Lut3) -> u32 {
    if let Some(&idx) = interner.get(&lut) {
        return idx;
    }
    let idx = pool.len() as u32;
    interner.insert(lut.clone(), idx);
    pool.push(lut);
    idx
}

/// A fault handed to the network compiler.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultSpec {
    Stuck(StuckAt),
    Transition(TransitionFault),
}

enum ResolvedFault {
    Plain { site: NodeId, effect: LocalEffect },
    Untestable { site: NodeId },
}

fn plain_effect(f: &StuckAt) -> LocalEffect {
    match f.site {
        FaultSite::Output { .. } => LocalEffect::OutputStuck(f.value()),
        FaultSite::Pin { pin, .. } => LocalEffect::PinStuck {
            pin,
            value: f.value(),
        },
    }
}

fn attach_faults(net: &mut Network, faults: &[FaultSpec], node_of: impl Fn(GateId) -> NodeId) {
    let specs: Vec<ResolvedFault> = faults
        .iter()
        .map(|spec| match spec {
            FaultSpec::Stuck(f) => ResolvedFault::Plain {
                site: node_of(f.site.gate()),
                effect: plain_effect(f),
            },
            FaultSpec::Transition(t) => ResolvedFault::Plain {
                site: node_of(t.gate),
                effect: LocalEffect::TransitionPin {
                    pin: t.pin,
                    edge: t.edge,
                },
            },
        })
        .collect();
    attach_resolved(net, &specs);
}

fn attach_resolved(net: &mut Network, specs: &[ResolvedFault]) {
    net.descriptors = specs
        .iter()
        .map(|r| match *r {
            ResolvedFault::Plain { site, effect } => Descriptor {
                site,
                effect,
                detected_at: None,
                untestable: false,
            },
            ResolvedFault::Untestable { site } => Descriptor {
                site,
                effect: LocalEffect::OutputStuck(Logic::X), // never used
                detected_at: None,
                untestable: true,
            },
        })
        .collect();
    // Group local fault ids by site, ascending.
    let mut by_site: Vec<Vec<u32>> = vec![Vec::new(); net.nodes.len()];
    for (fid, d) in net.descriptors.iter().enumerate() {
        if !d.untestable {
            by_site[d.site as usize].push(fid as u32);
        }
    }
    net.locals.clear();
    for (ni, list) in by_site.into_iter().enumerate() {
        let start = net.locals.len() as u32;
        net.locals.extend(list); // already ascending (fid order)
        net.nodes[ni].locals = start..net.locals.len() as u32;
    }
    net.lut_bytes = net.lut_pool.iter().map(Lut3::memory_bytes).sum();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stuck::CsimVariant;

    #[test]
    fn fault_free_network_matches_a_fresh_fault_free_build() {
        let c = cfs_netlist::generate::benchmark("s298g").unwrap();
        let specs: Vec<FaultSpec> = cfs_faults::enumerate_stuck_at(&c)
            .into_iter()
            .map(FaultSpec::Stuck)
            .collect();
        for macros in [false, true] {
            let options = if macros {
                CsimVariant::Mv.options()
            } else {
                CsimVariant::V.options()
            };
            let net = if macros {
                build_macro_network(&c, &specs, options.macro_max_inputs)
            } else {
                build_gate_network(&c, &specs)
            };
            let twin = net.fault_free();
            let fresh = if macros {
                build_macro_network(&c, &[], options.macro_max_inputs)
            } else {
                build_gate_network(&c, &[])
            };
            assert_eq!(twin.memory_bytes(), fresh.memory_bytes(), "macros={macros}");
            assert_eq!(twin.lut_pool, fresh.lut_pool, "macros={macros}");
            assert_eq!(twin.src_edges, fresh.src_edges, "macros={macros}");
            assert_eq!(twin.fan_edges, fresh.fan_edges, "macros={macros}");
            assert!(twin.descriptors.is_empty() && twin.locals.is_empty());
            assert!(twin.nodes.iter().all(|n| n.locals.is_empty()));
        }
    }
}
