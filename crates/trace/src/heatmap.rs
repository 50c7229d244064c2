//! Per-node activity aggregation (the data behind `fsim heatmap`).
//!
//! Divergence/convergence/drop totals per node identify the *hot cones*:
//! the regions whose fault lists churn. Totals come from the recorders' exact per-node counters, so
//! they are unaffected by ring overflow.

use crate::recorder::{NodeActivity, TraceRecorder};

/// Summed per-node activity across one or more recorders.
#[derive(Debug, Clone, Default)]
pub struct Heatmap {
    rows: Vec<NodeActivity>,
}

impl Heatmap {
    /// An empty heatmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one recorder's per-node totals in. Shards index the same
    /// compiled network, so same-index nodes merge.
    pub fn add_recorder(&mut self, rec: &TraceRecorder) {
        self.add_activity(rec.node_activity());
    }

    /// Folds a raw per-node activity slice in.
    pub fn add_activity(&mut self, acts: &[NodeActivity]) {
        if acts.len() > self.rows.len() {
            self.rows.resize(acts.len(), NodeActivity::default());
        }
        for (row, act) in self.rows.iter_mut().zip(acts) {
            row.merge(act);
        }
    }

    /// Per-node totals indexed by node id (trailing quiet nodes may be
    /// absent).
    pub fn rows(&self) -> &[NodeActivity] {
        &self.rows
    }

    /// Active nodes ranked by total activity (descending), ties broken by
    /// node id (ascending) — a deterministic hot-spot order.
    pub fn ranked(&self) -> Vec<(u32, NodeActivity)> {
        let mut out: Vec<(u32, NodeActivity)> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, a)| a.total() > 0)
            .map(|(n, a)| (n as u32, *a))
            .collect();
        out.sort_by_key(|&(n, a)| (std::cmp::Reverse(a.total()), n));
        out
    }

    /// Sum of all activity events.
    pub fn total(&self) -> u64 {
        self.rows.iter().map(NodeActivity::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_rank() {
        let a = vec![
            NodeActivity {
                divergences: 2,
                convergences: 1,
                drops: 0,
            },
            NodeActivity::default(),
            NodeActivity {
                divergences: 1,
                convergences: 0,
                drops: 0,
            },
        ];
        let b = vec![
            NodeActivity {
                divergences: 0,
                convergences: 0,
                drops: 3,
            },
            NodeActivity {
                divergences: 5,
                convergences: 5,
                drops: 0,
            },
        ];
        let mut h = Heatmap::new();
        h.add_activity(&a);
        h.add_activity(&b);
        assert_eq!(h.total(), 17);
        let ranked = h.ranked();
        assert_eq!(ranked[0].0, 1, "hottest node first");
        assert_eq!(ranked[0].1.total(), 10);
        assert_eq!(ranked[1].0, 0);
        assert_eq!(ranked[1].1.drops, 3);
        assert_eq!(ranked[2].0, 2);
    }
}
