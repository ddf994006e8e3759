//! Declarative fault-scenario grids for the fault-injection experiments.
//!
//! This crate sits below `protocol` in the dependency graph, so the cases
//! here are plain data — node index, phase, progress fraction — that the
//! experiment drivers map onto `protocol::FaultPlan`s. Keeping the grids
//! here makes the fault sweeps reproducible from a single seed and lets
//! property tests enumerate the same cases the benchmarks plot.

use dlt::model::TreeNode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kind of injected fault, mirrored as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCaseKind {
    /// Crash-stop in `phase` (at `progress` for Phase III).
    Crash,
    /// Phase III livelock at `progress`; the node stays probe-alive.
    Stall,
    /// Outbound message of `phase` lost once.
    DropMessage,
    /// Outbound message of `phase` late by `delay`.
    DelayMessage,
    /// Outbound message of `phase` garbled once.
    CorruptMessage,
}

/// One fault scenario over an `m`-processor chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultCase {
    /// The afflicted strategic processor (`1..=m`).
    pub node: usize,
    /// The phase (1–4) the fault strikes in.
    pub phase: u8,
    /// Compute progress at the halt (Phase III crash/stall), else 0.
    pub progress: f64,
    /// Added latency (delay faults), else 0.
    pub delay: f64,
    /// What happens.
    pub kind: FaultCaseKind,
}

impl FaultCase {
    /// A crash of `node` in `phase` at `progress`.
    pub fn crash(node: usize, phase: u8, progress: f64) -> Self {
        Self {
            node,
            phase,
            progress,
            delay: 0.0,
            kind: FaultCaseKind::Crash,
        }
    }

    /// A Phase III stall of `node` at `progress`.
    pub fn stall(node: usize, progress: f64) -> Self {
        Self {
            node,
            phase: 3,
            progress,
            delay: 0.0,
            kind: FaultCaseKind::Stall,
        }
    }

    /// Short label for experiment tables, e.g. `crash@P2/ph3/0.40`.
    pub fn label(&self) -> String {
        let kind = match self.kind {
            FaultCaseKind::Crash => "crash",
            FaultCaseKind::Stall => "stall",
            FaultCaseKind::DropMessage => "drop",
            FaultCaseKind::DelayMessage => "delay",
            FaultCaseKind::CorruptMessage => "corrupt",
        };
        format!(
            "{kind}@P{}/ph{}/{:.2}",
            self.node, self.phase, self.progress
        )
    }
}

/// Every crash position: all nodes × all four phases, with Phase III
/// struck at each of `progress_points`. This is the grid behind the
/// "makespan degradation vs crash position" plot.
pub fn crash_position_grid(m: usize, progress_points: &[f64]) -> Vec<FaultCase> {
    let mut cases = Vec::new();
    for node in 1..=m {
        for phase in 1..=4u8 {
            if phase == 3 {
                for &p in progress_points {
                    cases.push(FaultCase::crash(node, 3, p));
                }
            } else {
                cases.push(FaultCase::crash(node, phase, 0.0));
            }
        }
    }
    cases
}

/// Phase III crashes of one node at `steps` evenly spaced progress points
/// (the "recovery overhead vs crash time" axis).
pub fn crash_time_grid(node: usize, steps: usize) -> Vec<FaultCase> {
    assert!(steps >= 2, "a time axis needs at least its endpoints");
    (0..steps)
        .map(|i| FaultCase::crash(node, 3, i as f64 / (steps - 1) as f64))
        .collect()
}

/// A seed-reproducible batch of mixed fault cases (crashes, stalls and
/// message faults) over an `m`-processor chain.
pub fn seeded_cases(seed: u64, m: usize, count: usize) -> Vec<FaultCase> {
    assert!(m >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_CA5E);
    (0..count)
        .map(|_| {
            let node = rng.gen_range(1..=m);
            let phase = rng.gen_range(1..=4) as u8;
            let progress = rng.gen::<f64>();
            match rng.gen_range(0..5usize) {
                0 => FaultCase::crash(node, phase, progress),
                1 => FaultCase::stall(node, progress),
                2 => FaultCase {
                    node,
                    phase,
                    progress: 0.0,
                    delay: 0.0,
                    kind: FaultCaseKind::DropMessage,
                },
                3 => FaultCase {
                    node,
                    phase,
                    progress: 0.0,
                    delay: 0.01 + 0.04 * rng.gen::<f64>(),
                    kind: FaultCaseKind::DelayMessage,
                },
                _ => FaultCase {
                    node,
                    phase,
                    progress: 0.0,
                    delay: 0.0,
                    kind: FaultCaseKind::CorruptMessage,
                },
            }
        })
        .collect()
}

/// Every ordered pair of **distinct-node** crashes: the first case of
/// each inner vec is detected first (same-phase pairs are simultaneous;
/// mixed-phase pairs cascade). `phase_pairs` selects which phase
/// combinations to enumerate — e.g. `(3, 3)` is a crash-during-recovery
/// case, `(4, 4)` a simultaneous billing blackout. Phase III slots are
/// struck at `progress`; other phases at 0.
pub fn crash_pair_grid(m: usize, phase_pairs: &[(u8, u8)], progress: f64) -> Vec<Vec<FaultCase>> {
    let mut plans = Vec::new();
    for a in 1..=m {
        for b in 1..=m {
            if a == b {
                continue;
            }
            for &(pa, pb) in phase_pairs {
                let prog = |ph: u8| if ph == 3 { progress } else { 0.0 };
                plans.push(vec![
                    FaultCase::crash(a, pa, prog(pa)),
                    FaultCase::crash(b, pb, prog(pb)),
                ]);
            }
        }
    }
    plans
}

/// Cascades of `depth` Phase III crashes on nodes `1..=depth` (must fit
/// the chain), every crash at the same `progress`: node 1 dies during the
/// base round, node 2 during the first recovery round, and so on — the
/// recovery-during-recovery axis.
pub fn cascade_grid(m: usize, max_depth: usize, progress_points: &[f64]) -> Vec<Vec<FaultCase>> {
    let mut plans = Vec::new();
    for depth in 2..=max_depth.min(m) {
        for &p in progress_points {
            plans.push(
                (1..=depth)
                    .map(|node| FaultCase::crash(node, 3, p))
                    .collect(),
            );
        }
    }
    plans
}

/// A seed-reproducible batch of **multi-failure** plans: each inner vec
/// holds between 0 and `max_halts.min(m)` crash/stall cases on distinct
/// nodes, plus an independent chance of one message fault — the plain-data
/// mirror of `protocol::FaultPlan::seeded_multi`'s shape, at experiment
/// scale.
pub fn seeded_multi_cases(
    seed: u64,
    m: usize,
    count: usize,
    max_halts: usize,
) -> Vec<Vec<FaultCase>> {
    assert!(m >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_CA5E_CA5C);
    (0..count)
        .map(|_| {
            let halts = rng.gen_range(0..=max_halts.min(m));
            let mut nodes: Vec<usize> = (1..=m).collect();
            let mut plan = Vec::new();
            for _ in 0..halts {
                let node = nodes.remove(rng.gen_range(0..nodes.len()));
                let progress = rng.gen::<f64>();
                if rng.gen_bool(0.8) {
                    plan.push(FaultCase::crash(node, rng.gen_range(1..=4) as u8, progress));
                } else {
                    plan.push(FaultCase::stall(node, progress));
                }
            }
            if rng.gen_bool(0.3) {
                let node = rng.gen_range(1..=m);
                let phase = rng.gen_range(1..=4) as u8;
                plan.push(match rng.gen_range(0..3usize) {
                    0 => FaultCase {
                        node,
                        phase,
                        progress: 0.0,
                        delay: 0.0,
                        kind: FaultCaseKind::DropMessage,
                    },
                    1 => FaultCase {
                        node,
                        phase,
                        progress: 0.0,
                        delay: 0.01 + 0.04 * rng.gen::<f64>(),
                        kind: FaultCaseKind::DelayMessage,
                    },
                    _ => FaultCase {
                        node,
                        phase,
                        progress: 0.0,
                        delay: 0.0,
                        kind: FaultCaseKind::CorruptMessage,
                    },
                });
            }
            plan
        })
        .collect()
}

/// One tree network for the tree-fault experiments: a canonicalized shape
/// plus the true rates of its strategic processors in canonical preorder.
/// The shape's embedded non-root rates equal `true_rates`, so the case can
/// feed `protocol::TreeScenario` directly.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeFaultCase {
    /// Short shape label for experiment tables, e.g. `binary/m6`.
    pub label: String,
    /// The canonicalized tree (root rate, link rates, agent rates).
    pub shape: TreeNode,
    /// Non-root processor rates in canonical preorder (`true_rates[j-1]`
    /// is `P_j`'s).
    pub true_rates: Vec<f64>,
}

impl TreeFaultCase {
    /// Number of strategic processors.
    pub fn num_agents(&self) -> usize {
        self.shape.size() - 1
    }
}

pub(crate) fn finish(label: String, shape: TreeNode) -> TreeFaultCase {
    let shape = dlt::tree::canonicalize(&shape);
    let true_rates = dlt::tree::agent_rates(&shape);
    TreeFaultCase {
        label,
        shape,
        true_rates,
    }
}

/// The tree-shape population the E24 sweep and the tree-fault proptests
/// share: degenerate paths (which must reduce byte-for-byte to the chain
/// fault path), stars, a balanced binary tree, and seeded random trees.
/// All rates are drawn from `seed`, so the grid is reproducible.
pub fn tree_shape_grid(seed: u64) -> Vec<TreeFaultCase> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EE_FA17);
    let mut w = || rng.gen_range(0.5..=4.0);
    let mut cases = Vec::new();

    // Degenerate paths: the differential spine of the harness.
    for m in 2..=4usize {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7EE_FA17 ^ (m as u64) << 8);
        let rates: Vec<f64> = (0..=m).map(|_| rng.gen_range(0.5..=4.0)).collect();
        let links: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..=0.8)).collect();
        let net = dlt::model::LinearNetwork::from_rates(&rates, &links);
        cases.push(finish(format!("path/m{m}"), TreeNode::from_chain(&net)));
    }

    // Stars: every agent one hop from the root, ascending links.
    for m in [3usize, 5] {
        let children = (0..m)
            .map(|i| (0.1 + 0.1 * i as f64, TreeNode::leaf(w())))
            .collect();
        cases.push(finish(
            format!("star/m{m}"),
            TreeNode::internal(w(), children),
        ));
    }

    // A balanced binary tree: two internal routers, four leaves.
    let binary = TreeNode::internal(
        w(),
        vec![
            (
                0.15,
                TreeNode::internal(
                    w(),
                    vec![(0.05, TreeNode::leaf(w())), (0.25, TreeNode::leaf(w()))],
                ),
            ),
            (
                0.30,
                TreeNode::internal(
                    w(),
                    vec![(0.10, TreeNode::leaf(w())), (0.20, TreeNode::leaf(w()))],
                ),
            ),
        ],
    );
    cases.push(finish("binary/m6".to_string(), binary));

    // Seeded random trees of mixed fanout.
    let config = crate::generators::ChainConfig {
        processors: 6,
        ..Default::default()
    };
    for k in 0..3u64 {
        let t = crate::generators::tree(&config, 3, seed.wrapping_add(0xA11CE + k));
        cases.push(finish(format!("random/s{k}"), t));
    }
    cases
}

/// Label a multi-fault plan for experiment tables, e.g.
/// `crash@P1/ph3/0.50 + crash@P2/ph3/0.50` (`healthy` for the empty
/// plan).
pub fn multi_label(plan: &[FaultCase]) -> String {
    if plan.is_empty() {
        "healthy".to_string()
    } else {
        plan.iter()
            .map(FaultCase::label)
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_grid_covers_every_node_and_phase() {
        let grid = crash_position_grid(4, &[0.0, 0.5, 1.0]);
        // 4 nodes × (3 non-compute phases + 3 progress points) = 24.
        assert_eq!(grid.len(), 4 * (3 + 3));
        for node in 1..=4 {
            for phase in 1..=4u8 {
                assert!(grid.iter().any(|c| c.node == node && c.phase == phase));
            }
        }
    }

    #[test]
    fn time_grid_spans_unit_interval() {
        let grid = crash_time_grid(2, 5);
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0].progress, 0.0);
        assert_eq!(grid[4].progress, 1.0);
        assert!(grid.iter().all(|c| c.phase == 3 && c.node == 2));
    }

    #[test]
    fn seeded_cases_are_deterministic_and_in_range() {
        let a = seeded_cases(9, 5, 40);
        assert_eq!(a, seeded_cases(9, 5, 40));
        for c in &a {
            assert!((1..=5).contains(&c.node));
            assert!((1..=4).contains(&c.phase));
            assert!((0.0..=1.0).contains(&c.progress));
            assert!(c.delay >= 0.0);
        }
        let kinds: std::collections::HashSet<_> = a.iter().map(|c| c.kind).collect();
        assert!(kinds.len() >= 3, "batch should mix fault kinds: {kinds:?}");
    }

    #[test]
    fn labels_are_distinct_across_the_grid() {
        let grid = crash_position_grid(3, &[0.25, 0.75]);
        let labels: std::collections::HashSet<_> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), grid.len());
    }

    #[test]
    fn pair_grid_enumerates_ordered_distinct_pairs() {
        let pairs = crash_pair_grid(4, &[(3, 3), (4, 4), (3, 4)], 0.5);
        // 4·3 ordered node pairs × 3 phase pairs.
        assert_eq!(pairs.len(), 4 * 3 * 3);
        for plan in &pairs {
            assert_eq!(plan.len(), 2);
            assert_ne!(plan[0].node, plan[1].node);
            for c in plan {
                assert_eq!(c.kind, FaultCaseKind::Crash);
                assert_eq!(c.progress, if c.phase == 3 { 0.5 } else { 0.0 });
            }
        }
    }

    #[test]
    fn cascade_grid_stacks_compute_crashes_from_the_front() {
        let cascades = cascade_grid(5, 3, &[0.25, 0.75]);
        // Depths 2 and 3, two progress points each.
        assert_eq!(cascades.len(), 2 * 2);
        for plan in &cascades {
            for (i, c) in plan.iter().enumerate() {
                assert_eq!(c.node, i + 1);
                assert_eq!(c.phase, 3);
            }
        }
        // Depth is clamped to the chain length.
        assert_eq!(cascade_grid(2, 9, &[0.5]).len(), 1);
    }

    #[test]
    fn seeded_multi_cases_are_deterministic_with_distinct_halt_nodes() {
        let plans = seeded_multi_cases(7, 5, 60, 3);
        assert_eq!(plans, seeded_multi_cases(7, 5, 60, 3));
        let mut multi_seen = false;
        for plan in &plans {
            let halts: Vec<_> = plan
                .iter()
                .filter(|c| matches!(c.kind, FaultCaseKind::Crash | FaultCaseKind::Stall))
                .map(|c| c.node)
                .collect();
            let distinct: std::collections::HashSet<_> = halts.iter().collect();
            assert_eq!(
                distinct.len(),
                halts.len(),
                "halting nodes must be distinct"
            );
            assert!(halts.len() <= 3);
            multi_seen |= halts.len() >= 2;
        }
        assert!(
            multi_seen,
            "batch should exercise genuine multi-failure plans"
        );
    }

    #[test]
    fn tree_grid_is_deterministic_and_canonical() {
        let grid = tree_shape_grid(0xE24);
        assert_eq!(grid, tree_shape_grid(0xE24));
        let labels: std::collections::HashSet<_> = grid.iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels.len(), grid.len(), "labels must be distinct");
        for case in &grid {
            assert_eq!(case.true_rates.len(), case.num_agents());
            assert!(case.true_rates.iter().all(|&r| r > 0.0));
            // Canonicalization is idempotent on the stored shape.
            assert_eq!(dlt::tree::canonicalize(&case.shape), case.shape);
        }
    }

    #[test]
    fn tree_grid_mixes_paths_and_branching_shapes() {
        fn is_path(node: &TreeNode) -> bool {
            node.children.len() <= 1 && node.children.iter().all(|(_, c)| is_path(c))
        }
        let grid = tree_shape_grid(1);
        assert!(grid.iter().any(|c| is_path(&c.shape)));
        assert!(grid.iter().any(|c| !is_path(&c.shape)));
        assert!(grid.iter().any(|c| c.label.starts_with("star/")));
        assert!(grid.iter().any(|c| c.label.starts_with("binary/")));
        assert!(grid.iter().any(|c| c.label.starts_with("random/")));
    }

    #[test]
    fn multi_label_joins_case_labels() {
        assert_eq!(multi_label(&[]), "healthy");
        let plan = vec![FaultCase::crash(1, 3, 0.5), FaultCase::stall(2, 0.25)];
        assert_eq!(multi_label(&plan), "crash@P1/ph3/0.50 + stall@P2/ph3/0.25");
    }
}
