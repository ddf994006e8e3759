//! Fault-tolerant **tree** protocol execution: run a [`TreeScenario`]
//! under an injected [`FaultPlan`] and recover by **subtree
//! re-attachment** ([`dlt::tree::splice_node`]).
//!
//! The recovery engine itself — detection, the recovery rounds, pro-rata
//! settlement, renumbering — lives in [`crate::ft_runner`] and is shared
//! with chains. This module holds only the tree's implementation of that
//! engine's `Topology` trait and the entry point:
//!
//! * **Splice.** On a tree the failed node may route several subtrees, so
//!   every child subtree of the dead node is re-attached to the dead
//!   node's parent. Each re-attached subtree's incoming link fuses with
//!   the dead node's (`z(parent→child) = z(parent→dead) + z(dead→child)` —
//!   the data travels both hops, store-and-forward), and the parent's
//!   service order is re-canonicalized because the fused links can land
//!   anywhere in the ascending-link sequence. [`FtRunReport::splice_map`]
//!   records where every survivor ended up.
//! * **Re-solve.** Residual load is re-allocated over the survivor tree by
//!   [`dlt::tree::solve`].
//! * **Silent bills.** The root re-posts each Phase IV casualty's honest
//!   bill from its own [`TreeMechanism`] re-settlement.
//!
//! The tree protocol run keeps no transcript and is not event-simulated,
//! so a tree report carries an empty transcript and `events: 0`, and its
//! timeline shows the base round as one root span.
//!
//! ### Degenerate paths delegate to the chain engine
//! A tree in which every node has at most one child *is* a chain, so this
//! entry point detects the shape after canonicalization and routes it
//! through [`crate::ft_runner::run_with_faults`] on the faithfully
//! converted [`Scenario`]. The tree solver agrees with the chain solver
//! only to rounding (see [`dlt::tree`]), so this delegation is what makes
//! a path's report **byte-identical** to the frozen linear fault path. The
//! `tree_fault` differential suite pins the routing and the scenario
//! conversion against drift, over the full E22 population.

use crate::crypto::NodeId;
use crate::deviation::Deviation;
use crate::faults::FaultPlan;
use crate::ft_runner::{FtError, FtRunReport, Renumbering, Topology};
use crate::runner::{RunReport, Scenario, ScenarioError};
use crate::transcript::Transcript;
use crate::tree_runner::{flatten, run_tree, TreeScenario};
use dlt::model::TreeNode;
use dlt::tree;
use mechanism::dls_tree::TreeMechanism;
use mechanism::Conduct;

/// A fault-tolerant tree run's report: the chain engine's report, indexed
/// by preorder over the canonicalized shape.
pub type FtTreeRunReport = FtRunReport;

/// If the canonicalized shape is a degenerate path — every node has at
/// most one child — convert the scenario faithfully to the chain
/// [`Scenario`] it is: same preorder agent indexing, same fine schedule,
/// blocks and seed, no solution bonus (the tree protocol has none).
/// Returns `None` for a branching tree.
pub fn as_chain_scenario(scenario: &TreeScenario) -> Option<Scenario> {
    let mut link_rates = Vec::new();
    let mut node = &scenario.shape;
    while let Some((link, child)) = node.children.first() {
        if node.children.len() > 1 {
            return None;
        }
        link_rates.push(link.z);
        node = child;
    }
    Some(Scenario {
        root_rate: scenario.shape.processor.w,
        true_rates: scenario.true_rates.clone(),
        link_rates,
        deviations: scenario.deviations.clone(),
        fine: scenario.fine,
        blocks: scenario.blocks,
        seed: scenario.seed,
        solution_bonus: 0.0,
        solution_found: false,
    })
}

/// Execute the tree scenario under `plan`, recovering from the injected
/// faults. Re-exported at the crate root as `run_tree_with_faults`.
pub fn run_with_faults(
    scenario: &TreeScenario,
    plan: &FaultPlan,
) -> Result<FtTreeRunReport, FtError> {
    let m = scenario.num_agents();
    let timeout = plan.detection_timeout;
    let _ft_span = obs::span!("protocol.ft_tree.run", "m" => m, "timeout" => timeout);
    match as_chain_scenario(scenario) {
        // A degenerate path IS a chain: inherit the frozen chain fault
        // semantics wholesale — byte-identical by construction.
        Some(chain) => crate::ft_runner::run_with_faults(&chain, plan),
        None => crate::ft_runner::run(scenario, plan),
    }
}

impl Topology for TreeScenario {
    type Net = TreeNode;
    const TRANSCRIPT: bool = false;

    fn validate(&self) -> Result<(), ScenarioError> {
        TreeScenario::validate(self)
    }

    fn num_agents(&self) -> usize {
        self.true_rates.len()
    }

    fn root_rate(&self) -> f64 {
        self.shape.processor.w
    }

    fn base_run(&self) -> Result<RunReport, FtError> {
        let run = run_tree(self);
        // The tree run does not time individual nodes: its Phase III round
        // is one span at the root.
        let mut timeline = obs::PhaseTimeline::new(run.assigned.len());
        timeline.push(0, 3, obs::TimelineKind::Work, (0.0, run.makespan), 1.0);
        timeline.makespan = run.makespan;
        Ok(RunReport {
            bids: run.bids,
            actual_rates: run.actual_rates,
            assigned: run.assigned,
            retained: run.retained,
            received: run.received,
            arbitrations: run.arbitrations,
            audited: Vec::new(),
            ledger: run.ledger,
            net_utilities: run.net_utilities,
            makespan: run.makespan,
            gantt: sim::GanttChart::default(),
            transcript: Transcript::new(),
            events: 0,
            timeline,
        })
    }

    fn parent(&self, k: NodeId) -> NodeId {
        flatten(&self.shape).parent[k].expect("strategic nodes have parents")
    }

    fn first_child(&self, k: NodeId) -> Option<NodeId> {
        flatten(&self.shape).children[k].first().copied()
    }

    fn without(&self, k: NodeId) -> (Self, Renumbering) {
        // Splice the tree of *true* rates; bids re-derive from the
        // surviving nodes' deviations inside the survivor run.
        let true_tree = tree::with_agent_rates(&self.shape, &self.true_rates);
        let spliced = tree::splice_node(&true_tree, k);
        let mut deviations = vec![Deviation::None; self.num_agents() - 1];
        for (j, new) in spliced.map.iter().enumerate().skip(1) {
            if let Some(new) = new {
                deviations[new - 1] = self.deviations[j - 1];
            }
        }
        let survivors = TreeScenario {
            true_rates: tree::agent_rates(&spliced.tree),
            shape: spliced.tree,
            deviations,
            fine: self.fine,
            blocks: self.blocks,
            seed: self.seed,
        };
        (survivors, Renumbering::table(spliced.map))
    }

    fn bid_network(&self, bids: &[f64]) -> TreeNode {
        // Bids do not move links, so the bid tree keeps the shape's
        // canonical order.
        tree::with_agent_rates(&self.shape, bids)
    }

    fn splice(net: &TreeNode, si: usize) -> (TreeNode, Renumbering) {
        let spliced = tree::splice_node(net, si);
        (spliced.tree, Renumbering::table(spliced.map))
    }

    fn allocation(net: &TreeNode) -> (f64, Vec<f64>) {
        if net.size() == 1 {
            (net.processor.w, vec![1.0])
        } else {
            let sol = tree::solve(net);
            (sol.equivalent, sol.flatten())
        }
    }

    fn silent_bills(&self, base: &RunReport, silent: &[NodeId]) -> Vec<f64> {
        // The same settlement the base run used — deterministic, so an
        // honest casualty's re-posted bill is bit-identical to the one it
        // never sent.
        let conducts: Vec<Conduct> = (1..=self.num_agents())
            .map(|j| Conduct {
                bid: base.bids[j - 1],
                actual_rate: base.actual_rates[j - 1],
                actual_load: Some(base.retained[j]),
            })
            .collect();
        let outcome = TreeMechanism::new(self.shape.clone()).settle(&conducts);
        silent.iter().map(|&k| outcome.payment(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultError, FaultKind};

    /// The 7-node two-level tree of the `tree_runner` tests.
    fn shape() -> TreeNode {
        TreeNode::internal(
            1.0,
            vec![
                (
                    0.15,
                    TreeNode::internal(
                        1.0,
                        vec![(0.05, TreeNode::leaf(1.0)), (0.25, TreeNode::leaf(1.0))],
                    ),
                ),
                (
                    0.30,
                    TreeNode::internal(
                        1.0,
                        vec![(0.10, TreeNode::leaf(1.0)), (0.20, TreeNode::leaf(1.0))],
                    ),
                ),
            ],
        )
    }

    fn scenario() -> TreeScenario {
        TreeScenario::honest(shape(), vec![1.4, 2.2, 0.7, 1.9, 1.1, 3.0])
    }

    #[test]
    fn empty_plan_matches_plain_tree_run() {
        let s = scenario();
        let plain = run_tree(&s);
        let ft = run_with_faults(&s, &FaultPlan::none()).unwrap();
        assert_eq!(ft.makespan, plain.makespan);
        assert_eq!(ft.net_utilities, plain.net_utilities);
        assert_eq!(ft.completed, plain.retained);
        assert!(ft.crashed.is_empty() && ft.stalled.is_empty());
        assert_eq!(ft.overhead(), 0.0);
    }

    #[test]
    fn any_single_crash_recovers_on_the_branching_tree() {
        let s = scenario();
        let m = s.num_agents();
        for k in 1..=m {
            for phase in 1..=4u8 {
                for progress in [0.0, 0.37, 1.0] {
                    let plan = FaultPlan::crash(k, phase, progress);
                    let ft = run_with_faults(&s, &plan).unwrap();
                    assert_eq!(ft.crashed, vec![k]);
                    assert!(
                        ft.load_conserved(1e-9),
                        "k={k} phase={phase} p={progress}: completed {:?}",
                        ft.completed
                    );
                    assert!(ft.makespan >= ft.base_makespan, "recovery cannot be free");
                    for j in 1..=m {
                        assert!(
                            ft.fines_paid(j) <= 1e-12,
                            "honest P{j} fined after crash of P{k} in phase {phase}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn internal_node_crash_reattaches_its_subtrees() {
        // Node 1 routes the subtree {2, 3}; cutting it pre-distribution
        // must keep its children productive, not orphan them.
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 1, 0.0)).unwrap();
        assert!(ft.load_conserved(1e-9));
        assert_eq!(ft.completed[1], 0.0);
        assert!(
            ft.completed[2] > 0.0 && ft.completed[3] > 0.0,
            "re-attached subtree nodes still work: {:?}",
            ft.completed
        );
        assert_eq!(ft.splice_map[1], None);
        // The survivor allocation matches solving the spliced true-rate
        // tree directly.
        let true_tree = tree::with_agent_rates(&s.shape, &s.true_rates);
        let spliced = tree::splice_node(&true_tree, 1);
        let sol = tree::solve(&spliced.tree);
        let shares = sol.flatten();
        for (old, new) in spliced.map.iter().enumerate() {
            if let Some(new) = new {
                assert!(
                    (ft.completed[old] - shares[*new]).abs() < 1e-12,
                    "node {old}: {} vs {}",
                    ft.completed[old],
                    shares[*new]
                );
            }
        }
    }

    #[test]
    fn phase3_crash_pays_pro_rata_and_keeps_survivors_whole() {
        let s = scenario();
        let plain = run_tree(&s);
        let ft = run_with_faults(&s, &FaultPlan::crash(4, 3, 0.4)).unwrap();
        assert!(
            ft.utility(4).abs() < 1e-9,
            "pro-rata utility {}",
            ft.utility(4)
        );
        assert!((ft.completed[4] - 0.4 * plain.retained[4]).abs() < 1e-12);
        for j in (1..=6).filter(|&j| j != 4) {
            assert!(
                (ft.utility(j) - plain.utility(j)).abs() < 1e-9,
                "P{j}: {} vs {}",
                ft.utility(j),
                plain.utility(j)
            );
        }
        assert!((ft.recovered_load - 0.6 * plain.retained[4]).abs() < 1e-12);
        let spread: f64 = ft.recovery_assigned.iter().sum();
        assert!((spread - ft.recovered_load).abs() < 1e-12);
        assert_eq!(ft.recovery_assigned[4], 0.0);
    }

    #[test]
    fn phase4_crash_settles_from_the_roots_recomputation() {
        let s = scenario();
        let plain = run_tree(&s);
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 4, 0.0)).unwrap();
        assert!((ft.utility(2) - plain.utility(2)).abs() < 1e-9);
        assert!((ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12);
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn stall_triggers_recovery_without_conviction() {
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::stall(1, 0.25)).unwrap();
        assert_eq!(ft.stalled, vec![1]);
        assert!(ft.crashed.is_empty());
        assert!(ft.load_conserved(1e-9));
        let timeout_arb = ft
            .arbitrations
            .iter()
            .find(|a| a.complaint == "unresponsive")
            .unwrap();
        assert!(!timeout_arb.substantiated);
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a stall");
        }
    }

    #[test]
    fn cascading_crashes_compose_subtree_splices() {
        let s = scenario();
        let plan = FaultPlan::crash(1, 1, 0.0).with_event(
            4,
            FaultKind::Crash {
                phase: 3,
                progress: 0.5,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 4]);
        assert!(ft.load_conserved(1e-9));
        assert!(ft.recovered_load > 0.0);
        assert!(
            ft.utility(4).abs() < 1e-9,
            "inner casualty settled pro rata"
        );
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12);
        }
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 2);
    }

    #[test]
    fn all_strategic_nodes_crashing_leaves_the_root_alone() {
        let s = scenario();
        let mut plan = FaultPlan::crash(1, 3, 0.5);
        for k in 2..=6 {
            plan = plan.with_event(
                k,
                FaultKind::Crash {
                    phase: 3,
                    progress: 0.5,
                },
            );
        }
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 2, 3, 4, 5, 6]);
        assert!(
            ft.load_conserved(1e-9),
            "the root absorbs the final residual: {:?}",
            ft.completed
        );
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12);
            assert!(ft.utility(j).abs() < 1e-9, "P{j} settled pro rata");
        }
    }

    #[test]
    fn simultaneous_phase4_crashes_share_one_timeout() {
        let s = scenario();
        let plain = run_tree(&s);
        let plan = FaultPlan::crash(2, 4, 0.0).with_event(
            5,
            FaultKind::Crash {
                phase: 4,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![2, 5]);
        assert!(
            (ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12,
            "billing timers fire concurrently: one timeout, not two"
        );
        assert!((ft.utility(2) - plain.utility(2)).abs() < 1e-9);
        assert!((ft.utility(5) - plain.utility(5)).abs() < 1e-9);
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn message_faults_add_overhead_but_never_fines() {
        let s = scenario();
        let plain = run_tree(&s);
        let plan = FaultPlan::none()
            .with_event(1, FaultKind::DropMessage { phase: 1 })
            .with_event(2, FaultKind::CorruptMessage { phase: 2 })
            .with_event(
                4,
                FaultKind::DelayMessage {
                    phase: 4,
                    delay: 0.02,
                },
            );
        let ft = run_with_faults(&s, &plan).unwrap();
        // Node 2 is a leaf: it sends nothing in Phase II, so only the
        // drop and the delay cost anything.
        let expected = plain.makespan + FaultPlan::DEFAULT_TIMEOUT + 0.02;
        assert!((ft.makespan - expected).abs() < 1e-12);
        assert_eq!(ft.detected.len(), 1, "only the Phase I drop times out");
        for j in 1..=6 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a network fault");
            assert!((ft.utility(j) - plain.utility(j)).abs() < 1e-9);
        }
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn deviant_that_crashes_keeps_its_earlier_fines() {
        let s = scenario().with_deviation(1, Deviation::WrongEquivalent { factor: 0.6 });
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 3, 0.5)).unwrap();
        assert!(
            ft.fines_paid(1) > 0.0,
            "the Phase II conviction survives the crash"
        );
        assert!(ft.load_conserved(1e-9));
        assert!(
            ft.utility(1) < -1e-9,
            "fined deviant nets negative even with pro-rata pay"
        );
    }

    #[test]
    fn tree_reports_are_deterministic() {
        let s = scenario();
        for seed in 0..10u64 {
            let plan = FaultPlan::seeded_multi(seed, s.num_agents(), 3);
            let a = run_with_faults(&s, &plan).unwrap();
            let b = run_with_faults(&s, &plan).unwrap();
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }

    #[test]
    fn degenerate_path_delegates_to_the_chain_engine_byte_for_byte() {
        let net = dlt::model::LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let path = TreeNode::from_chain(&net);
        let s = TreeScenario::honest(path, vec![2.0, 0.5, 4.0]);
        let chain = as_chain_scenario(&s).expect("a path is a chain");
        for k in 1..=3 {
            for phase in 1..=4u8 {
                let plan = FaultPlan::crash(k, phase, 0.5);
                let ft = run_with_faults(&s, &plan).unwrap();
                let lin = crate::ft_runner::run_with_faults(&chain, &plan).unwrap();
                assert_eq!(format!("{ft:?}"), format!("{lin:?}"), "k={k} phase={phase}");
            }
        }
    }

    #[test]
    fn branching_trees_are_not_chains() {
        assert!(as_chain_scenario(&scenario()).is_none());
    }

    #[test]
    fn rejects_bad_plans_and_scenarios() {
        let s = scenario();
        assert!(matches!(
            run_with_faults(&s, &FaultPlan::crash(9, 1, 0.0)),
            Err(FtError::Fault(FaultError::NodeOutOfRange { .. }))
        ));
        let mut bad = scenario();
        bad.true_rates[0] = -1.0;
        assert!(matches!(
            run_with_faults(&bad, &FaultPlan::none()),
            Err(FtError::Scenario(ScenarioError::BadRate { .. }))
        ));
        let mut short = scenario();
        short.true_rates.pop();
        short.deviations.pop();
        assert!(matches!(
            run_with_faults(&short, &FaultPlan::none()),
            Err(FtError::Scenario(ScenarioError::LengthMismatch { .. }))
        ));
    }

    #[test]
    fn malformed_rates_are_typed_errors_not_panics() {
        // Each of these would panic inside `run_tree`: the engine must
        // refuse them first.
        let mut nan_link = scenario();
        nan_link.shape.children[0].0.z = f64::NAN;
        let mut negative_link = scenario();
        negative_link.shape.children[0].0.z = -1.0;
        let mut infinite_link = scenario();
        infinite_link.shape.children[1].1.children[0].0.z = f64::INFINITY;
        let mut zero_root = scenario();
        zero_root.shape.processor.w = 0.0;
        let mut nan_root = scenario();
        nan_root.shape.processor.w = f64::NAN;
        // A path is refused too, by the chain validation it delegates to.
        let net = dlt::model::LinearNetwork::from_rates(&[1.0, 2.0, 0.5], &[0.2, 0.1]);
        let mut nan_path_link = TreeScenario::honest(TreeNode::from_chain(&net), vec![2.0, 0.5]);
        nan_path_link.shape.children[0].1.children[0].0.z = f64::NAN;
        for (s, want) in [
            (nan_link, ("link_rates", 0)),
            (negative_link, ("link_rates", 0)),
            (infinite_link, ("link_rates", 4)),
            (zero_root, ("root_rate", 0)),
            (nan_root, ("root_rate", 0)),
            (nan_path_link, ("link_rates", 1)),
        ] {
            match run_with_faults(&s, &FaultPlan::crash(1, 3, 0.5)) {
                Err(FtError::Scenario(ScenarioError::BadRate { field, index, .. })) => {
                    assert_eq!((field, index), want);
                }
                other => panic!("{want:?}: expected BadRate, got {other:?}"),
            }
        }
    }

    #[test]
    fn seeded_multi_fault_sweeps_hold_the_invariants() {
        let s = scenario();
        let m = s.num_agents();
        for seed in 0..20u64 {
            let plan = FaultPlan::seeded_multi(seed, m, 3);
            let ft = run_with_faults(&s, &plan).unwrap();
            assert!(ft.load_conserved(1e-9), "seed={seed} plan {plan:?}");
            for j in 1..=m {
                assert!(
                    ft.fines_paid(j) <= 1e-12,
                    "seed={seed}: honest P{j} fined under {plan:?}"
                );
            }
        }
    }
}
