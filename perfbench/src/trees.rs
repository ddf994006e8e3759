//! The `tree_rounds` population and one round over it.

use crate::mix;
use dlt::model::{LinearNetwork, TreeNode};
use dlt::seqsearch::{self, LocalSearchConfig};
use mechanism::{Agent, TreeMechanism};
use protocol::{run_tree_with_faults, FaultPlan, TreeScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::generators::{chain, tree, ChainConfig};
use workloads::{order_search_grid, tree_shape_grid};

/// Node counts of the path and random-tree members.
pub const TREE_SIZES: [usize; 3] = [16, 256, 2048];
/// Largest tree settled through `TreeMechanism` each round.
pub const SETTLE_MAX_NODES: usize = 256;
/// Fan-out bound of the random trees.
pub const MAX_FANOUT: usize = 4;

/// One solved tree of the population.
#[derive(Debug, Clone)]
pub struct SolveCase {
    /// `path-<n>` or `random-<n>`.
    pub label: String,
    /// The canonicalized tree.
    pub shape: TreeNode,
    /// For paths, the same network as a chain (the linear-solver baseline).
    pub chain: Option<LinearNetwork>,
    /// Truthful settlement inputs when `n ≤ SETTLE_MAX_NODES`.
    pub settle: Option<(TreeMechanism, Vec<Agent>)>,
}

/// One fault run: a tree-shape-grid scenario with one seeded crash.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// The grid case's label.
    pub label: String,
    /// The honest scenario.
    pub scenario: TreeScenario,
    /// The crash `(node, phase, progress)`.
    pub crash: (usize, u8, f64),
}

/// Everything one round touches, built from the seed.
#[derive(Debug, Clone)]
pub struct Population {
    /// Paths and random trees at every size in [`TREE_SIZES`].
    pub solves: Vec<SolveCase>,
    /// `tree_shape_grid` cases with one crash each.
    pub faults: Vec<FaultCase>,
    /// The `order_search_grid` shapes for local search.
    pub orders: Vec<TreeNode>,
    /// Local-search configuration (seeded).
    pub search: LocalSearchConfig,
}

fn agent_rates(node: &TreeNode, out: &mut Vec<f64>, is_root: bool) {
    if !is_root {
        out.push(node.processor.w);
    }
    for (_, c) in &node.children {
        agent_rates(c, out, false);
    }
}

fn solve_case(label: String, shape: TreeNode, chain: Option<LinearNetwork>) -> SolveCase {
    let shape = dlt::tree::canonicalize(&shape);
    let settle = (shape.size() <= SETTLE_MAX_NODES).then(|| {
        let mut rates = Vec::new();
        agent_rates(&shape, &mut rates, true);
        let agents = rates.into_iter().map(Agent::new).collect();
        (TreeMechanism::new(shape.clone()), agents)
    });
    SolveCase {
        label,
        shape,
        chain,
        settle,
    }
}

impl Population {
    /// Build the population from `seed`.
    pub fn build(seed: u64) -> Population {
        let mut solves = Vec::new();
        for (k, &n) in TREE_SIZES.iter().enumerate() {
            let config = ChainConfig {
                processors: n,
                ..ChainConfig::default()
            };
            let net = chain(&config, mix(seed, 10 + k as u64));
            solves.push(solve_case(
                format!("path-{n}"),
                TreeNode::from_chain(&net),
                Some(net),
            ));
            let random = tree(&config, MAX_FANOUT, mix(seed, 20 + k as u64));
            solves.push(solve_case(format!("random-{n}"), random, None));
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, 30));
        let faults = tree_shape_grid(mix(seed, 31))
            .into_iter()
            .map(|c| {
                let m = c.num_agents();
                let crash = (
                    rng.gen_range(1..=m),
                    rng.gen_range(1..=4u32) as u8,
                    rng.gen_range(0.1..0.9),
                );
                FaultCase {
                    label: c.label,
                    scenario: TreeScenario::honest(c.shape, c.true_rates).with_seed(mix(seed, 32)),
                    crash,
                }
            })
            .collect();
        let orders = order_search_grid(mix(seed, 33))
            .into_iter()
            .map(|c| c.shape)
            .collect();
        Population {
            solves,
            faults,
            orders,
            search: LocalSearchConfig {
                seed: mix(seed, 34),
                ..LocalSearchConfig::default()
            },
        }
    }
}

/// One round's results, checked after the round's clock stopped.
pub struct RoundOutput {
    solutions: Vec<dlt::tree::TreeSolution>,
    settlements: Vec<mechanism::TreeOutcome>,
    fault_runs: Vec<Result<protocol::FtTreeRunReport, protocol::FtError>>,
    searches: Vec<seqsearch::LocalSearchOutcome>,
}

/// Run one round: solve every tree, settle the small ones truthfully, run
/// every fault case, and search every order-grid shape.
pub fn round(pop: &Population) -> RoundOutput {
    let solutions = pop
        .solves
        .iter()
        .map(|c| dlt::tree::solve(&c.shape))
        .collect();
    let settlements = pop
        .solves
        .iter()
        .filter_map(|c| c.settle.as_ref())
        .map(|(mech, agents)| mech.settle_truthful(agents))
        .collect();
    let fault_runs = pop
        .faults
        .iter()
        .map(|f| {
            let (node, phase, progress) = f.crash;
            run_tree_with_faults(&f.scenario, &FaultPlan::crash(node, phase, progress))
        })
        .collect();
    let searches = pop
        .orders
        .iter()
        .map(|shape| seqsearch::local_search(shape, &pop.search))
        .collect();
    RoundOutput {
        solutions,
        settlements,
        fault_runs,
        searches,
    }
}

/// The round oracle: every tree solution is valid (non-negative, sums to
/// one), every fault run conserves load, every settlement covers every
/// agent, and no searched order is worse than the canonical one.
pub fn check_round(pop: &Population, out: &RoundOutput) -> Result<(), String> {
    for (case, sol) in pop.solves.iter().zip(&out.solutions) {
        if !dlt::tree::validate(sol) {
            return Err(format!("{}: tree solution fails validate", case.label));
        }
    }
    let settled = pop.solves.iter().filter_map(|c| c.settle.as_ref());
    for ((mech, _), outcome) in settled.zip(&out.settlements) {
        let ok = outcome.agents.len() == mech.num_agents()
            && outcome.agents.iter().all(|a| a.utility.is_finite());
        if !ok {
            return Err("tree settlement lost an agent or a finite utility".into());
        }
    }
    for (case, run) in pop.faults.iter().zip(&out.fault_runs) {
        match run {
            Ok(report) if report.load_conserved(1e-9) => {}
            Ok(_) => return Err(format!("{}: fault run lost load", case.label)),
            Err(e) => return Err(format!("{}: fault run failed: {e}", case.label)),
        }
    }
    for s in &out.searches {
        if s.best_makespan > s.canonical_makespan {
            return Err("local search returned an order worse than canonical".into());
        }
    }
    Ok(())
}
