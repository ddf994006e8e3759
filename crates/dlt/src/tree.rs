//! Optimal divisible load scheduling on tree networks by recursive
//! equivalent-processor reduction — the substrate of the companion tree
//! mechanism \[9\], used here as a baseline in the cross-architecture
//! comparison (E10) and as an independent oracle for the chain solver (a
//! chain is a degenerate tree).
//!
//! On a path the two solvers agree to rounding, not bit for bit: they
//! evaluate the same recurrence in a different floating-point order. On a
//! 256-node heterogeneous path only a few fractions are bit-equal, and the
//! largest relative difference is a few ulps (about 4e-15, pinned below
//! 1e-14 by a test here). This is why `protocol`'s tree fault runner sends
//! degenerate paths through its chain topology instead of solving them
//! here: a path's fault report stays byte-identical to the chain's.
//!
//! Every internal node solves a local star problem over (link, equivalent
//! child) pairs: subtrees are collapsed bottom-up into equivalent processors
//! (their optimal unit-load makespan), and the load is then split top-down,
//! scaling the local star fractions by the amount each branch receives —
//! exact under the linear cost model.

use crate::model::{Link, Processor, StarNetwork, TreeNode, EPSILON};
use crate::star;

/// Per-node solution of the tree problem, mirroring the input tree's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSolution {
    /// Load fraction retained by this node's processor.
    pub alpha: f64,
    /// Total load handed to this node (its `D`); the root receives 1.
    pub received: f64,
    /// Equivalent unit processing time of the subtree rooted here.
    pub equivalent: f64,
    /// Solutions of the child subtrees, in distribution order.
    pub children: Vec<TreeSolution>,
}

impl TreeSolution {
    /// Flatten retained fractions in depth-first (preorder) order.
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<f64>) {
        out.push(self.alpha);
        for c in &self.children {
            c.collect(out);
        }
    }

    /// Sum of retained fractions across the subtree; 1.0 at the root of a
    /// full solution.
    pub fn total(&self) -> f64 {
        self.alpha + self.children.iter().map(TreeSolution::total).sum::<f64>()
    }
}

/// Canonicalize a tree for scheduling: recursively sort every node's
/// children by ascending link rate (stable for ties).
///
/// The classical single-level-tree sequencing result says serving
/// faster links first is the optimal distribution order; with an
/// arbitrary order the fixed-order equal-finish solution need not be
/// min-makespan (a slow-linked child served early can block a fast
/// sibling), which also breaks the makespan's monotonicity in a child's
/// rate — the property the tree *mechanism* needs for strategyproofness.
/// Canonicalize before solving whenever the child order is not itself
/// meaningful.
pub fn canonicalize(node: &TreeNode) -> TreeNode {
    let mut children: Vec<(Link, TreeNode)> = node
        .children
        .iter()
        .map(|(l, c)| (*l, canonicalize(c)))
        .collect();
    children.sort_by(|a, b| a.0.z.total_cmp(&b.0.z));
    TreeNode {
        processor: node.processor,
        children,
    }
}

/// Compute the equivalent unit processing time of a subtree by bottom-up
/// star reduction.
pub fn equivalent_time(node: &TreeNode) -> f64 {
    if node.children.is_empty() {
        return node.processor.w;
    }
    let star = local_star(node);
    star::equivalent_time(&star)
}

fn local_star(node: &TreeNode) -> StarNetwork {
    let children = node
        .children
        .iter()
        .map(|(link, child)| (Link::new(link.z), Processor::new(equivalent_time(child))))
        .collect();
    StarNetwork::new(node.processor, children)
}

/// Solve the tree problem: optimal fractions for every processor when the
/// root originates a unit load.
pub fn solve(root: &TreeNode) -> TreeSolution {
    distribute(root, 1.0)
}

/// Distribute `amount` units of load into the subtree rooted at `node`.
pub fn distribute(node: &TreeNode, amount: f64) -> TreeSolution {
    if node.children.is_empty() {
        return TreeSolution {
            alpha: amount,
            received: amount,
            equivalent: node.processor.w,
            children: Vec::new(),
        };
    }
    let star = local_star(node);
    let local = star::solve(&star);
    let children = node
        .children
        .iter()
        .enumerate()
        .map(|(i, (_, child))| distribute(child, local.alloc.alpha(i + 1) * amount))
        .collect();
    TreeSolution {
        alpha: local.alloc.alpha(0) * amount,
        received: amount,
        equivalent: local.makespan,
        children,
    }
}

/// The makespan of the whole tree under the optimal allocation: the
/// equivalent time of the root subtree (all processors finish together).
pub fn makespan(root: &TreeNode) -> f64 {
    equivalent_time(root)
}

/// Rebuild `shape` with `rates` at its non-root processors, in preorder.
/// The root rate and every link are kept.
///
/// # Panics
/// Panics unless there is exactly one rate per non-root node, or if a rate
/// is not a valid processor rate.
pub fn with_agent_rates(shape: &TreeNode, rates: &[f64]) -> TreeNode {
    fn rebuild(node: &TreeNode, rates: &[f64], next: &mut usize) -> TreeNode {
        TreeNode {
            processor: node.processor,
            children: node
                .children
                .iter()
                .map(|(l, c)| {
                    let w = Processor::new(rates[*next]);
                    *next += 1;
                    let mut child = rebuild(c, rates, next);
                    child.processor = w;
                    (*l, child)
                })
                .collect(),
        }
    }
    assert_eq!(rates.len(), shape.size() - 1, "one rate per non-root node");
    rebuild(shape, rates, &mut 0)
}

/// The non-root processor rates of `tree`, in preorder: the inverse of
/// [`with_agent_rates`].
pub fn agent_rates(tree: &TreeNode) -> Vec<f64> {
    fn walk(node: &TreeNode, out: &mut Vec<f64>) {
        for (_, c) in &node.children {
            out.push(c.processor.w);
            walk(c, out);
        }
    }
    let mut out = Vec::with_capacity(tree.size() - 1);
    walk(tree, &mut out);
    out
}

/// Result of [`splice_node`]: the survivor tree plus the preorder
/// renumbering the splice induced.
#[derive(Debug, Clone, PartialEq)]
pub struct SplicedTree {
    /// The survivor tree, re-canonicalized.
    pub tree: TreeNode,
    /// `map[old] = Some(new)` maps the original tree's preorder indices to
    /// the survivor tree's; `None` marks the removed node.
    pub map: Vec<Option<usize>>,
}

/// Remove the non-root node at preorder index `dead` and re-attach each of
/// its child subtrees directly to its parent.
///
/// Every re-attached subtree's incoming link fuses with the dead node's:
/// the data still travels both hops, store-and-forward, so the rates add —
/// `z(parent→child) = z(parent→dead) + z(dead→child)`. On a degenerate
/// path this is exactly [`crate::linear::splice`]'s `z_k + z_{k+1}` fusion;
/// a leaf is simply cut. The survivor tree is re-canonicalized (children
/// re-sorted by ascending link rate, stably), because the fused links can
/// land anywhere in the parent's service order; `map` records where every
/// surviving node ended up.
pub fn splice_node(root: &TreeNode, dead: usize) -> SplicedTree {
    let n = root.size();
    assert!(
        dead >= 1 && dead < n,
        "can only splice a non-root node out of the tree (dead={dead}, n={n})"
    );

    // Tag every node with its original preorder index so the map survives
    // re-attachment and re-sorting.
    struct Tagged {
        old: usize,
        w: f64,
        children: Vec<(f64, Tagged)>,
    }
    fn tag(node: &TreeNode, next: &mut usize) -> Tagged {
        let old = *next;
        *next += 1;
        Tagged {
            old,
            w: node.processor.w,
            children: node
                .children
                .iter()
                .map(|(l, c)| (l.z, tag(c, next)))
                .collect(),
        }
    }
    fn remove(node: &mut Tagged, dead: usize) -> bool {
        if let Some(i) = node.children.iter().position(|(_, c)| c.old == dead) {
            let (z_dead, dead_node) = node.children.remove(i);
            for (z_c, c) in dead_node.children.into_iter().rev() {
                node.children.insert(i, (z_dead + z_c, c));
            }
            return true;
        }
        node.children.iter_mut().any(|(_, c)| remove(c, dead))
    }
    fn resort(node: &mut Tagged) {
        node.children.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, c) in &mut node.children {
            resort(c);
        }
    }
    fn rebuild(node: &Tagged, next: &mut usize, map: &mut [Option<usize>]) -> TreeNode {
        map[node.old] = Some(*next);
        *next += 1;
        TreeNode {
            processor: Processor::new(node.w),
            children: node
                .children
                .iter()
                .map(|(z, c)| (Link::new(*z), rebuild(c, next, map)))
                .collect(),
        }
    }

    let mut next = 0;
    let mut tagged = tag(root, &mut next);
    let removed = remove(&mut tagged, dead);
    debug_assert!(removed, "preorder index {dead} not found below the root");
    resort(&mut tagged);
    let mut map = vec![None; n];
    let mut next = 0;
    let tree = rebuild(&tagged, &mut next, &mut map);
    SplicedTree { tree, map }
}

/// Verify that the solution's fractions are non-negative and sum to one.
pub fn validate(sol: &TreeSolution) -> bool {
    fn all_nonneg(s: &TreeSolution) -> bool {
        s.alpha >= -EPSILON && s.children.iter().all(all_nonneg)
    }
    all_nonneg(sol) && (sol.total() - 1.0).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear;
    use crate::model::LinearNetwork;

    #[test]
    fn leaf_takes_everything() {
        let sol = solve(&TreeNode::leaf(2.0));
        assert_eq!(sol.alpha, 1.0);
        assert_eq!(sol.equivalent, 2.0);
    }

    #[test]
    fn chain_as_tree_matches_chain_solver() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]);
        let tree = TreeNode::from_chain(&net);
        let tsol = solve(&tree);
        let lsol = linear::solve(&net);
        let flat = tsol.flatten();
        for i in 0..net.len() {
            assert!(
                (flat[i] - lsol.alloc.alpha(i)).abs() < 1e-12,
                "α_{i}: tree {} vs chain {}",
                flat[i],
                lsol.alloc.alpha(i)
            );
        }
        assert!((makespan(&tree) - lsol.makespan()).abs() < 1e-12);
    }

    #[test]
    fn star_as_tree_matches_star_solver() {
        let star_net = StarNetwork::from_rates(&[1.0, 2.0, 0.7, 3.0], &[0.1, 0.4, 0.2]);
        let tree = TreeNode::internal(
            1.0,
            vec![
                (0.1, TreeNode::leaf(2.0)),
                (0.4, TreeNode::leaf(0.7)),
                (0.2, TreeNode::leaf(3.0)),
            ],
        );
        let tsol = solve(&tree);
        let ssol = star::solve(&star_net);
        let flat = tsol.flatten();
        for i in 0..4 {
            assert!((flat[i] - ssol.alloc.alpha(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn balanced_binary_tree_is_feasible_and_consistent() {
        let tree = TreeNode::internal(
            1.0,
            vec![
                (
                    0.2,
                    TreeNode::internal(
                        1.5,
                        vec![(0.3, TreeNode::leaf(2.0)), (0.3, TreeNode::leaf(2.0))],
                    ),
                ),
                (
                    0.2,
                    TreeNode::internal(
                        1.5,
                        vec![(0.3, TreeNode::leaf(2.0)), (0.3, TreeNode::leaf(2.0))],
                    ),
                ),
            ],
        );
        let sol = solve(&tree);
        assert!(validate(&sol));
        // Symmetric branches receive... the first branch receives more due
        // to sequential distribution.
        assert!(sol.children[0].received > sol.children[1].received);
        // Within a branch, symmetry holds: both leaves of the first internal
        // node relate by the same w/(z+w) ratio as the star recursion.
        assert!(sol.children[0].children[0].alpha > sol.children[0].children[1].alpha);
    }

    #[test]
    fn subtree_equivalent_bounded_by_root_rate() {
        let tree = TreeNode::internal(
            2.0,
            vec![(0.5, TreeNode::leaf(1.0)), (0.1, TreeNode::leaf(3.0))],
        );
        let eq = equivalent_time(&tree);
        assert!(eq < 2.0, "helpers can only speed the root up");
        assert!(eq > 0.0);
    }

    #[test]
    fn deep_chain_tree_is_stable() {
        let net = LinearNetwork::homogeneous(64, 1.0, 0.1);
        let tree = TreeNode::from_chain(&net);
        let sol = solve(&tree);
        assert!(validate(&sol));
        assert!((makespan(&tree) - linear::solve(&net).makespan()).abs() < 1e-10);
    }

    #[test]
    fn splice_on_a_path_matches_linear_splice_exactly() {
        let net = LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0, 1.5], &[0.2, 0.1, 0.7, 0.3]);
        let tree = TreeNode::from_chain(&net);
        for dead in 1..net.len() {
            let spliced = splice_node(&tree, dead);
            let expected = linear::splice(&net, dead);
            let expected_tree = TreeNode::from_chain(&expected);
            assert_eq!(
                spliced.tree, expected_tree,
                "dead={dead}: fused path differs from linear::splice"
            );
            for old in 0..net.len() {
                let want = match old.cmp(&dead) {
                    std::cmp::Ordering::Less => Some(old),
                    std::cmp::Ordering::Equal => None,
                    std::cmp::Ordering::Greater => Some(old - 1),
                };
                assert_eq!(spliced.map[old], want, "dead={dead} old={old}");
            }
        }
    }

    #[test]
    fn splice_internal_node_reattaches_subtrees_with_fused_links() {
        // root --0.4--> A --{0.3, 0.1}--> (B, C): cutting A hands B and C
        // to the root with fused links 0.7 and 0.5, re-sorted ascending.
        let tree = TreeNode::internal(
            1.0,
            vec![(
                0.4,
                TreeNode::internal(
                    1.5,
                    vec![(0.3, TreeNode::leaf(2.0)), (0.1, TreeNode::leaf(3.0))],
                ),
            )],
        );
        let spliced = splice_node(&tree, 1);
        let expected = TreeNode::internal(
            1.0,
            vec![(0.5, TreeNode::leaf(3.0)), (0.7, TreeNode::leaf(2.0))],
        );
        assert_eq!(spliced.tree, expected);
        // Old preorder: [root, A, B(2.0), C(3.0)]. C's fused link (0.5) now
        // sorts before B's (0.7).
        assert_eq!(spliced.map, vec![Some(0), None, Some(2), Some(1)]);
    }

    #[test]
    fn splice_leaf_truncates() {
        let tree = TreeNode::internal(
            1.0,
            vec![(0.1, TreeNode::leaf(2.0)), (0.2, TreeNode::leaf(0.7))],
        );
        let spliced = splice_node(&tree, 2);
        assert_eq!(
            spliced.tree,
            TreeNode::internal(1.0, vec![(0.1, TreeNode::leaf(2.0))])
        );
        assert_eq!(spliced.map, vec![Some(0), Some(1), None]);
        // Down to a lone root.
        let lone = splice_node(&spliced.tree, 1);
        assert_eq!(lone.tree, TreeNode::leaf(1.0));
        assert_eq!(lone.map, vec![Some(0), None]);
    }

    #[test]
    fn spliced_tree_still_solves_to_a_unit_partition() {
        let tree = TreeNode::internal(
            1.0,
            vec![
                (
                    0.15,
                    TreeNode::internal(
                        1.4,
                        vec![(0.05, TreeNode::leaf(2.2)), (0.25, TreeNode::leaf(0.7))],
                    ),
                ),
                (
                    0.30,
                    TreeNode::internal(
                        1.9,
                        vec![(0.10, TreeNode::leaf(1.1)), (0.20, TreeNode::leaf(3.0))],
                    ),
                ),
            ],
        );
        for dead in 1..tree.size() {
            let spliced = splice_node(&tree, dead);
            assert_eq!(spliced.tree.size(), tree.size() - 1, "dead={dead}");
            let sol = solve(&spliced.tree);
            assert!(validate(&sol), "dead={dead}: invalid spliced solution");
            // Every survivor maps somewhere, bijectively.
            let mut seen: Vec<usize> = spliced.map.iter().filter_map(|&x| x).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..tree.size() - 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn canonicalize_is_tie_stable() {
        // Equal link rates must keep the stored child order at every
        // depth: the sort is stable, so canonicalization is deterministic
        // on tie-heavy (bus-like) shapes and agent preorder indices do not
        // shuffle between identical instances.
        let tree = TreeNode::internal(
            1.0,
            vec![
                (
                    0.3,
                    TreeNode::internal(
                        1.5,
                        vec![(0.2, TreeNode::leaf(2.0)), (0.2, TreeNode::leaf(0.7))],
                    ),
                ),
                (0.3, TreeNode::leaf(1.1)),
                (0.1, TreeNode::leaf(2.4)),
            ],
        );
        let canon = canonicalize(&tree);
        // The 0.1 link moves first; the two 0.3 links keep index order.
        assert_eq!(canon.children[0].1, TreeNode::leaf(2.4));
        assert_eq!(canon.children[1].0.z, 0.3);
        assert_eq!(canon.children[1].1.children.len(), 2);
        // Inside the tied subtree, the equal 0.2 links keep their order.
        assert_eq!(canon.children[1].1.children[0].1, TreeNode::leaf(2.0));
        assert_eq!(canon.children[1].1.children[1].1, TreeNode::leaf(0.7));
        assert_eq!(canon.children[2].1, TreeNode::leaf(1.1));
    }

    #[test]
    fn agent_rates_round_trip_in_preorder() {
        let shape = TreeNode::internal(
            1.0,
            vec![
                (
                    0.1,
                    TreeNode::internal(1.0, vec![(0.2, TreeNode::leaf(1.0))]),
                ),
                (0.3, TreeNode::leaf(1.0)),
            ],
        );
        let tree = with_agent_rates(&shape, &[2.0, 3.0, 4.0]);
        let expected = TreeNode::internal(
            1.0,
            vec![
                (
                    0.1,
                    TreeNode::internal(2.0, vec![(0.2, TreeNode::leaf(3.0))]),
                ),
                (0.3, TreeNode::leaf(4.0)),
            ],
        );
        assert_eq!(tree, expected);
        assert_eq!(agent_rates(&tree), vec![2.0, 3.0, 4.0]);
        assert!(agent_rates(&TreeNode::leaf(1.0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "one rate per non-root node")]
    fn with_agent_rates_rejects_wrong_arity() {
        with_agent_rates(
            &TreeNode::internal(1.0, vec![(0.1, TreeNode::leaf(1.0))]),
            &[],
        );
    }

    #[test]
    fn path_solve_agrees_with_the_chain_solver_to_rounding() {
        // The two solvers evaluate the same recurrence in different
        // floating-point orders: on a long heterogeneous path they agree to
        // a few ulps, not bit for bit.
        let n = 256;
        let w: Vec<f64> = (0..n).map(|i| 0.5 + 0.3 * ((i * 7 % 11) as f64)).collect();
        let z: Vec<f64> = (1..n).map(|i| 0.05 + 0.04 * ((i * 3 % 5) as f64)).collect();
        let net = LinearNetwork::from_rates(&w, &z);
        let tree = solve(&TreeNode::from_chain(&net)).flatten();
        let chain = linear::solve(&net);
        let mut worst = 0.0f64;
        for (i, &t) in tree.iter().enumerate() {
            let l = chain.alloc.alpha(i);
            worst = worst.max((t - l).abs() / l.abs());
        }
        assert!(worst <= 1e-14, "largest relative difference {worst:e}");
        let span = makespan(&TreeNode::from_chain(&net));
        assert!((span - chain.makespan()).abs() / chain.makespan() <= 1e-14);
    }

    #[test]
    fn distribute_scales_linearly() {
        let tree = TreeNode::internal(1.0, vec![(0.2, TreeNode::leaf(2.0))]);
        let full = distribute(&tree, 1.0);
        let half = distribute(&tree, 0.5);
        assert!((half.alpha - full.alpha * 0.5).abs() < 1e-12);
        assert!((half.children[0].alpha - full.children[0].alpha * 0.5).abs() < 1e-12);
    }
}
