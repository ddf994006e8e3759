//! Fault-tolerant protocol execution: run a scenario under an injected
//! [`FaultPlan`] and recover by **splicing** the halted nodes out —
//! including cascading and simultaneous failures.
//!
//! This module holds the one recovery engine. It is generic over a small
//! crate-private `Topology` trait with two implementations: [`Scenario`]
//! (chains, here) and [`crate::TreeScenario`] (trees, in
//! [`crate::ft_tree_runner`]). The trait carries only what differs between
//! the two: the fault-free base run, who a node's parent and first child
//! are, how a survivor is spliced out, how the residual load is
//! re-allocated, and how the root re-settles a silent Phase IV bill.
//! Detection, recovery rounds, settlement and renumbering are written once.
//!
//! ### Recovery protocol
//! When a strategic processor `P_k` halts (crash-stop in any phase, or a
//! Phase III stall), a neighbour's detection timer fires, the root probes
//! liveness, and recovery proceeds by *splicing* `P_k` out of the network.
//! On a chain the links `z_k` and `z_{k+1}` fuse into one store-and-forward
//! hop of rate `z_k + z_{k+1}` ([`dlt::linear::splice`]); on a tree every
//! child subtree of `P_k` is re-attached to its parent over a fused link
//! ([`dlt::tree::splice_node`]). The root then re-solves the DLT
//! allocation on the survivors for whatever load `P_k` left unprocessed.
//!
//! * Halt **before distribution** (Phases I–II): the whole unit load is
//!   allocated over the survivors from scratch.
//! * Halt **during computation** (Phase III, at progress `p`): the dead
//!   node's residual `(1 − p)·α̃_k` is re-allocated over the survivors;
//!   each survivor's recovery work is compensated at exactly its metered
//!   cost, so recovery is utility-neutral for the survivors.
//! * Halt **before billing** (Phase IV): all work is done; the root
//!   settles the silent node's account from its own recomputation.
//!
//! The failed node is paid **pro rata** ([`mechanism::payment::pro_rata`])
//! for the work it verifiably completed — made whole for its cost, but no
//! bonus, since bonuses reward finishing the prescribed share.
//!
//! ### Detection
//! Phase I bids flow upward, so the **parent** of a silent node times out;
//! Phase II allocations flow downward, so its **first child** in service
//! order waits (the root for a terminal node); Phase III results and Phase
//! IV bills are awaited by the **root**. On a chain the parent is the
//! predecessor and the first child the successor.
//!
//! ### Cascading and simultaneous failures
//! A plan may halt any number of *distinct* nodes. The halting faults
//! resolve in [`FaultPlan::detection_order`] — ascending phase, plan order
//! within a phase — and splices compose, so each confirmed failure shrinks
//! the survivor network monotonically:
//!
//! * **Pre-distribution crashes** recurse: the first dead node is spliced
//!   out, the survivors re-run Phases I–II among themselves, and the
//!   remaining faults (renumbered to the spliced network) are recovered
//!   *inside* that re-run. The composed `splice_map` records the final
//!   renumbering.
//! * **Phase III halts** are serialized by the root: the first halt is
//!   detected during the base computation round; each subsequent halt
//!   strikes during the *latest recovery round* — the node has finished
//!   all earlier rounds and its `progress` applies to its current
//!   recovery assignment. A node that dies while performing recovery work
//!   is settled pro rata on everything it completed (its own share plus
//!   the recovery fraction it finished), **not** on its original Λ.
//! * **Phase IV crashes** are simultaneous: the root's billing timers all
//!   fire within one shared timeout window, and the batch of
//!   `Complaint::Unresponsive` probes is arbitrated concurrently
//!   ([`crate::root::arbitrate_concurrent_unresponsive`]) in detection
//!   order.
//!
//! ### Extended Lemma 5.2
//! Faults are operational, not strategic, so they are **no-fault**: across
//! every injected fault — crash, stall, message drop, delay, corruption —
//! no honest processor is ever fined. Timeout complaints resolve by
//! liveness probe with a zero fine either way; corrupted messages are
//! discarded *before* entering the transcript, so replay can never mistake
//! line noise for a forged signature. Deviations remain finable exactly as
//! in the fault-free protocol, and both layers compose: a deviant that
//! later crashes keeps its earlier fines and loses its bonus.
//!
//! ### Determinism
//! Given the same `(scenario, FaultPlan)` pair the report is bit-identical
//! — faults are part of the experiment description, not sampled during the
//! run. On single-failure chain plans this engine is additionally
//! byte-identical to the original single-failure path, frozen as
//! [`crate::ft_reference::run_with_faults_single`] and enforced by the
//! `multi_fault` differential suite.
//!
//! ### Modelling simplifications
//! Phase boundaries act as barriers: detection and recovery start after
//! the fault-free schedule of the interrupted phase completes, and
//! recovery rounds are barriers too — the next halt in detection order is
//! confirmed only after the previous round's re-allocation is in flight.
//! A node that halts in phase `p` is treated as absent from phase `p`
//! onward *and* its earlier-phase message interplay is replayed on the
//! spliced network for pre-distribution halts (the survivors re-run Phases
//! I–II among themselves). Recovery allocation is computed on the
//! *reported* (bid) rates, like any Phase II allocation. After a
//! pre-distribution splice the inner protocol transcript and ledger are
//! renumbered back to the original indices via [`FtRunReport::splice_map`].

use crate::crypto::NodeId;
use crate::faults::{FaultError, FaultEvent, FaultKind, FaultPlan};
use crate::ledger::{EntryKind, Ledger};
use crate::root::{arbitrate_concurrent_unresponsive, arbitrate_unresponsive, ArbitrationRecord};
use crate::runner::{try_run, RunReport, Scenario, ScenarioError};
use crate::transcript::{Entry, Transcript};
use dlt::linear;
use dlt::model::{LinearNetwork, Link, Processor};
use mechanism::payment::{self, PaymentBreakdown, PaymentInputs};

/// Why a fault-tolerant run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum FtError {
    /// The scenario itself is malformed.
    Scenario(ScenarioError),
    /// The fault plan is malformed (for this network size).
    Fault(FaultError),
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            FtError::Fault(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for FtError {}

impl From<ScenarioError> for FtError {
    fn from(e: ScenarioError) -> Self {
        FtError::Scenario(e)
    }
}

impl From<FaultError> for FtError {
    fn from(e: FaultError) -> Self {
        FtError::Fault(e)
    }
}

/// Everything a fault-tolerant run produced. All per-node vectors use the
/// **original** indexing (`0` = root; chain position or tree preorder;
/// length `m + 1` or `m`), even when recovery ran on a spliced network.
#[derive(Debug, Clone, PartialEq)]
pub struct FtRunReport {
    /// Every crash-stopped node, in detection order.
    pub crashed: Vec<NodeId>,
    /// Every stalled (alive but unproductive) node, in detection order.
    pub stalled: Vec<NodeId>,
    /// Every detection event: `(detector, suspect, phase)`.
    pub detected: Vec<(NodeId, NodeId, u8)>,
    /// Load prescribed per node by the (possibly re-run) Phase II.
    pub assigned: Vec<f64>,
    /// Load each node actually finished, including recovery work. Sums to
    /// the unit workload whenever recovery succeeded.
    pub completed: Vec<f64>,
    /// Total residual load the recovery rounds re-assigned, counted with
    /// multiplicity: a unit that was re-assigned and then orphaned again by
    /// a crash-during-recovery counts once per round it traveled. 0 when
    /// nothing halted mid-computation.
    pub recovered_load: f64,
    /// Extra load each node received from recovery **and actually
    /// performed** (a node that died mid-recovery only counts the fraction
    /// it finished).
    pub recovery_assigned: Vec<f64>,
    /// Realized makespan including detection and recovery overhead.
    pub makespan: f64,
    /// Makespan of the same scenario with no faults (for overhead plots).
    pub base_makespan: f64,
    /// All arbitration records (timeout complaints included), in order.
    pub arbitrations: Vec<ArbitrationRecord>,
    /// The full ledger, renumbered to original indices.
    pub ledger: Ledger,
    /// Net utility of every strategic processor (`net_utilities[j-1]` is
    /// `P_j`'s), original indexing; a halted node's reflects pro-rata
    /// settlement.
    pub net_utilities: Vec<f64>,
    /// The transcript: fault entries plus the protocol messages of the run
    /// that executed (spliced indices for pre-distribution halts — see
    /// `splice_map`). Empty for a branching tree, whose protocol run keeps
    /// no transcript.
    pub transcript: Transcript,
    /// `splice_map[old] = Some(new)` maps original to post-splice indices;
    /// `None` marks a removed node. Composed across nested splices for
    /// cascading pre-distribution crashes. Identity when nothing was
    /// spliced before distribution.
    pub splice_map: Vec<Option<usize>>,
    /// Discrete events the execution simulator processed (0 for a
    /// branching tree, whose run is not event-simulated).
    pub events: u64,
    /// Deterministic per-run phase timeline (original indexing): base-run
    /// work, detection-timeout waits, the splice instants and recovery
    /// spans — nested recovery included — on the same virtual clock as
    /// `makespan`. A branching tree's base round is one root span.
    pub timeline: obs::PhaseTimeline,
}

impl FtRunReport {
    /// Net utility of strategic processor `P_j` (original index).
    pub fn utility(&self, j: usize) -> f64 {
        self.net_utilities[j - 1]
    }

    /// True if the total finished load equals the unit workload.
    pub fn load_conserved(&self, tol: f64) -> bool {
        (self.completed.iter().sum::<f64>() - 1.0).abs() <= tol
    }

    /// Makespan overhead attributable to faults and recovery.
    pub fn overhead(&self) -> f64 {
        self.makespan - self.base_makespan
    }

    /// Fines actually paid by `P_j` (as a non-negative number).
    pub fn fines_paid(&self, j: NodeId) -> f64 {
        -(self.ledger.net_of(j, EntryKind::Fine)
            + self.ledger.net_of(j, EntryKind::ExtraWorkPenalty))
    }

    /// All halted nodes (crashed and stalled), in detection order within
    /// each group.
    pub fn halted(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.crashed.iter().chain(self.stalled.iter()).copied()
    }
}

/// What the recovery engine must do differently on each network topology.
/// Node indices are `0` for the root and `1..=m` for the strategic nodes
/// (chain position or tree preorder).
pub(crate) trait Topology: Sized {
    /// The reported-rate network the Phase III recovery rounds re-solve.
    type Net;
    /// Whether the base run records a replayable transcript, which the
    /// engine then extends with its fault entries.
    const TRANSCRIPT: bool;

    /// Check the scenario's numeric inputs.
    fn validate(&self) -> Result<(), ScenarioError>;
    /// Number of strategic nodes `m`.
    fn num_agents(&self) -> usize;
    /// The obedient root's unit processing time `w_0`.
    fn root_rate(&self) -> f64;
    /// The fault-free protocol run.
    fn base_run(&self) -> Result<RunReport, FtError>;
    /// The node `P_k` sends its Phase I bid to (the Phase I detector).
    fn parent(&self, k: NodeId) -> NodeId;
    /// The first node `P_k` serves in Phase II, if any (the Phase II
    /// detector and receiver).
    fn first_child(&self, k: NodeId) -> Option<NodeId>;
    /// The survivors' scenario, with `P_k` spliced out of the true-rate
    /// network, and how the splice renumbered them.
    fn without(&self, k: NodeId) -> (Self, Renumbering);
    /// The network of the root's rate and the reported `bids`.
    fn bid_network(&self, bids: &[f64]) -> Self::Net;
    /// Splice position `si` out of `net`, and how that renumbered it.
    fn splice(net: &Self::Net, si: usize) -> (Self::Net, Renumbering);
    /// Per-unit-load makespan and absolute load shares, by position, of a
    /// (possibly root-only) network.
    fn allocation(net: &Self::Net) -> (f64, Vec<f64>);
    /// The honest Phase IV payment of each `silent` node, from the root's
    /// own recomputation of the base run's settlement.
    fn silent_bills(&self, base: &RunReport, silent: &[NodeId]) -> Vec<f64>;
}

/// How one splice renumbered the surviving nodes.
pub(crate) enum Renumbering {
    /// Every node after the dead one moved up one place (a chain).
    Shift(NodeId),
    /// An arbitrary renumbering (a re-canonicalized tree).
    Table {
        /// `new_of[old]`: survivor index of each original node, `None` for
        /// the dead one.
        new_of: Vec<Option<usize>>,
        /// `old_of[new]`: original index of each survivor.
        old_of: Vec<usize>,
    },
}

impl Renumbering {
    /// The renumbering a `new_of` map describes.
    pub(crate) fn table(new_of: Vec<Option<usize>>) -> Self {
        let mut old_of = vec![0; new_of.len() - 1];
        for (old, new) in new_of.iter().enumerate() {
            if let Some(new) = new {
                old_of[*new] = old;
            }
        }
        Renumbering::Table { new_of, old_of }
    }

    /// Original index of survivor `new`.
    fn original(&self, new: usize) -> usize {
        match self {
            Renumbering::Shift(dead) => unsplice(new, *dead),
            Renumbering::Table { old_of, .. } => old_of[new],
        }
    }

    /// Survivor index of original node `old`; `None` for the dead node.
    fn survivor(&self, old: usize) -> Option<usize> {
        match self {
            Renumbering::Shift(dead) => (old != *dead).then(|| old - usize::from(old > *dead)),
            Renumbering::Table { new_of, .. } => new_of[old],
        }
    }

    /// Carry `orig_of` (original id of each position) across the splice.
    fn compose(&self, orig_of: &mut Vec<usize>) {
        match self {
            Renumbering::Shift(dead) => {
                orig_of.remove(*dead);
            }
            Renumbering::Table { old_of, .. } => {
                *orig_of = old_of.iter().map(|&old| orig_of[old]).collect();
            }
        }
    }
}

impl Topology for Scenario {
    type Net = LinearNetwork;
    const TRANSCRIPT: bool = true;

    fn validate(&self) -> Result<(), ScenarioError> {
        Scenario::validate(self)
    }

    fn num_agents(&self) -> usize {
        self.true_rates.len()
    }

    fn root_rate(&self) -> f64 {
        self.root_rate
    }

    fn base_run(&self) -> Result<RunReport, FtError> {
        Ok(try_run(self)?)
    }

    fn parent(&self, k: NodeId) -> NodeId {
        k - 1
    }

    fn first_child(&self, k: NodeId) -> Option<NodeId> {
        (k < self.num_agents()).then_some(k + 1)
    }

    fn without(&self, k: NodeId) -> (Self, Renumbering) {
        // Splice the chain of *true* rates; bids re-derive from the
        // surviving nodes' deviations inside the survivor run.
        let mut w = vec![self.root_rate];
        w.extend_from_slice(&self.true_rates);
        let spliced = linear::splice(&LinearNetwork::from_rates(&w, &self.link_rates), k);
        let mut deviations = self.deviations.clone();
        deviations.remove(k - 1);
        let survivors = Scenario {
            root_rate: self.root_rate,
            true_rates: spliced.rates_w()[1..].to_vec(),
            link_rates: spliced.rates_z().to_vec(),
            deviations,
            fine: self.fine,
            blocks: self.blocks,
            seed: self.seed,
            solution_bonus: self.solution_bonus,
            solution_found: self.solution_found,
        };
        (survivors, Renumbering::Shift(k))
    }

    fn bid_network(&self, bids: &[f64]) -> LinearNetwork {
        LinearNetwork::new(
            std::iter::once(self.root_rate)
                .chain(bids.iter().copied())
                .map(Processor::new)
                .collect(),
            self.link_rates.iter().copied().map(Link::new).collect(),
        )
    }

    fn splice(net: &LinearNetwork, si: usize) -> (LinearNetwork, Renumbering) {
        (linear::splice(net, si), Renumbering::Shift(si))
    }

    fn allocation(net: &LinearNetwork) -> (f64, Vec<f64>) {
        allocation_of(net)
    }

    fn silent_bills(&self, base: &RunReport, silent: &[NodeId]) -> Vec<f64> {
        let bid_net = self.bid_network(&base.bids);
        let s = if self.solution_found {
            self.solution_bonus
        } else {
            0.0
        };
        silent
            .iter()
            .map(|&k| {
                let inputs = PaymentInputs {
                    assigned_load: base.assigned[k],
                    actual_load: base.retained[k],
                    actual_rate: base.actual_rates[k - 1],
                };
                payment::settle(&bid_net, k, inputs, s).payment
            })
            .collect()
    }
}

/// Detection rule: who notices `P_k` going silent in `phase` (see the
/// module docs).
pub(crate) fn detector_of<T: Topology>(t: &T, k: NodeId, phase: u8) -> NodeId {
    match phase {
        1 => t.parent(k),
        2 => t.first_child(k).unwrap_or(0),
        _ => 0,
    }
}

/// Receiver of `P_v`'s outbound message in `phase` — `None` when the node
/// sends nothing in that phase (a terminal node in Phases II–III).
fn receiver_of<T: Topology>(t: &T, v: NodeId, phase: u8) -> Option<NodeId> {
    match phase {
        1 => Some(t.parent(v)),
        2 | 3 => t.first_child(v),
        _ => Some(0),
    }
}

/// Record a detection timeout, if the topology keeps a transcript.
fn record_timeout<T: Topology>(t: &mut Transcript, detector: NodeId, suspect: NodeId, phase: u8) {
    if T::TRANSCRIPT {
        t.record(Entry::Timeout {
            detector,
            suspect,
            phase,
        });
    }
}

/// Per-unit-load makespan and absolute load shares of a (possibly
/// root-only) chain. Residual re-solves route through the batch solver
/// core (`dlt::batch::solve_one`), which is bit-identical to the scalar
/// `linear::solve` by construction — E20/E22 report bytes are unchanged.
pub(crate) fn allocation_of(net: &LinearNetwork) -> (f64, Vec<f64>) {
    if net.len() == 1 {
        (net.w(0), vec![1.0])
    } else {
        let sol = dlt::batch::solve_one(net);
        let shares: Vec<f64> = (0..net.len()).map(|i| sol.alloc.alpha(i)).collect();
        (sol.makespan(), shares)
    }
}

/// Map a post-splice index back to the original chain.
pub(crate) fn unsplice(i: usize, dead: NodeId) -> usize {
    if i < dead {
        i
    } else {
        i + 1
    }
}

/// Execute `scenario` under `plan`, recovering from the injected faults.
pub fn run_with_faults(scenario: &Scenario, plan: &FaultPlan) -> Result<FtRunReport, FtError> {
    run(scenario, plan)
}

/// The engine's entry point, for any topology.
pub(crate) fn run<T: Topology>(t: &T, plan: &FaultPlan) -> Result<FtRunReport, FtError> {
    t.validate()?;
    let m = t.num_agents();
    plan.validate(m)?;
    let timeout = plan.detection_timeout;
    let _ft_span = obs::span!("protocol.ft.run", "m" => m, "timeout" => timeout);

    let base = t.base_run()?;
    let queue = plan.detection_order();
    let mut report = recover(t, &base, &queue, timeout)?;
    apply_message_faults(t, &mut report, plan);
    Ok(report)
}

/// Recover from the halting faults in `queue` (already in detection
/// order). Pre-distribution crashes recurse — the survivors re-run the
/// protocol and the remaining queue is recovered inside that re-run;
/// Phase III/IV halts are serialized by
/// [`compute_and_billing_recovery`].
fn recover<T: Topology>(
    t: &T,
    base: &RunReport,
    queue: &[FaultEvent],
    timeout: f64,
) -> Result<FtRunReport, FtError> {
    let n = t.num_agents() + 1;
    let identity_map: Vec<Option<usize>> = (0..n).map(Some).collect();
    match queue.first() {
        None => Ok(healthy_report(base, identity_map)),
        Some(&FaultEvent {
            node: k,
            kind: FaultKind::Crash {
                phase: p @ (1 | 2), ..
            },
        }) => pre_distribution_crash(t, base, k, p, &queue[1..], timeout),
        // detection_order sorts by phase, so everything left is Phase
        // III/IV: crashes at phase 3 or 4, and stalls.
        _ => Ok(compute_and_billing_recovery(
            t,
            base,
            queue,
            timeout,
            identity_map,
        )),
    }
}

/// No halting fault: the base run, wrapped.
pub(crate) fn healthy_report(base: &RunReport, splice_map: Vec<Option<usize>>) -> FtRunReport {
    FtRunReport {
        crashed: Vec::new(),
        stalled: Vec::new(),
        detected: Vec::new(),
        assigned: base.assigned.clone(),
        completed: base.retained.clone(),
        recovered_load: 0.0,
        recovery_assigned: vec![0.0; splice_map.len()],
        makespan: base.makespan,
        base_makespan: base.makespan,
        arbitrations: base.arbitrations.clone(),
        ledger: base.ledger.clone(),
        net_utilities: base.net_utilities.clone(),
        transcript: base.transcript.clone(),
        splice_map,
        events: base.events,
        timeline: base.timeline.clone(),
    }
}

/// Crash in Phase I or II: nothing was distributed; splice and re-run the
/// whole protocol on the survivors — recovering the remaining faults of
/// `rest` *inside* that re-run — then renumber back.
fn pre_distribution_crash<T: Topology>(
    t: &T,
    base: &RunReport,
    k: NodeId,
    phase: u8,
    rest: &[FaultEvent],
    timeout: f64,
) -> Result<FtRunReport, FtError> {
    let m = t.num_agents();
    let n = m + 1;

    let detector = detector_of(t, k, phase);
    let mut transcript = Transcript::new();
    record_timeout::<T>(&mut transcript, detector, k, phase);
    let mut arbitrations = vec![arbitrate_unresponsive(detector, k, false)];
    let mut detected = vec![(detector, k, phase)];

    // Recovery restarts the whole schedule: the virtual clock begins at 0,
    // waits out the detection timeout, then runs the survivor protocol.
    let mut clock = obs::RunClock::new();
    let timeout_span = clock.advance(timeout);
    obs::count!("protocol.ft.detection_timeouts", "phase" => phase);
    obs::hist!("protocol.ft.timeout_wait", timeout, "phase" => phase);
    obs::event!("protocol.ft.splice", vt = clock.now(), "dead" => k, "phase" => phase);
    let mut timeline = obs::PhaseTimeline::new(n);
    timeline.push(
        detector,
        phase,
        obs::TimelineKind::Timeout,
        timeout_span,
        0.0,
    );
    timeline.mark(k, phase, obs::TimelineKind::Splice, timeout_span.1);

    if m == 1 {
        // No strategic survivor: the obedient root computes the whole unit
        // load itself at rate w_0. (`rest` is necessarily empty — the only
        // strategic node is the one that crashed.)
        debug_assert!(rest.is_empty());
        if T::TRANSCRIPT {
            transcript.record(Entry::Recovery {
                dead: k,
                residual: 0.0,
                reassigned: vec![(0, 1.0)],
            });
        }
        let mut assigned = vec![0.0; n];
        assigned[0] = 1.0;
        let root_span = clock.advance(t.root_rate());
        timeline.push(0, 3, obs::TimelineKind::Recovery, root_span, 1.0);
        timeline.makespan = clock.now();
        return Ok(FtRunReport {
            crashed: vec![k],
            stalled: Vec::new(),
            detected,
            completed: assigned.clone(),
            assigned,
            recovered_load: 0.0,
            recovery_assigned: vec![0.0; n],
            makespan: clock.now(),
            base_makespan: base.makespan,
            arbitrations,
            ledger: Ledger::new(),
            net_utilities: vec![0.0],
            transcript,
            splice_map: vec![Some(0), None],
            events: 0,
            timeline,
        });
    }

    let (survivors, cut) = t.without(k);
    // The remaining faults, renumbered to the spliced network, are
    // recovered *inside* the survivor re-run: recovery-during-recovery
    // re-enters the splice path.
    let inner_rest: Vec<FaultEvent> = rest
        .iter()
        .map(|e| FaultEvent {
            node: cut
                .survivor(e.node)
                .expect("remaining faults strike survivors"),
            kind: e.kind,
        })
        .collect();
    let inner_base = survivors.base_run()?;
    let inner = recover(&survivors, &inner_base, &inner_rest, timeout)?;
    obs::event!(
        "protocol.ft.residual_resolve",
        vt = clock.now(),
        "dead" => k,
        "survivors" => inner.assigned.len()
    );
    let recovery_span = clock.advance(inner.makespan);
    // The survivor protocol's Phase III work, shifted past the timeout and
    // renumbered to the original network. A nested recovery's own timeout,
    // splice and recovery spans pass through the same shift.
    for s in &inner.timeline.spans {
        let shifted = (recovery_span.0 + s.start, recovery_span.0 + s.end);
        let node = cut.original(s.node);
        match s.kind {
            obs::TimelineKind::Work if s.phase == 3 => {
                timeline.push(node, 3, obs::TimelineKind::Recovery, shifted, s.load)
            }
            obs::TimelineKind::Work => {}
            kind => timeline.push(node, s.phase, kind, shifted, s.load),
        }
    }
    timeline.makespan = clock.now();

    if T::TRANSCRIPT {
        transcript.record(Entry::Recovery {
            dead: k,
            residual: 0.0,
            reassigned: inner
                .assigned
                .iter()
                .enumerate()
                .map(|(si, &a)| (cut.original(si), a))
                .collect(),
        });
    }
    for e in inner.transcript.entries() {
        transcript.record(e.clone());
    }

    // Renumber everything back to original indices.
    let mut assigned = vec![0.0; n];
    let mut completed = vec![0.0; n];
    let mut recovery_assigned = vec![0.0; n];
    for si in 0..inner.assigned.len() {
        let i = cut.original(si);
        assigned[i] = inner.assigned[si];
        completed[i] = inner.completed[si];
        recovery_assigned[i] = inner.recovery_assigned[si];
    }
    let mut ledger = Ledger::new();
    for e in inner.ledger.entries() {
        ledger.post(cut.original(e.node), e.kind, e.amount, e.phase);
    }
    arbitrations.extend(inner.arbitrations.iter().map(|a| ArbitrationRecord {
        claimant: cut.original(a.claimant),
        accused: cut.original(a.accused),
        ..a.clone()
    }));
    detected.extend(
        inner
            .detected
            .iter()
            .map(|&(d, s, p)| (cut.original(d), cut.original(s), p)),
    );
    let mut net_utilities = vec![0.0; m];
    for sj in 1..=m - 1 {
        net_utilities[cut.original(sj) - 1] = inner.net_utilities[sj - 1];
    }

    let mut crashed = vec![k];
    crashed.extend(inner.crashed.iter().map(|&c| cut.original(c)));
    let stalled: Vec<NodeId> = inner.stalled.iter().map(|&s| cut.original(s)).collect();
    // Compose the outer splice with whatever the inner recovery spliced.
    let splice_map: Vec<Option<usize>> = (0..n)
        .map(|i| cut.survivor(i).and_then(|si| inner.splice_map[si]))
        .collect();

    Ok(FtRunReport {
        crashed,
        stalled,
        detected,
        assigned,
        completed,
        recovered_load: inner.recovered_load,
        recovery_assigned,
        makespan: clock.now(),
        base_makespan: base.makespan,
        arbitrations,
        ledger,
        net_utilities,
        transcript,
        splice_map,
        events: inner.events,
        timeline,
    })
}

/// Serialized recovery of every Phase III halt (crash or stall) followed
/// by the simultaneous settlement of every Phase IV crash.
///
/// Each Phase III halt costs one detection timeout, splices the dead node
/// out of the running bid network, and re-solves its unfinished work on
/// the remaining survivors; the next halt in detection order strikes
/// during that recovery round. Phase IV crashes share a single timeout
/// window — their billing timers fire concurrently — and are arbitrated as
/// a batch.
fn compute_and_billing_recovery<T: Topology>(
    t: &T,
    base: &RunReport,
    queue: &[FaultEvent],
    timeout: f64,
    splice_map: Vec<Option<usize>>,
) -> FtRunReport {
    let m = t.num_agents();
    let n = m + 1;

    let mut transcript = base.transcript.clone();
    let mut arbitrations = base.arbitrations.clone();
    let mut timeline = base.timeline.clone();
    let mut detected = Vec::new();
    let mut crashed = Vec::new();
    let mut stalled = Vec::new();

    // The recovery clock picks up where the fault-free schedule ended.
    let mut clock = obs::RunClock::starting_at(base.makespan);
    let mut completed = base.retained.clone();
    let mut recovery_assigned = vec![0.0; n];
    let mut recovered_load = 0.0;

    // The running spliced *bid* network — recovery allocation is a Phase
    // II re-solve on reported rates — and the original index of each
    // surviving position.
    let mut net = t.bid_network(&base.bids);
    let mut orig_of: Vec<usize> = (0..n).collect();
    // What each node is working on in the current round: `None` is the
    // base Phase III round (work = base.retained); after a splice it is
    // the latest recovery re-allocation, indexed by original node id.
    let mut round_assign: Option<Vec<f64>> = None;

    let phase3: Vec<&FaultEvent> = queue
        .iter()
        .filter(|e| e.kind.halt_phase() == Some(3))
        .collect();
    let phase4: Vec<NodeId> = queue
        .iter()
        .filter(|e| e.kind.halt_phase() == Some(4))
        .map(|e| e.node)
        .collect();
    debug_assert_eq!(phase3.len() + phase4.len(), queue.len());

    for e in &phase3 {
        let k = e.node;
        let (progress, alive) = match e.kind {
            FaultKind::Crash { progress, .. } => (progress, false),
            FaultKind::Stall { progress } => (progress, true),
            _ => unreachable!("phase filter admits only halting faults"),
        };
        // How much of its current round's work the node finished before
        // halting. In the base round that is `progress` of its retained
        // share; in a recovery round, `progress` of its latest recovery
        // assignment (all earlier rounds completed in full).
        let residual = match &round_assign {
            None => {
                let done_k = progress * base.retained[k];
                let residual = base.retained[k] - done_k;
                completed[k] = done_k;
                residual
            }
            Some(assign) => {
                let residual = assign[k] - progress * assign[k];
                completed[k] -= residual;
                recovery_assigned[k] -= residual;
                residual
            }
        };

        let detector = detector_of(t, k, 3);
        record_timeout::<T>(&mut transcript, detector, k, 3);
        arbitrations.push(arbitrate_unresponsive(detector, k, alive));
        detected.push((detector, k, 3));
        if alive {
            stalled.push(k);
        } else {
            crashed.push(k);
        }

        let timeout_span = clock.advance(timeout);
        obs::count!("protocol.ft.detection_timeouts", "phase" => 3u8);
        obs::hist!("protocol.ft.timeout_wait", timeout, "phase" => 3u8);
        obs::event!("protocol.ft.splice", vt = clock.now(), "dead" => k, "phase" => 3u8);

        // Splice the halted node out of the running survivor network and
        // re-solve its unfinished work.
        let si_k = orig_of
            .iter()
            .position(|&o| o == k)
            .expect("halted node is on the survivor network");
        let (spliced, cut) = T::splice(&net, si_k);
        net = spliced;
        cut.compose(&mut orig_of);
        let (per_unit_makespan, shares) = T::allocation(&net);
        obs::event!(
            "protocol.ft.residual_resolve",
            vt = clock.now(),
            "dead" => k,
            "residual" => residual,
            "survivors" => shares.len()
        );

        let mut round = vec![0.0; n];
        for (&orig, &share) in orig_of.iter().zip(&shares) {
            let extra = residual * share;
            recovery_assigned[orig] += extra;
            completed[orig] += extra;
            round[orig] = extra;
        }
        if T::TRANSCRIPT {
            transcript.record(Entry::Recovery {
                dead: k,
                residual,
                reassigned: orig_of.iter().map(|&orig| (orig, round[orig])).collect(),
            });
        }

        let recovery_span = clock.advance(residual * per_unit_makespan);
        timeline.push(detector, 3, obs::TimelineKind::Timeout, timeout_span, 0.0);
        timeline.mark(k, 3, obs::TimelineKind::Splice, recovery_span.0);
        for (orig, &extra) in round.iter().enumerate() {
            if extra > 0.0 {
                timeline.push(orig, 3, obs::TimelineKind::Recovery, recovery_span, extra);
            }
        }
        recovered_load += residual;
        round_assign = Some(round);
    }

    // Phase IV crashes are simultaneous: every billing timer fires within
    // the same timeout window, and the root probes the whole batch.
    if !phase4.is_empty() {
        let timeout_span = clock.advance(timeout);
        let mut probes = Vec::with_capacity(phase4.len());
        for &k in &phase4 {
            let detector = detector_of(t, k, 4);
            record_timeout::<T>(&mut transcript, detector, k, 4);
            detected.push((detector, k, 4));
            crashed.push(k);
            obs::count!("protocol.ft.detection_timeouts", "phase" => 4u8);
            obs::hist!("protocol.ft.timeout_wait", timeout, "phase" => 4u8);
            timeline.push(detector, 4, obs::TimelineKind::Timeout, timeout_span, 0.0);
            probes.push((detector, k, false));
        }
        arbitrations.extend(arbitrate_concurrent_unresponsive(&probes));
    }

    // Rebuild the ledger: every halted node's Phase IV settlement
    // (payment, and any audit outcome of a bill it never submitted) is
    // voided at once, then re-settled — Phase III halts pro rata on what
    // they verifiably completed, Phase IV crashes from the root's own
    // recomputation — and survivors are paid their recovery work at
    // metered cost. Earlier-phase fines and rewards stand.
    let halted: Vec<NodeId> = queue.iter().map(|e| e.node).collect();
    let mut ledger = base.ledger.without_entries_of(&halted, 4);
    let mut pro_rata_of: Vec<Option<PaymentBreakdown>> = vec![None; n];
    for e in &phase3 {
        let k = e.node;
        let pr = payment::pro_rata(completed[k], base.actual_rates[k - 1]);
        ledger.post(k, EntryKind::Payment, pr.payment, 4);
        pro_rata_of[k] = Some(pr);
    }
    if !phase4.is_empty() {
        for (&k, bill) in phase4.iter().zip(t.silent_bills(base, &phase4)) {
            ledger.post(k, EntryKind::Payment, bill, 4);
            if recovery_assigned[k] > 0.0 {
                // A Phase IV casualty that performed recovery work earlier
                // is paid that wage too — it finished it before dying.
                ledger.post(
                    k,
                    EntryKind::Payment,
                    payment::recovery_wage(recovery_assigned[k], base.actual_rates[k - 1]),
                    4,
                );
            }
        }
    }
    for j in 1..=m {
        if !halted.contains(&j) && recovery_assigned[j] > 0.0 {
            ledger.post(
                j,
                EntryKind::Payment,
                payment::recovery_wage(recovery_assigned[j], base.actual_rates[j - 1]),
                4,
            );
        }
    }

    // Net utilities: valuation (recovered from the base report) adjusted
    // for the changed workloads, plus the rebuilt ledger. When nothing
    // halted mid-computation no workload changed, so survivors keep their
    // base utilities verbatim.
    let mut net_utilities;
    if phase3.is_empty() {
        net_utilities = base.net_utilities.clone();
        for &k in &phase4 {
            let valuation = payment::valuation(base.retained[k], base.actual_rates[k - 1]);
            net_utilities[k - 1] = valuation + ledger.net(k);
        }
    } else {
        net_utilities = vec![0.0; m];
        for j in 1..=m {
            let valuation = if let Some(pr) = &pro_rata_of[j] {
                pr.valuation
            } else {
                let base_valuation = if phase4.contains(&j) {
                    payment::valuation(base.retained[j], base.actual_rates[j - 1])
                } else {
                    base.net_utilities[j - 1] - base.ledger.net(j)
                };
                base_valuation - recovery_assigned[j] * base.actual_rates[j - 1]
            };
            net_utilities[j - 1] = valuation + ledger.net(j);
        }
    }

    timeline.makespan = clock.now();
    FtRunReport {
        crashed,
        stalled,
        detected,
        assigned: base.assigned.clone(),
        completed,
        recovered_load,
        recovery_assigned,
        makespan: clock.now(),
        base_makespan: base.makespan,
        arbitrations,
        ledger,
        net_utilities,
        transcript,
        splice_map,
        events: base.events,
        timeline,
    }
}

/// Layer the plan's message faults on top of the halting-fault report:
/// each drop/corruption costs one detection timeout (and files a no-fault
/// timeout complaint that the liveness probe rejects); each delay adds its
/// latency. Messages of halted nodes are skipped — their silence is
/// already the halting faults' story. Corrupted messages never enter the
/// transcript: only the retransmitted, well-signed copy is recorded, so
/// replay cannot incriminate the sender.
pub(crate) fn apply_message_faults<T: Topology>(t: &T, report: &mut FtRunReport, plan: &FaultPlan) {
    // Message-fault overhead accrues on the same clock the halting-fault
    // path ended on.
    let mut clock = obs::RunClock::starting_at(report.makespan);
    for event in plan.message_faults() {
        if report.crashed.contains(&event.node) || report.stalled.contains(&event.node) {
            continue;
        }
        match event.kind {
            FaultKind::DropMessage { phase } | FaultKind::CorruptMessage { phase } => {
                let Some(receiver) = receiver_of(t, event.node, phase) else {
                    continue;
                };
                let wait = clock.advance(plan.detection_timeout);
                obs::count!("protocol.ft.detection_timeouts", "phase" => phase);
                obs::hist!("protocol.ft.timeout_wait", plan.detection_timeout, "phase" => phase);
                report
                    .timeline
                    .push(receiver, phase, obs::TimelineKind::Timeout, wait, 0.0);
                report.makespan = clock.now();
                record_timeout::<T>(&mut report.transcript, receiver, event.node, phase);
                report.detected.push((receiver, event.node, phase));
                report
                    .arbitrations
                    .push(arbitrate_unresponsive(receiver, event.node, true));
            }
            FaultKind::DelayMessage { phase, delay } => {
                if receiver_of(t, event.node, phase).is_some() {
                    clock.advance(delay);
                    report.makespan = clock.now();
                }
            }
            FaultKind::Crash { .. } | FaultKind::Stall { .. } => unreachable!("filtered"),
        }
    }
    report.timeline.makespan = report.makespan;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::Deviation;
    use mechanism::FineSchedule;

    fn scenario() -> Scenario {
        Scenario::honest(1.0, vec![2.0, 0.5, 4.0], vec![0.2, 0.1, 0.7])
    }

    /// Honest chains of 3–8 total nodes with heterogeneous rates.
    fn chains() -> Vec<Scenario> {
        (2..=7usize)
            .map(|m| {
                let true_rates: Vec<f64> =
                    (0..m).map(|j| 0.5 + 0.9 * ((j * 7 % 5) as f64)).collect();
                let link_rates: Vec<f64> =
                    (0..m).map(|j| 0.1 + 0.15 * ((j * 3 % 4) as f64)).collect();
                Scenario::honest(1.0, true_rates, link_rates)
            })
            .collect()
    }

    #[test]
    fn empty_plan_matches_plain_run() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let ft = run_with_faults(&s, &FaultPlan::none()).unwrap();
        assert_eq!(ft.makespan, plain.makespan);
        assert_eq!(ft.net_utilities, plain.net_utilities);
        assert_eq!(ft.completed, plain.retained);
        assert!(ft.crashed.is_empty() && ft.stalled.is_empty());
        assert_eq!(ft.overhead(), 0.0);
    }

    #[test]
    fn any_single_crash_recovers_on_every_chain() {
        // The acceptance sweep: every node, every phase, several progress
        // points, chains of 3–8 nodes — no panic, load conserved, no
        // honest survivor fined.
        for s in chains() {
            let m = s.num_agents();
            for k in 1..=m {
                for phase in 1..=4u8 {
                    for progress in [0.0, 0.37, 1.0] {
                        let plan = FaultPlan::crash(k, phase, progress);
                        let ft = run_with_faults(&s, &plan).unwrap();
                        assert_eq!(ft.crashed, vec![k]);
                        assert!(
                            ft.load_conserved(1e-9),
                            "m={m} k={k} phase={phase} p={progress}: completed {:?}",
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
    }

    #[test]
    fn crash_reports_are_deterministic() {
        for s in chains().into_iter().take(3) {
            for seed in 0..10u64 {
                let plan = FaultPlan::seeded(seed, s.num_agents());
                let a = run_with_faults(&s, &plan).unwrap();
                let b = run_with_faults(&s, &plan).unwrap();
                assert_eq!(a, b, "seed {seed}");
            }
        }
    }

    #[test]
    fn phase3_crash_pays_pro_rata_and_keeps_survivors_whole() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 3, 0.4)).unwrap();
        // The crashed node is made whole for its partial work: utility 0.
        assert!(
            ft.utility(2).abs() < 1e-9,
            "pro-rata utility {}",
            ft.utility(2)
        );
        // It completed exactly 40% of its share.
        assert!((ft.completed[2] - 0.4 * plain.retained[2]).abs() < 1e-12);
        // Survivors' recovery work is compensated at cost: net unchanged.
        for j in [1usize, 3] {
            assert!(
                (ft.utility(j) - plain.utility(j)).abs() < 1e-9,
                "P{j}: {} vs {}",
                ft.utility(j),
                plain.utility(j)
            );
        }
        // The residual was spread over root and survivors.
        assert!((ft.recovered_load - 0.6 * plain.retained[2]).abs() < 1e-12);
        let spread: f64 = ft.recovery_assigned.iter().sum();
        assert!((spread - ft.recovered_load).abs() < 1e-12);
        assert_eq!(
            ft.recovery_assigned[2], 0.0,
            "the dead node gets nothing back"
        );
    }

    #[test]
    fn stall_triggers_recovery_without_conviction() {
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::stall(2, 0.25)).unwrap();
        assert_eq!(ft.stalled, vec![2]);
        assert!(ft.crashed.is_empty());
        assert!(ft.load_conserved(1e-9));
        // The liveness probe finds the stalled node alive: complaint
        // unsubstantiated, but with zero fine for the honest reporter too.
        let timeout_arb = ft
            .arbitrations
            .iter()
            .find(|a| a.complaint == "unresponsive")
            .unwrap();
        assert!(!timeout_arb.substantiated);
        assert_eq!(timeout_arb.fine, 0.0);
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a stall");
        }
    }

    #[test]
    fn early_crash_reallocates_everything_to_survivors() {
        let s = scenario();
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 1, 0.0)).unwrap();
        assert!(ft.load_conserved(1e-9));
        assert_eq!(ft.completed[2], 0.0);
        assert_eq!(ft.splice_map, vec![Some(0), Some(1), None, Some(2)]);
        assert!(
            ft.utility(2).abs() < 1e-15,
            "a node that never started earns nothing"
        );
        // The survivor chain's allocation matches solving the spliced
        // true-rate network directly.
        let spliced = linear::splice(
            &LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]),
            2,
        );
        let sol = linear::solve(&spliced);
        assert!((ft.completed[0] - sol.alloc.alpha(0)).abs() < 1e-12);
        assert!((ft.completed[1] - sol.alloc.alpha(1)).abs() < 1e-12);
        assert!((ft.completed[3] - sol.alloc.alpha(2)).abs() < 1e-12);
    }

    #[test]
    fn terminal_node_crash_truncates_the_chain() {
        let s = scenario();
        for phase in 1..=4u8 {
            let ft = run_with_faults(&s, &FaultPlan::crash(3, phase, 0.5)).unwrap();
            assert!(ft.load_conserved(1e-9), "phase {phase}");
            for j in 1..=3 {
                assert!(ft.fines_paid(j) <= 1e-12);
            }
        }
    }

    #[test]
    fn single_agent_crash_leaves_the_root_to_compute_alone() {
        let s = Scenario::honest(1.0, vec![1.0], vec![1.0]);
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 1, 0.0)).unwrap();
        assert!(ft.load_conserved(1e-12));
        assert_eq!(ft.completed[0], 1.0);
        assert!((ft.makespan - (FaultPlan::DEFAULT_TIMEOUT + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn phase4_crash_settles_from_the_roots_recomputation() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let ft = run_with_faults(&s, &FaultPlan::crash(1, 4, 0.0)).unwrap();
        // All work was done; the honest node is settled exactly as if it
        // had billed, so its utility survives its crash.
        assert!((ft.utility(1) - plain.utility(1)).abs() < 1e-9);
        assert!((ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12);
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn phase4_crash_voids_an_overcharged_bill_without_the_audit_fine() {
        // An overcharger that crashes before billing never submits the
        // inflated bill: the root settles honestly, no fine, no profit.
        let s = scenario()
            .with_fine(FineSchedule::new(15.0, 1.0))
            .with_deviation(2, Deviation::Overcharge { amount: 0.5 });
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 4, 0.0)).unwrap();
        assert_eq!(ft.fines_paid(2), 0.0, "no bill, no overcharge, no fine");
        let honest = run_with_faults(&scenario(), &FaultPlan::crash(2, 4, 0.0)).unwrap();
        assert!(
            (ft.utility(2) - honest.utility(2)).abs() < 1e-9,
            "crash voids the overcharge"
        );
    }

    #[test]
    fn deviant_that_crashes_keeps_its_earlier_fines() {
        // P2 lies in Phase I (wrong equivalent), is convicted in Phase II,
        // then crashes in Phase III: the fine stands, the pro-rata payment
        // only covers its metered cost.
        let s = scenario().with_deviation(2, Deviation::WrongEquivalent { factor: 0.6 });
        let ft = run_with_faults(&s, &FaultPlan::crash(2, 3, 0.5)).unwrap();
        assert!(
            ft.fines_paid(2) > 0.0,
            "the Phase II conviction survives the crash"
        );
        assert!(
            ft.utility(2) < -1e-9,
            "fined deviant nets negative even with pro-rata pay"
        );
        assert!(ft.load_conserved(1e-9));
        // The honest reporter's reward also stands.
        assert!(ft.ledger.net_of(3, EntryKind::Reward) > 0.0);
    }

    #[test]
    fn message_faults_add_overhead_but_never_fines() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let plan = FaultPlan::none()
            .with_event(1, FaultKind::DropMessage { phase: 1 })
            .with_event(2, FaultKind::CorruptMessage { phase: 2 })
            .with_event(
                3,
                FaultKind::DelayMessage {
                    phase: 4,
                    delay: 0.02,
                },
            );
        let ft = run_with_faults(&s, &plan).unwrap();
        let expected = plain.makespan + 2.0 * FaultPlan::DEFAULT_TIMEOUT + 0.02;
        assert!((ft.makespan - expected).abs() < 1e-12);
        assert_eq!(ft.detected.len(), 2, "drop and corruption each time out");
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12, "P{j} fined for a network fault");
            assert!((ft.utility(j) - plain.utility(j)).abs() < 1e-9);
        }
        assert!(ft.load_conserved(1e-9));
    }

    #[test]
    fn corrupted_messages_leave_no_replay_findings() {
        use crate::crypto::Registry;
        use crate::lambda::BlockMint;
        let s = scenario();
        let plan = FaultPlan::none().with_event(2, FaultKind::CorruptMessage { phase: 2 });
        let ft = run_with_faults(&s, &plan).unwrap();
        let registry = Registry::new(4, s.seed);
        let mint = BlockMint::new(s.blocks, s.seed ^ 0x5EED_B10C);
        let findings = crate::transcript::replay(&ft.transcript, &registry, &mint);
        assert!(
            findings.is_empty(),
            "line noise incriminated someone: {findings:?}"
        );
    }

    #[test]
    fn seeded_fault_sweeps_hold_the_invariants() {
        for s in chains() {
            let m = s.num_agents();
            for seed in 0..20u64 {
                let plan = FaultPlan::seeded(seed, m);
                let ft = run_with_faults(&s, &plan).unwrap();
                assert!(ft.load_conserved(1e-9), "m={m} seed={seed} plan {plan:?}");
                for j in 1..=m {
                    assert!(
                        ft.fines_paid(j) <= 1e-12,
                        "m={m} seed={seed}: honest P{j} fined under {plan:?}"
                    );
                }
            }
        }
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
    }

    // ---- cascading and simultaneous failures ----

    #[test]
    fn two_simultaneous_phase1_crashes_splice_twice() {
        let s = Scenario::honest(1.0, vec![2.0, 0.5, 4.0, 1.5], vec![0.2, 0.1, 0.7, 0.3]);
        let plan = FaultPlan::crash(2, 1, 0.0).with_event(
            3,
            FaultKind::Crash {
                phase: 1,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![2, 3]);
        assert!(ft.load_conserved(1e-9));
        assert_eq!(
            ft.splice_map,
            vec![Some(0), Some(1), None, None, Some(2)],
            "both dead nodes cut, survivors renumbered through both splices"
        );
        assert_eq!(ft.completed[2], 0.0);
        assert_eq!(ft.completed[3], 0.0);
        for j in 1..=4 {
            assert!(ft.fines_paid(j) <= 1e-12, "honest P{j} fined");
        }
        // The doubly-spliced true-rate chain solved directly matches.
        let once = linear::splice(
            &LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0, 1.5], &[0.2, 0.1, 0.7, 0.3]),
            2,
        );
        let twice = linear::splice(&once, 2);
        let sol = linear::solve(&twice);
        assert!((ft.completed[0] - sol.alloc.alpha(0)).abs() < 1e-12);
        assert!((ft.completed[1] - sol.alloc.alpha(1)).abs() < 1e-12);
        assert!((ft.completed[4] - sol.alloc.alpha(2)).abs() < 1e-12);
    }

    #[test]
    fn crash_during_recovery_settles_on_the_recovery_fraction() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let plan = FaultPlan::crash(2, 3, 0.5).with_event(
            3,
            FaultKind::Crash {
                phase: 3,
                progress: 0.25,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![2, 3]);
        assert!(ft.load_conserved(1e-9));
        // P3 finished its whole base share plus a quarter of its recovery
        // assignment before dying.
        assert!(
            ft.completed[3] >= plain.retained[3] - 1e-12,
            "the base share was finished before the recovery round"
        );
        // Both casualties are honest: pro-rata settlement is
        // utility-neutral for them.
        assert!(ft.utility(2).abs() < 1e-9, "P2 utility {}", ft.utility(2));
        assert!(ft.utility(3).abs() < 1e-9, "P3 utility {}", ft.utility(3));
        // The pro-rata payment covers exactly what P3 completed — base
        // share plus the recovery fraction, not its original assignment.
        assert!(
            (ft.ledger.net_of(3, EntryKind::Payment) - ft.completed[3] * plain.actual_rates[2])
                .abs()
                < 1e-9
        );
        // Two recovery rounds: two splice marks and two recovery entries.
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 2);
        assert_eq!(ft.detected.len(), 2);
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12, "honest P{j} fined");
        }
    }

    #[test]
    fn all_strategic_nodes_crashing_leaves_the_root_alone() {
        let s = scenario();
        let plan = FaultPlan::crash(1, 3, 0.5)
            .with_event(
                2,
                FaultKind::Crash {
                    phase: 3,
                    progress: 0.5,
                },
            )
            .with_event(
                3,
                FaultKind::Crash {
                    phase: 3,
                    progress: 0.5,
                },
            );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 2, 3]);
        assert!(
            ft.load_conserved(1e-9),
            "the root absorbs the final residual: {:?}",
            ft.completed
        );
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12);
            assert!(ft.utility(j).abs() < 1e-9, "P{j} settled pro rata");
        }
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 3);
    }

    #[test]
    fn simultaneous_phase4_crashes_share_one_timeout() {
        let s = scenario();
        let plain = try_run(&s).unwrap();
        let plan = FaultPlan::crash(1, 4, 0.0).with_event(
            3,
            FaultKind::Crash {
                phase: 4,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 3]);
        assert!(
            (ft.makespan - plain.makespan - FaultPlan::DEFAULT_TIMEOUT).abs() < 1e-12,
            "billing timers fire concurrently: one timeout, not two"
        );
        // Both are settled as if they had billed.
        assert!((ft.utility(1) - plain.utility(1)).abs() < 1e-9);
        assert!((ft.utility(3) - plain.utility(3)).abs() < 1e-9);
        assert!(ft.load_conserved(1e-9));
        assert_eq!(
            ft.arbitrations
                .iter()
                .filter(|a| a.complaint == "unresponsive" && a.substantiated)
                .count(),
            2,
            "both probes resolved in the concurrent batch"
        );
    }

    #[test]
    fn stall_then_phase4_crash_mixes_probe_outcomes() {
        let s = scenario();
        let plan = FaultPlan::stall(1, 0.3).with_event(
            3,
            FaultKind::Crash {
                phase: 4,
                progress: 0.0,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.stalled, vec![1]);
        assert_eq!(ft.crashed, vec![3]);
        assert!(ft.load_conserved(1e-9));
        let outcomes: Vec<bool> = ft
            .arbitrations
            .iter()
            .filter(|a| a.complaint == "unresponsive")
            .map(|a| a.substantiated)
            .collect();
        assert_eq!(
            outcomes,
            vec![false, true],
            "the stalled node answers its probe; the crashed one does not"
        );
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12);
        }
    }

    #[test]
    fn early_crash_followed_by_mid_computation_crash_composes_splices() {
        // P1 dies before distribution; P3 dies during the survivor re-run's
        // computation. Recovery-during-recovery re-enters the splice path.
        let s = scenario();
        let plan = FaultPlan::crash(1, 1, 0.0).with_event(
            3,
            FaultKind::Crash {
                phase: 3,
                progress: 0.4,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert_eq!(ft.crashed, vec![1, 3]);
        assert_eq!(
            ft.splice_map,
            vec![Some(0), None, Some(1), Some(2)],
            "the outer splice composes with the inner identity"
        );
        assert!(ft.load_conserved(1e-9));
        assert!(
            ft.recovered_load > 0.0,
            "the inner Phase III crash re-assigned a residual"
        );
        assert!(
            ft.utility(3).abs() < 1e-9,
            "inner casualty settled pro rata"
        );
        for j in 1..=3 {
            assert!(ft.fines_paid(j) <= 1e-12);
        }
        // The nested recovery's timeout and splice made it into the outer
        // timeline.
        assert_eq!(ft.timeline.of(obs::TimelineKind::Splice).count(), 2);
        assert_eq!(ft.timeline.of(obs::TimelineKind::Timeout).count(), 2);
    }

    #[test]
    fn deviant_in_a_cascade_keeps_its_fines() {
        let s = scenario().with_deviation(2, Deviation::WrongEquivalent { factor: 0.6 });
        let plan = FaultPlan::crash(2, 3, 0.5).with_event(
            1,
            FaultKind::Crash {
                phase: 3,
                progress: 0.5,
            },
        );
        let ft = run_with_faults(&s, &plan).unwrap();
        assert!(
            ft.fines_paid(2) > 0.0,
            "the Phase II conviction survives the cascade"
        );
        assert!(ft.load_conserved(1e-9));
        assert!(ft.fines_paid(3) <= 1e-12, "honest survivor not fined");
        assert!(ft.fines_paid(1) <= 1e-12, "honest casualty not fined");
    }

    #[test]
    fn seeded_multi_fault_sweeps_hold_the_invariants() {
        for s in chains() {
            let m = s.num_agents();
            for seed in 0..20u64 {
                let plan = FaultPlan::seeded_multi(seed, m, 3);
                let ft = run_with_faults(&s, &plan).unwrap();
                assert!(ft.load_conserved(1e-9), "m={m} seed={seed} plan {plan:?}");
                for j in 1..=m {
                    assert!(
                        ft.fines_paid(j) <= 1e-12,
                        "m={m} seed={seed}: honest P{j} fined under {plan:?}"
                    );
                }
                let again = run_with_faults(&s, &plan).unwrap();
                assert_eq!(ft, again, "m={m} seed={seed}: replay diverged");
            }
        }
    }
}
