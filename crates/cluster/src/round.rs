//! The transport-independent round model.
//!
//! One proof-preparation round (§1.3 step 1 of the paper): `K` nodes
//! each evaluate their contiguous slice of the evaluation points for
//! every polynomial in the round, transform the truthful symbols through
//! their [`FaultKind`](crate::FaultKind) sender-side, and broadcast the
//! resulting *frames*. A [`Transport`](crate::Transport) backend only
//! moves frames; the logic that computes them ([`compute_node_frames`])
//! and reassembles the per-receiver views ([`assemble_round`]) lives
//! here, shared by every backend — including the out-of-process
//! `camelot-node` worker.

use crate::chaos::Demotion;
use crate::fault::{
    adversarial_symbol, corrupt_symbol, equivocated_symbol, fault_lane, FaultKind, FaultPlan,
};
use crate::transport::{frame_wire_cost, EvalProgram, PreparedProgram};
use camelot_ff::PrimeField;
use std::time::{Duration, Instant};

/// The node-side computation of one round: `width` polynomials, each
/// evaluable at any point of `Z_q`. A batched engine round carries one
/// polynomial per problem; a plain round has `width() == 1`.
pub trait RoundEval: Sync {
    /// Number of polynomials evaluated in the round.
    fn width(&self) -> usize;

    /// `P_poly(x) mod q`.
    fn eval(&self, poly: usize, x: u64) -> u64;

    /// `P_poly` at each of `points`, in order: one node's slice. The
    /// default evaluates point by point.
    fn eval_points(&self, poly: usize, points: &[u64]) -> Vec<u64> {
        points.iter().map(|&x| self.eval(poly, x)).collect()
    }

    /// Wire-expressible programs for process-spanning transports, when
    /// the polynomials can be described on the wire (one per polynomial,
    /// in round order). `None` — the default — restricts the round to
    /// in-process backends.
    fn programs(&self) -> Option<Vec<EvalProgram>> {
        None
    }
}

/// A single closure as a width-1 round.
pub struct SingleEval<F>(pub F);

impl<F: Fn(u64) -> u64 + Sync> RoundEval for SingleEval<F> {
    fn width(&self) -> usize {
        1
    }

    fn eval(&self, _poly: usize, x: u64) -> u64 {
        (self.0)(x)
    }
}

/// Wire-expressible programs as a round (usable on every backend,
/// including process-spanning ones).
pub struct ProgramEval {
    /// As given: what [`RoundEval::programs`] ships, byte for byte.
    programs: Vec<EvalProgram>,
    /// The same programs with their constants reduced once, for `eval`
    /// and `eval_points`.
    prepared: Vec<PreparedProgram>,
}

impl ProgramEval {
    /// A round evaluating the given programs over `field`.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    #[must_use]
    pub fn new(field: &PrimeField, programs: Vec<EvalProgram>) -> Self {
        assert!(!programs.is_empty(), "a round needs at least one polynomial");
        let prepared = programs.iter().map(|p| p.prepare(field)).collect();
        ProgramEval { programs, prepared }
    }
}

impl RoundEval for ProgramEval {
    fn width(&self) -> usize {
        self.programs.len()
    }

    fn eval(&self, poly: usize, x: u64) -> u64 {
        self.prepared[poly].eval(x)
    }

    fn eval_points(&self, poly: usize, points: &[u64]) -> Vec<u64> {
        self.prepared[poly].eval_slice(points)
    }

    fn programs(&self) -> Option<Vec<EvalProgram>> {
        Some(self.programs.clone())
    }
}

/// Everything a round shares besides the polynomials: the field, the
/// evaluation points (common to all polynomials), and the fault plan.
#[derive(Clone, Copy, Debug)]
pub struct RoundSpec<'a> {
    /// The prime field of the round.
    pub field: &'a PrimeField,
    /// The evaluation points, identical at every node (derived from the
    /// common input).
    pub points: &'a [u64],
    /// Behaviour assignment for the `K` nodes.
    pub plan: &'a FaultPlan,
}

/// Work accounting for one node.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Number of polynomial evaluations this node performed.
    pub evaluations: usize,
    /// Wall-clock time the node spent evaluating.
    pub elapsed: Duration,
}

/// The symbols a node puts on the transport, covering its own point
/// slice across all `width` polynomials, point-major
/// (`body[(j - lo) * width + poly]`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameBody {
    /// The same frame reaches every receiver (honest, crashed, corrupt,
    /// and adversarial senders). `None` entries are erasures — the
    /// explicit marker the simulation uses for a crashed sender.
    Uniform(Vec<Option<u64>>),
    /// An equivocating sender: the truthful symbols it computed (`base`,
    /// diagnostic — no receiver ever sees it) plus one distinct frame
    /// per receiver.
    PerReceiver {
        /// The symbols the node actually computed before lying.
        base: Vec<Option<u64>>,
        /// `per_receiver[r]` is the frame unicast to receiver `r`.
        per_receiver: Vec<Vec<Option<u64>>>,
    },
}

/// One node's complete contribution to a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeFrames {
    /// The sending node.
    pub node: usize,
    /// Evaluations the node performed (its slice length × round width).
    pub evaluations: usize,
    /// Wall-clock evaluation time at the node.
    pub elapsed: Duration,
    /// The broadcast payload.
    pub body: FrameBody,
}

/// Balanced contiguous slice of node `node`: `[lo, hi)` over
/// `num_points` points and `nodes` nodes (sizes differ by at most one —
/// the intrinsic workload balance of §1.4 of the paper).
#[must_use]
pub fn node_slice(num_points: usize, nodes: usize, node: usize) -> (usize, usize) {
    (node * num_points / nodes, (node + 1) * num_points / nodes)
}

/// Balanced contiguous workload assignment: node `i` owns points
/// `[i·e/K, (i+1)·e/K)`.
#[must_use]
pub fn assign_points(num_points: usize, nodes: usize) -> Vec<usize> {
    let mut owners = Vec::with_capacity(num_points);
    for node in 0..nodes {
        let (lo, hi) = node_slice(num_points, nodes, node);
        owners.extend(std::iter::repeat_n(node, hi - lo));
    }
    owners
}

/// What one node does in a round: evaluate its slice (`points[lo..hi]`
/// of the global point list, `lo` being the global index of the first)
/// with one [`RoundEval::eval_points`] call per polynomial — a
/// [`ProgramEval`] runs its programs there, by transform on an orbit
/// slice — then transform the truthful symbols through its fault
/// behaviour into the frames it broadcasts. Pure given its inputs —
/// every backend and the out-of-process worker produce identical frames.
#[must_use]
pub fn compute_node_frames(
    field: &PrimeField,
    kind: FaultKind,
    nodes: usize,
    node: usize,
    lo: usize,
    points: &[u64],
    eval: &dyn RoundEval,
) -> NodeFrames {
    let width = eval.width();
    let start = Instant::now();
    let mut truth = vec![0; points.len() * width];
    for poly in 0..width {
        let values = eval.eval_points(poly, points);
        debug_assert_eq!(values.len(), points.len(), "one value per point");
        for (slot, value) in truth.iter_mut().skip(poly).step_by(width).zip(values) {
            *slot = value;
        }
    }
    let elapsed = start.elapsed();
    let evaluations = truth.len();

    let body = match kind {
        FaultKind::Honest => FrameBody::Uniform(truth.into_iter().map(Some).collect()),
        FaultKind::Crash => FrameBody::Uniform(vec![None; evaluations]),
        FaultKind::Corrupt { seed } => FrameBody::Uniform(
            truth
                .iter()
                .enumerate()
                .map(|(k, &t)| {
                    let lane = fault_lane(lo + k / width, k % width);
                    Some(corrupt_symbol(field, seed, lane, t))
                })
                .collect(),
        ),
        FaultKind::Adversarial { offset } => FrameBody::Uniform(
            truth.iter().map(|&t| Some(adversarial_symbol(field, offset, t))).collect(),
        ),
        FaultKind::Equivocate { seed } => {
            let per_receiver = (0..nodes)
                .map(|receiver| {
                    truth
                        .iter()
                        .enumerate()
                        .map(|(k, &t)| {
                            let lane = fault_lane(lo + k / width, k % width);
                            Some(equivocated_symbol(field, seed, receiver, lane, t))
                        })
                        .collect()
                })
                .collect();
            FrameBody::PerReceiver { base: truth.into_iter().map(Some).collect(), per_receiver }
        }
    };
    NodeFrames { node, evaluations, elapsed, body }
}

/// The frames the round assembly books for a node that was *demoted*
/// to crash (transport failure or injected chaos): indistinguishable
/// from an algebraic [`FaultKind::Crash`] — full erasure over the
/// node's slice, with the evaluation count the slice would have had
/// (the shared work accounting stays identical across backends) and
/// zero wall clock (nothing arrived to measure).
#[must_use]
pub(crate) fn crash_frames(
    num_points: usize,
    nodes: usize,
    node: usize,
    width: usize,
) -> NodeFrames {
    let (lo, hi) = node_slice(num_points, nodes, node);
    let evaluations = (hi - lo) * width;
    NodeFrames {
        node,
        evaluations,
        elapsed: Duration::ZERO,
        body: FrameBody::Uniform(vec![None; evaluations]),
    }
}

/// Communication accounting for one round, identical across backends:
/// computed from the frames' content in the v1 frame encoding (the
/// socket backend literally ships that encoding).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTraffic {
    /// Symbol messages put on the medium: a uniform sender broadcasts
    /// each of its symbols once, an equivocator unicasts every symbol to
    /// each of the `K` receivers, and a crashed sender contributes
    /// nothing (its explicit erasure frame is simulation bookkeeping).
    pub symbols_broadcast: usize,
    /// Bytes those payload frame lines occupy in the line-oriented v1
    /// frame encoding (a traffic model, identical on every backend;
    /// protocol headers and bookkeeping lines are excluded).
    pub bytes_on_wire: u64,
}

/// The outcome of one proof-preparation round as seen by polynomial
/// `poly` of the round: the consensus word, plus sparse per-receiver
/// patches for equivocated indices.
#[derive(Clone, Debug)]
pub struct Broadcast {
    /// Symbol per evaluation point; `None` where the owning node
    /// crashed. Indices owned by an equivocator hold the sender-computed
    /// (truthful) symbol — diagnostic only; receivers see their patched
    /// [`Broadcast::view_for`] instead.
    pub symbols: Vec<Option<u64>>,
    /// Owning node of each evaluation point.
    pub assignment: Vec<usize>,
    /// Per-node statistics (this polynomial's share of the round).
    pub stats: Vec<NodeStats>,
    plan: FaultPlan,
    /// Sparse per-receiver patches: `(global index, value per receiver)`
    /// for every index owned by an equivocating node.
    patches: Vec<(usize, Vec<Option<u64>>)>,
}

impl Broadcast {
    /// The word as received by a particular node: the consensus word
    /// with only the equivocated indices patched (each equivocated index
    /// carries one stored value per receiver — `O(e + #equivocated)` per
    /// view, not a per-index fault-plan walk).
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is not a node of the round.
    #[must_use]
    pub fn view_for(&self, receiver: usize) -> Vec<Option<u64>> {
        assert!(receiver < self.plan.nodes(), "receiver {receiver} is not in the cluster");
        let mut word = self.symbols.clone();
        for &(idx, ref values) in &self.patches {
            word[idx] = values[receiver];
        }
        word
    }

    /// The fault plan used for the round.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total evaluations across all nodes (this polynomial's share).
    #[must_use]
    pub fn total_evaluations(&self) -> usize {
        self.stats.iter().map(|s| s.evaluations).sum()
    }

    /// Maximum per-node evaluation count (the wall-clock-critical node).
    #[must_use]
    pub fn max_node_evaluations(&self) -> usize {
        self.stats.iter().map(|s| s.evaluations).max().unwrap_or(0)
    }

    /// True when `other` is observationally identical: same consensus
    /// word, assignment, and per-receiver views (stats — wall-clock —
    /// excluded). The cross-backend bit-identity criterion.
    #[must_use]
    pub fn same_word(&self, other: &Broadcast) -> bool {
        self.symbols == other.symbols
            && self.assignment == other.assignment
            && self.plan == other.plan
            && self.patches == other.patches
    }
}

/// One round's assembled result: one [`Broadcast`] per polynomial plus
/// the communication accounting.
#[derive(Clone, Debug)]
pub struct RoundOutcome {
    /// Per-polynomial broadcasts, in round order.
    pub broadcasts: Vec<Broadcast>,
    /// Communication accounting for the whole round.
    pub traffic: RoundTraffic,
    /// Nodes demoted to crash by the transport this round (dead or
    /// chaos-afflicted remotes), with their structured causes — sorted
    /// by node, at most one entry per node, identical across backends.
    pub demotions: Vec<Demotion>,
}

/// Reassembles the per-node frames of one round into per-polynomial
/// broadcasts — the receiver side every backend shares. `frames` may
/// arrive in any order; there must be exactly one per node. `demotions`
/// lists nodes the transport demoted to crash: their (synthesized)
/// frames are booked at a crashed sender's wire cost — nothing usable
/// reached the medium.
///
/// # Panics
///
/// Panics if a node's frames are missing, duplicated, or mis-sized.
#[must_use]
pub fn assemble_round(
    spec: &RoundSpec<'_>,
    width: usize,
    frames: Vec<NodeFrames>,
    mut demotions: Vec<Demotion>,
) -> RoundOutcome {
    demotions.sort();
    demotions.dedup_by_key(|d| d.node);
    let nodes = spec.plan.nodes();
    let e = spec.points.len();
    let mut by_node: Vec<Option<NodeFrames>> = (0..nodes).map(|_| None).collect();
    for frame in frames {
        assert!(frame.node < nodes, "frame from nonexistent node {}", frame.node);
        assert!(by_node[frame.node].is_none(), "duplicate frames from node {}", frame.node);
        let node = frame.node;
        by_node[node] = Some(frame);
    }

    let assignment = assign_points(e, nodes);
    let mut traffic = RoundTraffic::default();
    let mut broadcasts: Vec<Broadcast> = (0..width)
        .map(|_| Broadcast {
            symbols: vec![None; e],
            assignment: assignment.clone(),
            stats: vec![NodeStats::default(); nodes],
            plan: spec.plan.clone(),
            patches: Vec::new(),
        })
        .collect();

    for (node, slot) in by_node.iter_mut().enumerate() {
        let frame = slot.take().unwrap_or_else(|| panic!("no frames from node {node}"));
        let (lo, hi) = node_slice(e, nodes, node);
        let slice_len = hi - lo;
        assert_eq!(frame.evaluations, slice_len * width, "mis-sized frames from node {node}");
        let kind = if demotions.iter().any(|d| d.node == node) {
            FaultKind::Crash
        } else {
            spec.plan.kind(node)
        };
        let (symbols, bytes) = frame_wire_cost(kind, &frame.body);
        traffic.symbols_broadcast += symbols;
        traffic.bytes_on_wire += bytes;

        let (base, per_receiver) = match &frame.body {
            FrameBody::Uniform(symbols) => (symbols, None),
            FrameBody::PerReceiver { base, per_receiver } => (base, Some(per_receiver)),
        };
        assert_eq!(base.len(), slice_len * width, "mis-sized frame body from node {node}");
        for (p, broadcast) in broadcasts.iter_mut().enumerate() {
            // Each polynomial gets its exact share of the node's work;
            // wall-clock is attributed evenly across the round's
            // polynomials.
            broadcast.stats[node].evaluations = slice_len;
            broadcast.stats[node].elapsed = frame.elapsed / width as u32;
            for j in 0..slice_len {
                broadcast.symbols[lo + j] = base[j * width + p];
            }
            if let Some(receivers) = per_receiver {
                for j in 0..slice_len {
                    let values = receivers.iter().map(|frame| frame[j * width + p]).collect();
                    broadcast.patches.push((lo + j, values));
                }
            }
        }
    }
    RoundOutcome { broadcasts, traffic, demotions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcess, Transport};

    fn field() -> PrimeField {
        PrimeField::new(1_000_003).unwrap()
    }

    /// A width-1 closure round on the in-process bus.
    fn run_round(
        f: &PrimeField,
        points: &[u64],
        plan: &FaultPlan,
        eval: impl Fn(u64) -> u64 + Sync,
    ) -> Broadcast {
        let spec = RoundSpec { field: f, points, plan };
        let mut outcome = InProcess::new().run(&spec, &SingleEval(eval)).unwrap();
        outcome.broadcasts.remove(0)
    }

    /// The indices of node `node`'s slice of an `e`-point round.
    fn owned(e: usize, nodes: usize, node: usize) -> std::ops::Range<usize> {
        let (lo, hi) = node_slice(e, nodes, node);
        lo..hi
    }

    #[test]
    fn assignment_is_balanced_and_complete() {
        for (e, k) in [(10usize, 3usize), (7, 7), (100, 9), (5, 8)] {
            let owners = assign_points(e, k);
            assert_eq!(owners.len(), e);
            let mut counts = vec![0usize; k];
            for &o in &owners {
                counts[o] += 1;
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "e={e} k={k}: counts {counts:?}");
            // Contiguity: owners must be non-decreasing.
            assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn honest_round_reproduces_evaluations() {
        let f = field();
        let points: Vec<u64> = (0..20).collect();
        let plan = FaultPlan::all_honest(4);
        let b = run_round(&f, &points, &plan, |x| f.mul(x, x));
        for (i, s) in b.symbols.iter().enumerate() {
            assert_eq!(*s, Some(f.mul(i as u64, i as u64)));
        }
        assert_eq!(b.total_evaluations(), 20);
        assert_eq!(b.max_node_evaluations(), 5);
    }

    /// The bus, at whatever thread budget the process runs, equals each
    /// node's frames computed in node order on this thread.
    #[test]
    fn parallel_matches_sequential() {
        let f = field();
        let points: Vec<u64> = (0..33).collect();
        let plan = FaultPlan::with_faults(
            5,
            &[(1, FaultKind::Corrupt { seed: 3 }), (3, FaultKind::Equivocate { seed: 4 })],
        );
        let spec = RoundSpec { field: &f, points: &points, plan: &plan };
        let eval = SingleEval(|x| f.pow(x, 3));
        let frames = (0..5)
            .map(|node| {
                let (lo, hi) = node_slice(points.len(), 5, node);
                compute_node_frames(&f, plan.kind(node), 5, node, lo, &points[lo..hi], &eval)
            })
            .collect();
        let want = assemble_round(&spec, 1, frames, Vec::new());
        let got = InProcess::new().run(&spec, &eval).unwrap();
        assert!(got.broadcasts[0].same_word(&want.broadcasts[0]));
        assert_eq!(got.traffic, want.traffic);
    }

    #[test]
    fn crash_erases_exactly_the_owned_slice() {
        let f = field();
        let points: Vec<u64> = (0..12).collect();
        let plan = FaultPlan::with_faults(3, &[(1, FaultKind::Crash)]);
        let b = run_round(&f, &points, &plan, |x| x);
        for (i, s) in b.symbols.iter().enumerate() {
            if b.assignment[i] == 1 {
                assert_eq!(*s, None);
            } else {
                assert_eq!(*s, Some(i as u64));
            }
        }
        assert_eq!(owned(12, 3, 1), 4..8);
    }

    #[test]
    fn corrupt_changes_every_owned_symbol() {
        let f = field();
        let points: Vec<u64> = (0..9).collect();
        let plan = FaultPlan::with_faults(3, &[(2, FaultKind::Corrupt { seed: 7 })]);
        let b = run_round(&f, &points, &plan, |x| x);
        for idx in owned(9, 3, 2) {
            assert_ne!(b.symbols[idx], Some(idx as u64), "symbol {idx} must be wrong");
            assert!(b.symbols[idx].is_some());
        }
        for idx in owned(9, 3, 0).chain(owned(9, 3, 1)) {
            assert_eq!(b.symbols[idx], Some(idx as u64));
        }
    }

    #[test]
    fn adversarial_offset_never_zero() {
        let f = field();
        let points: Vec<u64> = (0..6).collect();
        for offset in [0u64, 1, 999_999, u64::MAX] {
            let plan = FaultPlan::with_faults(2, &[(0, FaultKind::Adversarial { offset })]);
            let b = run_round(&f, &points, &plan, |x| x);
            for idx in owned(6, 2, 0) {
                assert_ne!(b.symbols[idx], Some(idx as u64), "offset {offset}");
            }
        }
    }

    #[test]
    fn equivocation_gives_receivers_different_words() {
        let f = field();
        let points: Vec<u64> = (0..10).collect();
        let plan = FaultPlan::with_faults(5, &[(2, FaultKind::Equivocate { seed: 3 })]);
        let b = run_round(&f, &points, &plan, |x| x);
        let v0 = b.view_for(0);
        let v1 = b.view_for(1);
        let equivocated = owned(10, 5, 2);
        assert!(equivocated.clone().any(|i| v0[i] != v1[i]), "receivers must disagree");
        // Non-equivocated symbols agree everywhere.
        for i in 0..10 {
            if !equivocated.contains(&i) {
                assert_eq!(v0[i], v1[i]);
                assert_eq!(v0[i], Some(i as u64));
            } else {
                assert_ne!(v0[i], Some(i as u64), "equivocated symbol is wrong in every view");
            }
        }
    }

    #[test]
    fn stats_track_work() {
        let f = field();
        let points: Vec<u64> = (0..10).collect();
        let plan = FaultPlan::all_honest(3);
        let b = run_round(&f, &points, &plan, |x| x);
        let evals: Vec<usize> = b.stats.iter().map(|s| s.evaluations).collect();
        assert_eq!(evals, vec![3, 3, 4]);
    }

    /// A width-2 round splits into two broadcasts that each equal the
    /// corresponding width-1 round, fault streams included (polynomial 0
    /// reproduces the historical single-polynomial stream exactly).
    #[test]
    fn multi_polynomial_round_splits_into_identical_broadcasts() {
        let f = field();
        let points: Vec<u64> = (0..24).collect();
        let plan = FaultPlan::with_faults(
            6,
            &[
                (0, FaultKind::Crash),
                (2, FaultKind::Corrupt { seed: 5 }),
                (4, FaultKind::Equivocate { seed: 9 }),
            ],
        );
        let spec = RoundSpec { field: &f, points: &points, plan: &plan };
        struct Two(PrimeField);
        impl RoundEval for Two {
            fn width(&self) -> usize {
                2
            }
            fn eval(&self, poly: usize, x: u64) -> u64 {
                if poly == 0 {
                    self.0.mul(x, x)
                } else {
                    self.0.add(x, 17)
                }
            }
        }
        let round = InProcess::new().run(&spec, &Two(f)).unwrap();
        assert_eq!(round.broadcasts.len(), 2);

        let solo0 = run_round(&f, &points, &plan, |x| f.mul(x, x));
        let b0 = &round.broadcasts[0];
        assert!(b0.same_word(&solo0), "polynomial 0 must reproduce the width-1 round");
        for r in 0..6 {
            assert_eq!(b0.view_for(r), solo0.view_for(r));
        }
        // Polynomial 1 carries its own (different) fault stream but the
        // same erasure pattern and truthful symbols where honest.
        let b1 = &round.broadcasts[1];
        for (i, (&point, &symbol)) in points.iter().zip(&b1.symbols).enumerate() {
            match plan.kind(b1.assignment[i]) {
                FaultKind::Crash => assert_eq!(symbol, None),
                FaultKind::Honest | FaultKind::Equivocate { .. } => {
                    assert_eq!(symbol, Some(f.add(point, 17)));
                }
                _ => assert_ne!(symbol, Some(f.add(point, 17))),
            }
        }
        // Per-problem work attribution: each polynomial counts e evals.
        assert_eq!(b0.total_evaluations(), 24);
        assert_eq!(b1.total_evaluations(), 24);
    }

    #[test]
    fn traffic_counts_broadcast_and_unicast_symbols() {
        let f = field();
        let points: Vec<u64> = (0..12).collect();
        // 4 nodes × 3 points: one honest, one crash, one corrupt, one
        // equivocator (K = 4 unicast copies).
        let plan = FaultPlan::with_faults(
            4,
            &[
                (1, FaultKind::Crash),
                (2, FaultKind::Corrupt { seed: 1 }),
                (3, FaultKind::Equivocate { seed: 2 }),
            ],
        );
        let spec = RoundSpec { field: &f, points: &points, plan: &plan };
        let round = InProcess::new().run(&spec, &SingleEval(|x| x)).unwrap();
        // honest 3 + crash 0 + corrupt 3 + equivocate 3·4 = 18.
        assert_eq!(round.traffic.symbols_broadcast, 18);
        assert!(round.traffic.bytes_on_wire > 0);
    }
}
