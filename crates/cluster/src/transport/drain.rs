//! The reply drain of one pool round as a state machine: which replies
//! the round takes, which nodes it demotes and why, which nodes the
//! next round suspects, and when the round is over.
//!
//! It does no I/O and reads no clock, and both backends drive it: the
//! pool's [`WorkerPool::run_round`] hands it each message a lane's reader
//! delivers and says when the round's deadline has passed, and the
//! in-process bus with a chaos plan hands it the same messages at their
//! scripted instants on a virtual clock ([`drive_virtual`], which the
//! tests drive too). It parses and validates every reply itself, so one
//! implementation classifies failures for every backend.
//!
//! # A deadline is spent once
//!
//! The pool keeps one bit per node, *suspect*: "this lane ran out the
//! previous round's deadline". It changes only how long the drain waits
//! for a lane:
//!
//! 1. *When a node becomes a suspect.* Only where the drain demotes its
//!    lane with [`FailureCause::Timeout`]. `Reset`, `Protocol` and
//!    `RespawnExhausted` demotions cost the round no wait and change
//!    nothing. A lane whose reply is taken and validated is trusted
//!    again. A failed fail-fast round, which scraps every lane, clears
//!    every bit, and a pool restarted for another cluster size starts
//!    clean.
//! 2. *What stays as it is.* Everything up to the flush of the last
//!    task: down lanes get their one respawn attempt, suspects still
//!    get their task (a recovered node must be able to rejoin), and the
//!    round's one deadline starts when the last task has been flushed.
//! 3. *The drain.* Every reply is taken as it arrives. A trusted lane
//!    is waited for until the deadline. Once every trusted lane is
//!    resolved and at least one of them delivered, every suspect still
//!    awaited is demoted at once: a suspect is read with what has
//!    arrived by then. Everything that has arrived is taken before the
//!    rule looks, so the order in which same-instant arrivals are handed
//!    over never matters. If no trusted lane delivered (every lane is a
//!    suspect, or every trusted lane failed) the suspects keep the whole
//!    deadline like anyone else: there is nothing to measure them
//!    against, and a round must never demote every node in zero time.
//! 4. *Why it is safe.* A suspect's demotion is an erasure like any
//!    other. A node that recovered but was still slower than every
//!    trusted lane costs its share of the symbols for one more round
//!    and is tried again in the next. Too many erasures is a decode
//!    failure and escalation as ever — never a different answer, and
//!    never a wait past one deadline.
//!
//! So a node that stays silent costs one deadline in the round it goes
//! silent, and every later round costs what its answering nodes take.
//! Without demotion (fail-fast mode) the first failure ends the round
//! naming its node, and the pool scraps every lane.
//!
//! [`WorkerPool::run_round`]: crate::transport::WorkerPool::run_round

use crate::chaos::{Demotion, FailureCause};
use crate::round::{crash_frames, node_slice, FrameBody, NodeFrames};
use crate::transport::{parse_reply, TransportError};

/// One complete message a lane delivered, or how its connection ended.
pub(crate) type Read = Result<String, TransportError>;

/// What [`Drain::drive`] asks its caller for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wait {
    /// A message that has already arrived, if there is one: never
    /// blocks.
    Arrived,
    /// The next message, waited for until the round's deadline; `None`
    /// once the deadline has passed.
    Deadline,
}

/// What a drained round hands back: one set of frames per node in node
/// order (the worker's own, or crash frames for a demoted node, so the
/// round completes via erasure decoding), the demotions in node order,
/// and the suspect bits the next round starts from.
#[derive(Debug, PartialEq)]
pub(crate) struct Drained {
    pub(crate) frames: Vec<NodeFrames>,
    pub(crate) demotions: Vec<Demotion>,
    pub(crate) suspect: Vec<bool>,
}

/// One round's reply drain.
#[derive(Debug)]
pub(crate) struct Drain {
    e: usize,
    width: usize,
    demote: bool,
    /// One bit per node: its lane ran out the previous round's deadline.
    suspect: Vec<bool>,
    /// One slot per node: `None` while its reply is awaited, then the
    /// validated reply or the cause of the node's demotion.
    lanes: Vec<Option<Result<NodeFrames, FailureCause>>>,
    /// Fail-fast mode: the failure that ends the round.
    failed: Option<TransportError>,
}

impl Drain {
    /// A drain for a round over `e` points and `width` polynomials on
    /// one node per `suspect` bit, every reply awaited; `demote` selects
    /// demotion over failing fast.
    pub(crate) fn new(e: usize, width: usize, demote: bool, suspect: Vec<bool>) -> Self {
        let lanes = suspect.iter().map(|_| None).collect();
        Drain { e, width, demote, suspect, lanes, failed: None }
    }

    /// Books `node` as crashed, unless it is resolved already: the first
    /// cause stands. Before the wait, the pool books a lane that could
    /// not come back or take its task.
    pub(crate) fn demote_node(&mut self, node: usize, cause: FailureCause) {
        self.resolve(node, Err(cause));
    }

    /// Runs the round to its end. `next` feeds the machine: it hands over a
    /// node's next message, either one that has already arrived
    /// ([`Wait::Arrived`]) or the next to arrive before the deadline
    /// ([`Wait::Deadline`]), and `None` when there is none.
    ///
    /// # Errors
    ///
    /// Without demotion, the first failure as
    /// [`TransportError::WorkerFailed`] naming the node.
    pub(crate) fn drive(
        mut self,
        mut next: impl FnMut(Wait) -> Option<(usize, Read)>,
    ) -> Result<Drained, TransportError> {
        loop {
            while let Some((node, read)) = next(Wait::Arrived) {
                self.receive(node, read);
            }
            if self.yardstick() {
                self.time_out(true, "no reply by the last trusted reply");
            }
            if let Some(err) = self.failed.take() {
                return Err(err);
            }
            if self.lanes.iter().all(Option::is_some) {
                return Ok(self.finish());
            }
            match next(Wait::Deadline) {
                Some((node, read)) => self.receive(node, read),
                None => self.time_out(false, "no reply by the round's deadline"),
            }
        }
    }

    /// Takes `node`'s message: a reply that parses and fits its task is
    /// delivered, anything else loses the node its reply. A node already
    /// resolved ignores it.
    fn receive(&mut self, node: usize, read: Read) {
        if !matches!(self.lanes.get(node), Some(None)) {
            return;
        }
        let nodes = self.lanes.len();
        let reply = read.and_then(|text| {
            let reply = parse_reply(&text)?;
            validate_reply(&reply, node, nodes, self.e, self.width).map(|()| reply)
        });
        match reply {
            Ok(reply) => self.resolve(node, Ok(reply)),
            Err(err) => self.lose(node, err),
        }
    }

    /// Settles `node`'s lane unless it is settled already.
    fn resolve(&mut self, node: usize, outcome: Result<NodeFrames, FailureCause>) {
        if let Some(lane) = self.lanes.get_mut(node).filter(|lane| lane.is_none()) {
            *lane = Some(outcome);
        }
    }

    /// Whether every trusted lane is resolved and one of them delivered:
    /// the round has shown how long an answer takes.
    fn yardstick(&self) -> bool {
        let mut trusted = self.lanes.iter().zip(&self.suspect).filter(|(_, suspect)| !**suspect);
        trusted.clone().all(|(lane, _)| lane.is_some())
            && trusted.any(|(lane, _)| matches!(lane, Some(Ok(_))))
    }

    /// Every lane still awaited — or only the suspects among them —
    /// loses its reply to a timeout.
    fn time_out(&mut self, suspects_only: bool, reason: &str) {
        for node in 0..self.lanes.len() {
            let awaited = matches!(self.lanes.get(node), Some(None));
            if awaited && (!suspects_only || self.suspect.get(node) == Some(&true)) {
                self.lose(node, TransportError::TimedOut { reason: reason.to_string() });
            }
        }
    }

    /// `node` delivered no usable reply: demoted with the structured
    /// cause, or, failing fast, the round's failure.
    fn lose(&mut self, node: usize, err: TransportError) {
        if self.demote {
            self.demote_node(node, FailureCause::from_transport(&err));
        } else {
            let reason = format!("reading reply: {err}");
            self.failed.get_or_insert(TransportError::WorkerFailed { node, reason });
        }
    }

    fn finish(self) -> Drained {
        let Drain { e, width, mut suspect, lanes, .. } = self;
        let nodes = lanes.len();
        let (mut frames, mut demotions) = (Vec::with_capacity(nodes), Vec::new());
        for (node, lane) in lanes.into_iter().enumerate() {
            // `drive` finishes only once no reply is awaited.
            let lane = lane.unwrap_or(Err(FailureCause::Timeout));
            if let Some(bit) = suspect.get_mut(node) {
                *bit = match &lane {
                    Ok(_) => false,
                    Err(FailureCause::Timeout) => true,
                    Err(_) => *bit,
                };
            }
            match lane {
                Ok(reply) => frames.push(reply),
                Err(cause) => {
                    demotions.push(Demotion { node, cause });
                    frames.push(crash_frames(e, nodes, node, width));
                }
            }
        }
        Drained { frames, demotions, suspect }
    }
}

/// Drives `drain` against scripted arrivals `(virtual ms, node, message)`,
/// as the pool drives it against its reader threads: a wait for what has
/// arrived takes a message due by now, a wait for the deadline moves the
/// clock to the next message due by `deadline_ms` or to `deadline_ms`.
/// Same-instant arrivals are handed over in script order. Returns the
/// instant the round ended, with the drained round.
pub(crate) fn drive_virtual(
    drain: Drain,
    deadline_ms: u64,
    mut script: Vec<(u64, usize, Read)>,
) -> (u64, Result<Drained, TransportError>) {
    script.sort_by_key(|&(at, ..)| at);
    let mut script = script.into_iter().peekable();
    let mut now = 0;
    let out = drain.drive(|wait| {
        let due = if wait == Wait::Arrived { now } else { deadline_ms };
        match script.peek() {
            Some(&(at, ..)) if at <= due => {
                now = now.max(at);
                script.next().map(|(_, node, read)| (node, read))
            }
            _ => {
                now = due;
                None
            }
        }
    });
    (now, out)
}

/// Validates one worker's (untrusted) reply against its task shape
/// before it reaches the shared assembly, which treats frames as
/// well-formed: right node id, exactly the assigned slice across all
/// polynomials, full receiver coverage.
fn validate_reply(
    reply: &NodeFrames,
    node: usize,
    nodes: usize,
    e: usize,
    width: usize,
) -> Result<(), TransportError> {
    let (lo, hi) = node_slice(e, nodes, node);
    let expected = (hi - lo) * width;
    let (body_len, receivers) = match &reply.body {
        FrameBody::Uniform(symbols) => (symbols.len(), nodes),
        FrameBody::PerReceiver { base, per_receiver } => (base.len(), per_receiver.len()),
    };
    if reply.node != node || reply.evaluations != expected || body_len != expected {
        return Err(TransportError::Protocol {
            reason: format!("reply from worker {node} does not match its task"),
        });
    }
    if receivers != nodes {
        return Err(TransportError::Protocol {
            reason: format!("reply from worker {node} does not cover the cluster"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::encode_reply;
    use camelot_ff::{RngLike, SplitMix64};
    use std::collections::VecDeque;
    use std::time::Duration;

    /// The round's deadline, in virtual milliseconds after the last task
    /// was flushed.
    const D: u64 = 1000;

    /// Node `node`'s reply in a round of one point per node.
    fn reply(node: usize) -> Read {
        let body = FrameBody::Uniform(vec![Some(node as u64)]);
        Ok(encode_reply(&NodeFrames { node, evaluations: 1, elapsed: Duration::ZERO, body }))
    }

    /// What a lane's reader delivers when the worker closes without a reply.
    fn reset(node: usize) -> Read {
        Err(TransportError::Io { reason: format!("worker {node} closed before replying") })
    }

    /// What a lane's reader delivers when the connection ends mid-message.
    fn cut() -> Read {
        Err(TransportError::Protocol { reason: "message cut short".to_string() })
    }

    /// Drains one round of one point per node against scripted arrivals
    /// `(virtual ms, node, message)` with the deadline at `D`. Returns the
    /// instant the round ended.
    fn simulate(
        suspect: &[bool],
        demote: bool,
        script: Vec<(u64, usize, Read)>,
    ) -> (u64, Result<Drained, TransportError>) {
        drive_virtual(Drain::new(suspect.len(), 1, demote, suspect.to_vec()), D, script)
    }

    /// When the probe lane's message arrives.
    #[derive(Clone, Copy, Debug)]
    enum When {
        WellBefore,
        /// At the instant the companion's message arrives.
        WithCompanion,
        JustBefore,
        At,
        JustAfter,
        Never,
        /// All but the last byte is in by the deadline; the reader sees
        /// the message cut only once the coordinator hangs up.
        OneByteShort,
    }

    const WHEN: [When; 7] = [
        When::WellBefore,
        When::WithCompanion,
        When::JustBefore,
        When::At,
        When::JustAfter,
        When::Never,
        When::OneByteShort,
    ];

    impl When {
        fn arrival(self, node: usize) -> Option<(u64, usize, Read)> {
            let at = match self {
                When::WellBefore => 250,
                When::WithCompanion => 500,
                When::JustBefore => D - 1,
                When::At => D,
                When::JustAfter => D + 1,
                When::Never => return None,
                When::OneByteShort => return Some((D + 1, node, cut())),
            };
            Some((at, node, reply(node)))
        }
    }

    /// The trusted lane beside the probe: it replies at 500, closes at
    /// 500 without a reply, or never answers.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Companion {
        Delivers,
        Resets,
        Silent,
    }

    const COMPANIONS: [Companion; 3] = [Companion::Delivers, Companion::Resets, Companion::Silent];

    impl Companion {
        fn arrival(self, node: usize) -> Option<(u64, usize, Read)> {
            match self {
                Companion::Delivers => Some((500, node, reply(node))),
                Companion::Resets => Some((500, node, reset(node))),
                Companion::Silent => None,
            }
        }

        /// Why the companion is demoted, if it is.
        fn cause(self) -> Option<FailureCause> {
            match self {
                Companion::Delivers => None,
                Companion::Resets => Some(FailureCause::Reset),
                Companion::Silent => Some(FailureCause::Timeout),
            }
        }
    }

    /// The instant the round ends and whether the probe's reply is
    /// taken, for a trusted probe: rows in [`WHEN`] order, columns in
    /// [`COMPANIONS`] order. A trusted lane is waited for until the
    /// deadline, and a reply at the deadline is still taken.
    const TRUSTED_PROBE: [[(u64, bool); 3]; 7] = [
        [(500, true), (500, true), (D, true)],
        [(500, true), (500, true), (D, true)],
        [(D - 1, true), (D - 1, true), (D, true)],
        [(D, true), (D, true), (D, true)],
        [(D, false), (D, false), (D, false)],
        [(D, false), (D, false), (D, false)],
        [(D, false), (D, false), (D, false)],
    ];

    /// The same for a suspect probe. Beside a trusted delivery it is
    /// read with what has arrived when that delivery does (first column);
    /// with no trusted delivery it keeps the whole deadline.
    const SUSPECT_PROBE: [[(u64, bool); 3]; 7] = [
        [(500, true), (500, true), (D, true)],
        [(500, true), (500, true), (D, true)],
        [(500, false), (D - 1, true), (D, true)],
        [(500, false), (D, true), (D, true)],
        [(500, false), (D, false), (D, false)],
        [(500, false), (D, false), (D, false)],
        [(500, false), (D, false), (D, false)],
    ];

    /// One row of the contract table, with the probe on node `probe` of
    /// two and the companion on the other: the round ends at `end`, the
    /// probe's reply is taken or it is demoted for a timeout, and the
    /// next suspects are exactly the nodes that timed out.
    fn check_row(
        probe: usize,
        suspect: bool,
        when: When,
        companion: Companion,
        end: u64,
        taken: bool,
    ) {
        let other = 1 - probe;
        let mut bits = vec![false; 2];
        bits[probe] = suspect;
        let script = when.arrival(probe).into_iter().chain(companion.arrival(other)).collect();
        let label = format!("{when:?}, suspect {suspect}, {companion:?}, probe on {probe}");
        let (ended, out) = simulate(&bits, true, script);
        let drained = out.unwrap_or_else(|err| panic!("{label}: {err}"));

        let probe_cause = (!taken).then_some(FailureCause::Timeout);
        let mut demotions: Vec<Demotion> = [(probe, probe_cause), (other, companion.cause())]
            .into_iter()
            .filter_map(|(node, cause)| Some(Demotion { node, cause: cause? }))
            .collect();
        demotions.sort();
        let mut next = vec![false; 2];
        next[probe] = !taken;
        next[other] = companion == Companion::Silent;
        assert_eq!(ended, end, "{label}: the round's end");
        assert_eq!(drained.demotions, demotions, "{label}");
        assert_eq!(drained.suspect, next, "{label}: next suspects");
        let own = FrameBody::Uniform(vec![Some(probe as u64)]);
        assert_eq!(drained.frames[probe].body == own, taken, "{label}: the probe's frames");
        assert_eq!(drained.frames.len(), 2, "{label}");
    }

    /// The contract table: every lane order × every probe arrival ×
    /// suspect or trusted × a trusted delivery present or absent.
    #[test]
    fn the_contract_table_holds_in_every_lane_order() {
        for (suspect, table) in [(false, TRUSTED_PROBE), (true, SUSPECT_PROBE)] {
            for (when, row) in WHEN.into_iter().zip(table) {
                for (companion, (end, taken)) in COMPANIONS.into_iter().zip(row) {
                    for probe in 0..2 {
                        check_row(probe, suspect, when, companion, end, taken);
                    }
                }
            }
        }
    }

    /// When every lane is a suspect there is no yardstick: a silent lane
    /// is waited for until the deadline, the others are delivered, and a
    /// suspect that resets is demoted at once and stays a suspect.
    #[test]
    fn suspects_with_no_trusted_lane_keep_the_whole_deadline() {
        let script = vec![(10, 0, reply(0)), (10, 1, reply(1)), (20, 3, reset(3))];
        let (end, out) = simulate(&[true; 4], true, script);
        let drained = out.unwrap();
        assert_eq!(end, D, "a round never demotes in zero time");
        assert_eq!(
            drained.demotions,
            vec![
                Demotion { node: 2, cause: FailureCause::Timeout },
                Demotion { node: 3, cause: FailureCause::Reset },
            ]
        );
        assert_eq!(drained.suspect, vec![false, false, true, true]);
    }

    /// Three hung nodes, a dropped frame and a straggler 30 ms late,
    /// round after round: the first round costs one deadline, every later
    /// one what the slowest trusted lane takes, with the same demotions.
    #[test]
    fn silent_nodes_cost_one_deadline_then_what_the_others_take() {
        let nodes = 10;
        let mut suspect = vec![false; nodes];
        for round in 0..3 {
            let script = (0..nodes)
                .filter_map(|node| match node {
                    1 | 4 | 8 => None,
                    6 => Some((0, node, reset(node))),
                    2 => Some((30, node, reply(node))),
                    _ => Some((1, node, reply(node))),
                })
                .collect();
            let (end, out) = simulate(&suspect, true, script);
            let drained = out.unwrap();
            assert_eq!(end, if round == 0 { D } else { 30 }, "round {round}");
            let causes: Vec<(usize, FailureCause)> =
                drained.demotions.iter().map(|d| (d.node, d.cause)).collect();
            assert_eq!(
                causes,
                vec![
                    (1, FailureCause::Timeout),
                    (4, FailureCause::Timeout),
                    (6, FailureCause::Reset),
                    (8, FailureCause::Timeout),
                ],
                "round {round}"
            );
            suspect = drained.suspect;
            let marked: Vec<usize> = (0..nodes).filter(|&node| suspect[node]).collect();
            assert_eq!(marked, vec![1, 4, 8], "round {round}");
        }
    }

    /// A node demoted before the wait keeps its first cause, its suspect
    /// bit and its crash frames, and its lane's messages are ignored.
    #[test]
    fn a_node_demoted_before_the_wait_stays_as_it_was() {
        let mut drain = Drain::new(3, 1, true, vec![false, true, false]);
        drain.demote_node(1, FailureCause::RespawnExhausted);
        drain.demote_node(1, FailureCause::Reset);
        let mut script = VecDeque::from([(0, reply(0)), (1, reply(1)), (2, reply(2))]);
        let drained = drain.drive(|_| script.pop_front()).unwrap();
        assert_eq!(
            drained.demotions,
            vec![Demotion { node: 1, cause: FailureCause::RespawnExhausted }]
        );
        assert_eq!(drained.suspect, vec![false, true, false]);
        assert_eq!(drained.frames[1].body, FrameBody::Uniform(vec![None]));
    }

    /// Failing fast, the first failure ends the round naming its node: a
    /// reset the moment it arrives, a silent lane at the deadline.
    #[test]
    fn without_demotion_the_first_failure_ends_the_round() {
        let (end, out) = simulate(&[false; 3], false, vec![(100, 0, reply(0)), (300, 1, reset(1))]);
        assert_eq!(end, 300);
        assert!(matches!(out, Err(TransportError::WorkerFailed { node: 1, .. })), "{out:?}");
        let (end, out) = simulate(&[false; 3], false, vec![(100, 0, reply(0)), (200, 1, reply(1))]);
        assert_eq!(end, D);
        assert!(matches!(out, Err(TransportError::WorkerFailed { node: 2, .. })), "{out:?}");
        let (end, out) = simulate(&[false; 2], false, vec![(5, 0, reply(0)), (7, 1, reply(1))]);
        assert_eq!(end, 7);
        assert_eq!(out.unwrap().demotions, vec![]);
    }

    /// A reply from the wrong node, of the wrong size, or malformed is a
    /// `Protocol` demotion, on every backend.
    #[test]
    fn a_reply_that_does_not_fit_its_task_is_a_protocol_demotion() {
        let script = vec![(1, 0, reply(1)), (1, 1, Ok("camelot-reply v1\nend\n".to_string()))];
        let (end, out) = simulate(&[false; 2], true, script);
        assert_eq!(end, 1);
        let causes: Vec<FailureCause> = out.unwrap().demotions.iter().map(|d| d.cause).collect();
        assert_eq!(causes, vec![FailureCause::Protocol; 2]);
    }

    /// The outcome of a demoting round — its end, frames, demotions and
    /// next suspects — does not depend on the order in which the lanes'
    /// messages are handed over.
    #[test]
    fn a_demoting_round_does_not_depend_on_the_interleaving_of_arrivals() {
        let mut rng = SplitMix64::new(30);
        let mut draw = |n: usize| (rng.next_u64() % n as u64) as usize;
        let instants = [0, 250, 500, D - 1, D, D + 1];
        for _ in 0..400 {
            let nodes = 2 + draw(5);
            let suspect: Vec<bool> = (0..nodes).map(|_| draw(3) == 0).collect();
            let mut script = Vec::new();
            for node in 0..nodes {
                let at = instants[draw(instants.len())];
                match draw(4) {
                    0 => script.push((at, node, reset(node))),
                    1 => script.push((at, node, cut())),
                    2 => {}
                    _ => script.push((at, node, reply(node))),
                }
            }
            let (end, out) = simulate(&suspect, true, script.clone());
            let reference = out.unwrap();
            for _ in 0..6 {
                for i in (1..script.len()).rev() {
                    script.swap(i, draw(i + 1));
                }
                let (shuffled_end, shuffled) = simulate(&suspect, true, script.clone());
                assert_eq!(shuffled_end, end, "{script:?}");
                assert_eq!(shuffled.unwrap(), reference, "{script:?}");
            }
        }
    }
}
