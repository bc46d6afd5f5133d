//! Deterministic transport-level fault injection ("chaos").
//!
//! The algebraic [`FaultPlan`](crate::FaultPlan) models *what* a
//! byzantine node says (§1.1, footnote 7 of the paper: crash, corrupt,
//! adversarial, equivocate). A [`ChaosPlan`] is the orthogonal,
//! transport-level repertoire a real congested-clique deployment hits:
//! slow workers, dropped or truncated frames, garbled bytes, duplicate
//! delivery, connection resets, and hangs. Both plans are seeded and
//! deterministic, and both are injected identically by every backend —
//! the socket workers sabotage their real TCP replies, the in-process
//! bus hands the same sabotaged bytes to the pool's reply drain on a
//! virtual clock — so a chaos run is bit-reproducible cross-backend.
//!
//! Determinism hinges on two rules:
//!
//! 1. **Numbers, not clocks.** Whether a delayed reply is delivered or
//!    its sender demoted is decided by comparing the *configured* delay
//!    against the *configured* I/O deadline
//!    ([`TransportTuning::deadline_ms`](crate::TransportTuning::deadline_ms)),
//!    never by racing wall clock.
//! 2. **Surgery on payload lines only.** Byte surgery
//!    ([`garble_reply`]) touches the `frame …` payload lines of the v1
//!    reply encoding exclusively — never the wall-clock-dependent
//!    `nanos` line — so the garbled symbols are a pure function of the
//!    truthful symbols and the seed.
//!
//! Every effect resolves to one of four observable outcomes, shared by
//! every backend: delivered unchanged, delivered with deterministically
//! wrong symbols (which Reed–Solomon decoding corrects and attributes,
//! exactly like an algebraic corruption), or the sender is *demoted* to
//! a crash with a structured [`FailureCause`] and the round completes
//! via erasure decoding.

use crate::transport::TransportError;
use camelot_ff::{RngLike, SplitMix64};
use std::fmt;

/// Mixing constant separating per-node chaos streams in
/// [`ChaosPlan::random`] (SplitMix64 golden-ratio increment).
const NODE_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixing constant separating the garble stream from the seed itself.
const GARBLE_MIX: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// How long past the configured deadline a hung (or over-deadline
/// delayed) worker holds its connection at most. It lets go the moment
/// the coordinator gives up on the connection, which a coordinator
/// does once its deadline has passed; the grace only bounds a worker
/// whose coordinator never does, without ever racing that deadline.
pub(crate) const HANG_GRACE_MS: u64 = 200;

/// One transport-level fault, applied to a node's reply for the round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosEffect {
    /// A slow worker: the reply is delivered `millis` late. At or below
    /// the configured I/O deadline it still arrives (socket workers
    /// genuinely sleep); beyond it the sender is demoted with
    /// [`FailureCause::Timeout`].
    Delay {
        /// Configured delay in milliseconds.
        millis: u64,
    },
    /// The reply frame is never sent; the connection closes cleanly at
    /// the message boundary ([`FailureCause::Reset`]).
    DropFrame,
    /// The reply is cut mid-message at a seeded byte offset
    /// ([`FailureCause::Protocol`]).
    Truncate {
        /// Seed choosing the cut point.
        seed: u64,
    },
    /// Payload symbols are deterministically rewritten (seeded, reduced
    /// mod `q`, always still parseable): transport garbling that
    /// manifests as wrong symbols, which the decoder corrects and
    /// attributes to the node.
    Garble {
        /// Seed for the garble stream.
        seed: u64,
    },
    /// The reply is delivered twice; the first copy wins and the
    /// duplicate is discarded (and not counted as traffic).
    Duplicate,
    /// The connection is closed immediately without a reply
    /// ([`FailureCause::Reset`]).
    Reset,
    /// The worker never replies within any deadline
    /// ([`FailureCause::Timeout`]). Worker-side the hang ends when the
    /// coordinator gives up on the connection, at the latest after
    /// deadline-plus-grace.
    Hang,
}

/// Why a node was demoted to [`FaultKind::Crash`](crate::FaultKind::Crash).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureCause {
    /// No reply within the configured I/O deadline.
    Timeout,
    /// The connection closed before a reply frame started.
    Reset,
    /// The reply was malformed or cut mid-message.
    Protocol,
    /// A pool lane died and its respawn budget was exhausted.
    RespawnExhausted,
}

impl FailureCause {
    /// Stable short token for reports and wire surfaces.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            FailureCause::Timeout => "timeout",
            FailureCause::Reset => "reset",
            FailureCause::Protocol => "protocol",
            FailureCause::RespawnExhausted => "respawn-exhausted",
        }
    }

    /// Structured classification of a per-node transport failure, used
    /// by the socket backends when demoting a dead remote.
    #[must_use]
    pub fn from_transport(err: &TransportError) -> FailureCause {
        match err {
            TransportError::TimedOut { .. } => FailureCause::Timeout,
            TransportError::Protocol { .. } | TransportError::NotWireExpressible => {
                FailureCause::Protocol
            }
            TransportError::Io { .. } | TransportError::WorkerFailed { .. } => FailureCause::Reset,
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A node demoted to crash this round, with its structured cause — the
/// ROADMAP's "a slow or dead remote is just `Crash` with a cause".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Demotion {
    /// The demoted node.
    pub node: usize,
    /// Why it was demoted.
    pub cause: FailureCause,
}

impl fmt::Display for Demotion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {} demoted: {}", self.node, self.cause)
    }
}

/// Per-node transport-level fault assignment for a round — the chaos
/// counterpart of [`FaultPlan`](crate::FaultPlan), orthogonal to it and
/// equally deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    effects: Vec<Option<ChaosEffect>>,
}

impl ChaosPlan {
    /// No chaos anywhere.
    #[must_use]
    pub fn quiet(nodes: usize) -> Self {
        ChaosPlan { effects: vec![None; nodes] }
    }

    /// Assigns specific effects to specific nodes.
    ///
    /// # Errors
    ///
    /// A node index out of range.
    pub fn with_effects(
        nodes: usize,
        effects: &[(usize, ChaosEffect)],
    ) -> Result<Self, TransportError> {
        let mut plan = Self::quiet(nodes);
        for &(node, effect) in effects {
            let Some(slot) = plan.effects.get_mut(node) else {
                return Err(TransportError::Protocol {
                    reason: format!("chaos effect assigned to nonexistent node {node}"),
                });
            };
            *slot = Some(effect);
        }
        Ok(plan)
    }

    /// A seeded random plan: each node independently draws an effect
    /// with probability `rate_percent`/100 from the default mix (delay,
    /// drop, truncate, garble, duplicate, reset, hang — uniformly).
    #[must_use]
    pub fn random(nodes: usize, rate_percent: u8, seed: u64) -> Self {
        const DEFAULT_MIX: &[ChaosEffect] = &[
            ChaosEffect::Delay { millis: 5 },
            ChaosEffect::DropFrame,
            ChaosEffect::Truncate { seed: 0 },
            ChaosEffect::Garble { seed: 0 },
            ChaosEffect::Duplicate,
            ChaosEffect::Reset,
            ChaosEffect::Hang,
        ];
        Self::random_with_mix(nodes, rate_percent, seed, DEFAULT_MIX)
    }

    /// Like [`ChaosPlan::random`] with an explicit effect mix to draw
    /// from (an empty mix yields a quiet plan). `Truncate`/`Garble`
    /// entries get fresh per-node seeds drawn from the plan seed.
    #[must_use]
    pub fn random_with_mix(nodes: usize, rate_percent: u8, seed: u64, mix: &[ChaosEffect]) -> Self {
        let rate = u64::from(rate_percent.min(100));
        let mut effects = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let mut rng = SplitMix64::new(seed ^ (node as u64).wrapping_mul(NODE_MIX));
            let drawn = !mix.is_empty() && rng.next_u64() % 100 < rate;
            let effect = if drawn {
                mix.get((rng.next_u64() % mix.len() as u64) as usize).copied().map(|e| match e {
                    ChaosEffect::Truncate { .. } => ChaosEffect::Truncate { seed: rng.next_u64() },
                    ChaosEffect::Garble { .. } => ChaosEffect::Garble { seed: rng.next_u64() },
                    other => other,
                })
            } else {
                None
            };
            effects.push(effect);
        }
        ChaosPlan { effects }
    }

    /// Number of nodes the plan covers.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.effects.len()
    }

    /// The effect assigned to `node` (`None` when out of range or
    /// unafflicted).
    #[must_use]
    pub fn effect(&self, node: usize) -> Option<ChaosEffect> {
        self.effects.get(node).copied().flatten()
    }

    /// Indices of all afflicted nodes.
    #[must_use]
    pub fn affected_nodes(&self) -> Vec<usize> {
        self.effects.iter().enumerate().filter_map(|(i, e)| e.map(|_| i)).collect()
    }
}

/// What a chaos-afflicted worker actually does with its encoded reply —
/// the *sender-side* resolution of a [`ChaosEffect`], shared verbatim
/// by the socket workers (which perform it over real TCP) and the
/// in-process bus (which hands what the lane reader would read of it to
/// the pool's reply drain, at the instant it would arrive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WorkerAction {
    /// Sleep `delay_ms`, then send `copies` copies of `text`.
    Deliver {
        /// The reply bytes to put on the wire.
        text: String,
        /// How many copies to send (2 for [`ChaosEffect::Duplicate`]).
        copies: usize,
        /// Milliseconds to sleep first (a within-deadline delay).
        delay_ms: u64,
    },
    /// Hold the connection open without replying — a hang, as observed
    /// by the coordinator's real read deadline — until the coordinator
    /// gives up on it, at most `sleep_ms` (deadline + grace), then
    /// close.
    Mute {
        /// The longest the worker stays silent before exiting on its
        /// own, in milliseconds.
        sleep_ms: u64,
    },
    /// Close the connection immediately without replying.
    Close,
    /// Send a strict prefix of the reply, then close (mid-message cut).
    Partial {
        /// The truncated bytes to send.
        text: String,
    },
}

/// Resolves an effect into the action the worker performs, given the
/// configured deadline (milliseconds) and the round's modulus. The
/// delivery-versus-demotion decision compares `millis` against
/// `deadline_ms` — configured numbers, so every backend agrees.
#[must_use]
pub(crate) fn worker_action(
    effect: Option<ChaosEffect>,
    deadline_ms: u64,
    modulus: u64,
    reply: String,
) -> WorkerAction {
    match effect {
        None => WorkerAction::Deliver { text: reply, copies: 1, delay_ms: 0 },
        Some(ChaosEffect::Delay { millis }) => {
            if millis <= deadline_ms {
                WorkerAction::Deliver { text: reply, copies: 1, delay_ms: millis }
            } else {
                WorkerAction::Mute {
                    sleep_ms: millis.min(deadline_ms.saturating_add(HANG_GRACE_MS)),
                }
            }
        }
        Some(ChaosEffect::Hang) => {
            WorkerAction::Mute { sleep_ms: deadline_ms.saturating_add(HANG_GRACE_MS) }
        }
        Some(ChaosEffect::DropFrame | ChaosEffect::Reset) => WorkerAction::Close,
        Some(ChaosEffect::Truncate { seed }) => {
            WorkerAction::Partial { text: truncate_reply(&reply, seed) }
        }
        Some(ChaosEffect::Garble { seed }) => WorkerAction::Deliver {
            text: garble_reply(&reply, seed, modulus),
            copies: 1,
            delay_ms: 0,
        },
        Some(ChaosEffect::Duplicate) => {
            WorkerAction::Deliver { text: reply, copies: 2, delay_ms: 0 }
        }
    }
}

/// A strict prefix of `wire` cut at a seeded offset, guaranteed to end
/// strictly before the final `end` line: the receiver always observes a
/// nonempty message cut mid-frame (a protocol violation), never a clean
/// boundary EOF and never a complete message.
#[must_use]
pub(crate) fn truncate_reply(wire: &str, seed: u64) -> String {
    // Keep at least 1 byte (an empty send would look like a clean
    // boundary close, i.e. a Reset) and drop at least the trailing
    // "end\n" (4 bytes) so the message can never be complete.
    let span = wire.len().saturating_sub(4);
    let cut = if span == 0 {
        wire.len().min(1)
    } else {
        let mut rng = SplitMix64::new(seed);
        1 + (rng.next_u64() % span as u64) as usize
    };
    // The v1 encoding is pure ASCII, so any byte offset is a char
    // boundary; the fallback is unreachable.
    wire.get(..cut).unwrap_or("").to_string()
}

/// Deterministically garbles the payload of a v1 reply: every numeric
/// symbol token on a `frame …` line is shifted by a seeded nonzero
/// offset mod `modulus`. Erasure markers (`-`), bookkeeping lines
/// (`node`, `evals`, and crucially the wall-clock `nanos` line), and
/// the message structure are untouched, so the result always parses —
/// garbling surfaces as wrong symbols for the decoder to correct, and
/// the output is a pure function of the truthful symbols and the seed.
#[must_use]
pub fn garble_reply(wire: &str, seed: u64, modulus: u64) -> String {
    let group = u128::from(modulus.saturating_sub(1).max(1));
    let mut rng = SplitMix64::new(seed ^ GARBLE_MIX);
    let mut out = String::with_capacity(wire.len());
    for line in wire.lines() {
        if line.starts_with("frame ") {
            for (i, token) in line.split_ascii_whitespace().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                match (i >= 2, token.parse::<u64>()) {
                    (true, Ok(v)) => {
                        let offset = 1 + u128::from(rng.next_u64()) % group;
                        let garbled = (u128::from(v) + offset) % u128::from(modulus.max(2));
                        out.push_str(&garbled.to_string());
                    }
                    _ => out.push_str(token),
                }
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_and_rate_bounded() {
        let a = ChaosPlan::random(64, 30, 7);
        let b = ChaosPlan::random(64, 30, 7);
        let c = ChaosPlan::random(64, 30, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(ChaosPlan::random(64, 0, 7).affected_nodes().is_empty());
        assert_eq!(ChaosPlan::random(64, 100, 7).affected_nodes().len(), 64);
        // 30% of 64 nodes: loosely bounded, exactly reproducible.
        let hit = a.affected_nodes().len();
        assert!(hit > 4 && hit < 40, "{hit} afflicted of 64 at 30%");
    }

    #[test]
    fn with_effects_rejects_out_of_range_nodes() {
        assert!(ChaosPlan::with_effects(3, &[(3, ChaosEffect::Hang)]).is_err());
        let plan = ChaosPlan::with_effects(3, &[(1, ChaosEffect::Hang)]).unwrap();
        assert_eq!(plan.effect(1), Some(ChaosEffect::Hang));
        assert_eq!(plan.effect(0), None);
        assert_eq!(plan.effect(99), None);
        assert_eq!(plan.affected_nodes(), vec![1]);
    }

    #[test]
    fn delay_resolution_compares_numbers_not_clocks() {
        let reply = "camelot-reply v1\nnode 0\nevals 1\nnanos 7\nframe all 5\nend\n".to_string();
        let under = worker_action(Some(ChaosEffect::Delay { millis: 10 }), 300, 97, reply.clone());
        assert_eq!(under, WorkerAction::Deliver { text: reply.clone(), copies: 1, delay_ms: 10 });
        let over = worker_action(Some(ChaosEffect::Delay { millis: 500 }), 300, 97, reply.clone());
        assert_eq!(over, WorkerAction::Mute { sleep_ms: 500 });
        let hang = worker_action(Some(ChaosEffect::Hang), 300, 97, reply.clone());
        assert_eq!(hang, WorkerAction::Mute { sleep_ms: 300 + HANG_GRACE_MS });
        assert_eq!(under.arrival(0), Some((10, 0, Ok(reply))));
        assert_eq!(over.arrival(0), None, "heard from only after the deadline");
        assert_eq!(hang.arrival(0), None);
    }

    #[test]
    fn truncation_is_nonempty_and_never_complete() {
        let wire = "camelot-reply v1\nnode 0\nevals 2\nnanos 123\nframe all 10 20\nend\n";
        for seed in 0..200 {
            let cut = truncate_reply(wire, seed);
            assert!(!cut.is_empty(), "empty cut would read as a clean close");
            assert!(wire.starts_with(&cut));
            assert!(
                !cut.lines().any(|l| l.trim_end() == "end"),
                "seed {seed}: cut still carries the end marker: {cut:?}"
            );
        }
        assert_eq!(truncate_reply(wire, 42), truncate_reply(wire, 42));
    }

    #[test]
    fn garbling_preserves_structure_and_changes_symbols() {
        let wire = "camelot-reply v1\nnode 1\nevals 4\nnanos 999\nframe all 10 - 20 96\n\
                    frame 0 1 2 - 3\nend\n";
        let garbled = garble_reply(wire, 5, 97);
        assert_eq!(garbled, garble_reply(wire, 5, 97));
        assert_ne!(garbled, garble_reply(wire, 6, 97));
        let lines: Vec<&str> = garbled.lines().collect();
        assert_eq!(lines[0], "camelot-reply v1");
        assert_eq!(lines[1], "node 1");
        assert_eq!(lines[2], "evals 4");
        assert_eq!(lines[3], "nanos 999", "the wall-clock line must never be touched");
        assert_eq!(lines[5].split_ascii_whitespace().nth(4), Some("-"), "erasures survive");
        assert_eq!(lines[6], "end");
        let all: Vec<&str> = lines[4].split_ascii_whitespace().collect();
        assert_eq!(all[0], "frame");
        assert_eq!(all[1], "all");
        for (orig, new) in [("10", all[2]), ("20", all[4]), ("96", all[5])] {
            assert_ne!(orig, new, "every symbol must change");
            assert!(new.parse::<u64>().unwrap() < 97, "garbled symbols stay reduced");
        }
    }

    #[test]
    fn garbling_ignores_the_nanos_line_content() {
        // Two replies identical except for wall clock garble to the
        // same symbols — the cross-backend determinism requirement.
        let a = "camelot-reply v1\nnode 0\nevals 1\nnanos 1\nframe all 42\nend\n";
        let b = "camelot-reply v1\nnode 0\nevals 1\nnanos 999999999\nframe all 42\nend\n";
        let ga = garble_reply(a, 9, 1_000_003);
        let gb = garble_reply(b, 9, 1_000_003);
        let symbol = |g: &str| {
            g.lines()
                .find(|l| l.starts_with("frame"))
                .and_then(|l| l.split_ascii_whitespace().nth(2).map(str::to_string))
        };
        assert_eq!(symbol(&ga), symbol(&gb));
        assert_ne!(symbol(&ga).as_deref(), Some("42"));
    }

    #[test]
    fn causes_have_stable_tokens() {
        assert_eq!(FailureCause::Timeout.to_string(), "timeout");
        assert_eq!(FailureCause::RespawnExhausted.token(), "respawn-exhausted");
        let d = Demotion { node: 3, cause: FailureCause::Reset };
        assert_eq!(d.to_string(), "node 3 demoted: reset");
    }
}
