//! Deadlines and transport tuning.
//!
//! The paper's fault model (§1.1, footnote 7) is about *what* a node
//! sends; this module is about *when*. A real congested-clique round
//! has to bound every wait on a socket (a hung worker must not stall
//! the round), and that bound is configurable instead of hardcoding the
//! historical 60 s `SOCKET_TIMEOUT`. The chaos layer
//! ([`crate::ChaosPlan`]) decides delivery-versus-demotion by comparing
//! *configured* numbers (delay vs. deadline), never wall clock — which
//! is what keeps chaos runs bit-reproducible across backends.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use std::time::{Duration, Instant};

/// Environment variable overriding the default socket/pool I/O deadline
/// (milliseconds). Builder overrides ([`TransportTuning::with_io_deadline`])
/// take precedence.
pub const SOCKET_TIMEOUT_ENV: &str = "CAMELOT_SOCKET_TIMEOUT_MS";

/// The historical default I/O deadline (loopback rounds complete in
/// milliseconds; this only bounds pathological hangs).
const DEFAULT_IO_DEADLINE: Duration = Duration::from_secs(60);

/// A wall-clock deadline: "this operation must finish by `end`".
///
/// Used where real time genuinely governs (a round's reply wait, a
/// worker handshake, the grace before a stuck worker is killed);
/// round-level chaos decisions never consult it — they
/// compare configured numbers so all backends agree bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    /// `None` = unbounded (a budget past the clock's range).
    end: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        Deadline { end: Instant::now().checked_add(budget) }
    }

    /// Time left (`None` when unbounded, `Some(ZERO)` when expired).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.end.map(|end| end.saturating_duration_since(Instant::now()))
    }

    /// True once the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.remaining() == Some(Duration::ZERO)
    }
}

/// Deadline and demotion knobs threaded through every socket-flavoured
/// transport (and through the in-process bus, whose chaos rounds run
/// the pool's reply drain against the deadline on a virtual clock).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportTuning {
    /// The I/O deadline: the one deadline a round's replies share, and
    /// the longest a worker handshake may take before the worker is
    /// declared dead. Defaults to [`SOCKET_TIMEOUT_ENV`] or 60 s.
    pub io_deadline: Duration,
    /// When true, a dead/slow/misbehaving remote is *demoted* to
    /// [`FaultKind::Crash`](crate::FaultKind::Crash) with a structured
    /// [`FailureCause`](crate::FailureCause) — the round completes via
    /// erasure decoding instead of erroring. Off by default (legacy
    /// fail-fast); any configured [`ChaosPlan`](crate::ChaosPlan)
    /// enables demotion implicitly, since injected faults are meant to
    /// be survived.
    pub demote_dead_nodes: bool,
}

impl Default for TransportTuning {
    fn default() -> Self {
        TransportTuning { io_deadline: env_io_deadline(), demote_dead_nodes: false }
    }
}

impl TransportTuning {
    /// Overrides the per-operation I/O deadline.
    #[must_use]
    pub fn with_io_deadline(mut self, deadline: Duration) -> Self {
        self.io_deadline = deadline;
        self
    }

    /// Enables or disables crash demotion of dead remotes.
    #[must_use]
    pub fn with_demotion(mut self, demote: bool) -> Self {
        self.demote_dead_nodes = demote;
        self
    }

    /// The I/O deadline in whole milliseconds — the number shipped to
    /// workers in task frames and compared against configured chaos
    /// delays (never against wall clock).
    #[must_use]
    pub fn deadline_ms(&self) -> u64 {
        u64::try_from(self.io_deadline.as_millis()).unwrap_or(u64::MAX)
    }
}

/// The default I/O deadline: [`SOCKET_TIMEOUT_ENV`] (milliseconds) when
/// set and parseable, 60 s otherwise.
#[must_use]
pub fn env_io_deadline() -> Duration {
    parse_io_deadline(std::env::var(SOCKET_TIMEOUT_ENV).ok().as_deref())
}

fn parse_io_deadline(var: Option<&str>) -> Duration {
    var.and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .filter(|d| !d.is_zero())
        .unwrap_or(DEFAULT_IO_DEADLINE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expires_and_unbounded_never_does() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        let open = Deadline::after(Duration::MAX);
        assert!(!open.expired());
        assert_eq!(open.remaining(), None);
    }

    #[test]
    fn io_deadline_parses_env_shapes() {
        assert_eq!(parse_io_deadline(None), Duration::from_secs(60));
        assert_eq!(parse_io_deadline(Some("250")), Duration::from_millis(250));
        assert_eq!(parse_io_deadline(Some(" 250 ")), Duration::from_millis(250));
        assert_eq!(parse_io_deadline(Some("0")), Duration::from_secs(60), "zero is rejected");
        assert_eq!(parse_io_deadline(Some("nonsense")), Duration::from_secs(60));
    }

    #[test]
    fn tuning_builders_compose() {
        let tuning = TransportTuning::default()
            .with_io_deadline(Duration::from_millis(300))
            .with_demotion(true);
        assert_eq!(tuning.deadline_ms(), 300);
        assert!(tuning.demote_dead_nodes);
    }
}
