//! The in-process bus — the historical default backend.
//!
//! Node slices run inside the coordinator, split into contiguous groups
//! across the process-wide thread budget ([`camelot_ff::split_map`],
//! `CAMELOT_THREADS`; one group runs inline); frames are plain in-memory
//! values, so the backend adds zero serialization overhead and is
//! bit-identical to the seed simulation at every budget — threading only
//! changes wall-clock. A node whose evaluation panics fails the round as
//! [`TransportError::WorkerFailed`], as a dead socket worker does.
//! A round with wire programs runs the programs, exactly as a socket
//! worker does in [`execute_task`](crate::execute_task), so a node
//! evaluates a program the same way on every backend — by one transform
//! on a roots-of-unity slice. A round without them evaluates its
//! closures point by point.
//!
//! With a chaos plan each reply is encoded and sabotaged as a socket
//! worker sabotages it, and the pool's own reply drain takes what the
//! lane reader would hand over, at the instant it would, on a virtual
//! clock: one implementation decides for every backend which replies a
//! round takes and whom it demotes, and no round sleeps.

use crate::chaos::{worker_action, ChaosPlan};
use crate::retry::TransportTuning;
use crate::round::{
    assemble_round, compute_node_frames, node_slice, NodeFrames, ProgramEval, RoundEval,
    RoundOutcome, RoundSpec,
};
use crate::transport::drain::{drive_virtual, Drain};
use crate::transport::{check_chaos, encode_reply, Transport, TransportError};
use camelot_ff::split_map;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The in-process backend.
#[derive(Clone, Debug, Default)]
pub struct InProcess {
    tuning: TransportTuning,
    chaos: Option<ChaosPlan>,
}

impl InProcess {
    /// An in-process bus whose node slices split across the thread
    /// budget (`CAMELOT_THREADS`).
    #[must_use]
    pub fn new() -> Self {
        InProcess::default()
    }

    /// Overrides the transport tuning (a chaos round's drain runs out
    /// the I/O deadline on its virtual clock).
    #[must_use]
    pub fn with_tuning(mut self, tuning: TransportTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a chaos plan, run through the pool's reply drain.
    #[must_use]
    pub fn with_chaos(mut self, chaos: Option<ChaosPlan>) -> Self {
        self.chaos = chaos;
        self
    }
}

impl Transport for InProcess {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn run(
        &self,
        spec: &RoundSpec<'_>,
        eval: &dyn RoundEval,
    ) -> Result<RoundOutcome, TransportError> {
        let nodes = spec.plan.nodes();
        let e = spec.points.len();
        check_chaos(self.chaos.as_ref(), nodes)?;
        let programs = eval
            .programs()
            .filter(|programs| !programs.is_empty())
            .map(|programs| ProgramEval::new(spec.field, programs));
        let eval: &dyn RoundEval = match &programs {
            Some(programs) => programs,
            None => eval,
        };
        // Node slices split across the thread budget (`CAMELOT_THREADS`);
        // a panicking node is a failed worker, not a dead coordinator.
        let frames = split_map((0..nodes).collect(), |node| {
            let (lo, hi) = node_slice(e, nodes, node);
            catch_unwind(AssertUnwindSafe(|| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "same node_slice bounds argument as socket.rs: the coordinator \
                              partitions its own point vector, lo..hi is in bounds by construction"
                )]
                let points = &spec.points[lo..hi];
                compute_node_frames(spec.field, spec.plan.kind(node), nodes, node, lo, points, eval)
            }))
            .map_err(|_| TransportError::WorkerFailed {
                node,
                reason: "node evaluation panicked".to_string(),
            })
        })
        .into_iter()
        .collect::<Result<Vec<NodeFrames>, _>>()?;
        let width = eval.width();
        // Without a plan no reply can fail, and none pays for the codec.
        let Some(chaos) = &self.chaos else {
            return Ok(assemble_round(spec, width, frames, Vec::new()));
        };
        // Every lane starts trusted: a static plan's silent node is
        // demoted for `Timeout` whether at the yardstick or the deadline.
        let deadline_ms = self.tuning.deadline_ms();
        let script = frames
            .iter()
            .enumerate()
            .filter_map(|(node, frames)| {
                let reply = encode_reply(frames);
                worker_action(chaos.effect(node), deadline_ms, spec.field.modulus(), reply)
                    .arrival(node)
            })
            .collect();
        let drain = Drain::new(e, width, true, vec![false; nodes]);
        let drained = drive_virtual(drain, deadline_ms, script).1?;
        Ok(assemble_round(spec, width, drained.frames, drained.demotions))
    }
}
