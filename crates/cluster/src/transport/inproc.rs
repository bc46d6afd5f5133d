//! The in-process bus — the historical default backend.
//!
//! Node slices run inside the coordinator, sequentially or on scoped OS
//! threads; frames are plain in-memory values, so the backend adds zero
//! serialization overhead and is bit-identical to the seed simulation
//! (deterministic either way — threading only changes wall-clock).
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
use std::sync::atomic::{AtomicUsize, Ordering};

/// The in-process backend.
#[derive(Clone, Debug, Default)]
pub struct InProcess {
    parallel: bool,
    tuning: TransportTuning,
    chaos: Option<ChaosPlan>,
}

impl InProcess {
    /// An in-process bus; `parallel` runs node slices on scoped threads.
    #[must_use]
    pub fn new(parallel: bool) -> Self {
        InProcess { parallel, tuning: TransportTuning::default(), chaos: None }
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
        if self.parallel {
            "inproc-parallel"
        } else {
            "inproc"
        }
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
        let frames: Vec<NodeFrames> = if self.parallel {
            // Contiguous node groups, one scoped thread per group, capped
            // by the process-wide budget (`CAMELOT_THREADS`) instead of
            // one thread per node; concatenating group results in order
            // reproduces the sequential frame order exactly.
            let workers = camelot_ff::worker_count(nodes);
            let group = nodes.div_ceil(workers.max(1)).max(1);
            let node_ids: Vec<usize> = (0..nodes).collect();
            // Each group records the node it is currently computing, so a
            // panic still attributes to the exact node that failed.
            let progress: Vec<AtomicUsize> = node_ids
                .chunks(group)
                .map(|g| AtomicUsize::new(g.first().copied().unwrap_or(0)))
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = node_ids
                    .chunks(group)
                    .zip(&progress)
                    .map(|(g, marker)| {
                        scope.spawn(move || {
                            g.iter()
                                .map(|&node| {
                                    marker.store(node, Ordering::Relaxed);
                                    let (lo, hi) = node_slice(e, nodes, node);
                                    compute_node_frames(
                                        spec.field,
                                        spec.plan.kind(node),
                                        nodes,
                                        node,
                                        lo,
                                        &spec.points[lo..hi],
                                        eval,
                                    )
                                })
                                .collect::<Vec<NodeFrames>>()
                        })
                    })
                    .collect();
                // A panicked node surfaces as a transport error instead of
                // aborting the coordinator.
                let mut all = Vec::with_capacity(nodes);
                for (h, marker) in handles.into_iter().zip(&progress) {
                    match h.join() {
                        Ok(group_frames) => all.extend(group_frames),
                        Err(_) => {
                            return Err(TransportError::WorkerFailed {
                                node: marker.load(Ordering::Relaxed),
                                reason: "node thread panicked".to_string(),
                            })
                        }
                    }
                }
                Ok(all)
            })?
        } else {
            (0..nodes)
                .map(|node| {
                    let (lo, hi) = node_slice(e, nodes, node);
                    compute_node_frames(
                        spec.field,
                        spec.plan.kind(node),
                        nodes,
                        node,
                        lo,
                        &spec.points[lo..hi],
                        eval,
                    )
                })
                .collect()
        };
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
