//! The in-process simulated bus — the historical default backend.
//!
//! Node slices run inside the coordinator, sequentially or on scoped OS
//! threads; frames are plain in-memory values, so the backend adds zero
//! serialization overhead and is bit-identical to the seed simulation
//! (deterministic either way — threading only changes wall-clock).
//! A round with wire programs runs the programs, exactly as a socket
//! worker does in [`execute_task`](crate::execute_task), so a node
//! evaluates a program the same way on every backend — by one transform
//! on a roots-of-unity slice. A round without them evaluates its
//! closures point by point. Configured chaos is *simulated*: the truthful frames are pushed
//! through the same sender-side [`worker_action`](crate::worker_action)
//! resolution the socket workers perform, so outcomes (delivery,
//! garbled symbols, demotions) are bit-identical to the real-TCP
//! backends without sleeping on real clocks.

use crate::chaos::ChaosPlan;
use crate::retry::TransportTuning;
use crate::round::{
    assemble_round, compute_node_frames, node_slice, NodeFrames, ProgramEval, RoundEval,
    RoundOutcome, RoundSpec,
};
use crate::transport::{apply_simulated_chaos, check_chaos, Transport, TransportError};
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

    /// Overrides the transport tuning (the simulation consults the I/O
    /// deadline for chaos delay-versus-demotion decisions).
    #[must_use]
    pub fn with_tuning(mut self, tuning: TransportTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a chaos plan to simulate.
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
        let (frames, demotions) = match &self.chaos {
            Some(chaos) => {
                apply_simulated_chaos(spec, eval.width(), self.tuning.deadline_ms(), chaos, frames)
            }
            None => (frames, Vec::new()),
        };
        Ok(assemble_round(spec, eval.width(), frames, demotions))
    }
}
