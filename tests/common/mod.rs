//! The reference the in-process backend is held to, shared by the
//! integration tests: every node's frames computed in node order on the
//! calling thread, then assembled. It reads no thread budget, so it is
//! the same round whatever `CAMELOT_THREADS` says.

use camelot::cluster::{
    assemble_round, compute_node_frames, node_slice, RoundEval, RoundOutcome, RoundSpec, Transport,
    TransportError,
};

/// [`node_loop_round`] as a transport, for engine-level references.
pub struct NodeLoop;

impl Transport for NodeLoop {
    fn name(&self) -> &'static str {
        "node-loop"
    }

    fn run(
        &self,
        spec: &RoundSpec<'_>,
        eval: &dyn RoundEval,
    ) -> Result<RoundOutcome, TransportError> {
        Ok(node_loop_round(spec, eval))
    }
}

/// One quiet round, node by node on this thread.
pub fn node_loop_round(spec: &RoundSpec<'_>, eval: &dyn RoundEval) -> RoundOutcome {
    let nodes = spec.plan.nodes();
    let e = spec.points.len();
    let frames = (0..nodes)
        .map(|node| {
            let (lo, hi) = node_slice(e, nodes, node);
            let kind = spec.plan.kind(node);
            compute_node_frames(spec.field, kind, nodes, node, lo, &spec.points[lo..hi], eval)
        })
        .collect();
    assemble_round(spec, eval.width(), frames, Vec::new())
}
