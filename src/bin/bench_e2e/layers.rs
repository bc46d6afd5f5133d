//! Pure stage functions timed on their own, on the inputs a workload's
//! rounds really carry: frame and certificate codecs, the certificate
//! store, the request/response codecs, and two machine-speed yardsticks.
//! Nothing here runs inside a replay's wall time.

use crate::metrics::Layers;
use camelot::cluster::{
    assemble_round, compute_node_frames, encode_reply, node_slice, parse_reply, ChaosPlan,
    EvalProgram, FaultPlan, ProgramEval, RoundSpec, Task,
};
use camelot::core::Certificate;
use camelot::ff::PrimeField;
use camelot::poly::Poly;
use camelot::server::{PolyRequest, Request, Response};
use camelot::store::{cert_key, CertStore};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 7;

/// Median seconds of one call of `f`.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Seconds per call of `f`, amortised over `calls` back-to-back calls —
/// for functions too short for one clock reading.
fn time_each(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..calls {
        f(i);
    }
    started.elapsed().as_secs_f64() / calls.max(1) as f64
}

/// The inputs of one socket round: what the coordinator serialises.
pub struct RoundInputs<'a> {
    pub field: &'a PrimeField,
    pub points: &'a [u64],
    pub plan: &'a FaultPlan,
    pub programs: &'a [EvalProgram],
    pub chaos: Option<&'a ChaosPlan>,
    pub deadline_ms: u64,
}

/// Codec costs of `rounds` rounds shaped like `inputs`: every node's
/// task encoded and parsed, every node's reply encoded and parsed, the
/// round assembled, and the bytes those frames occupy.
pub fn round_codecs(inputs: &RoundInputs<'_>, rounds: usize, layers: &mut Layers) {
    let nodes = inputs.plan.nodes();
    let e = inputs.points.len();
    let eval = ProgramEval::new(inputs.field, inputs.programs.to_vec());
    let tasks: Vec<Task> = (0..nodes)
        .map(|node| {
            let (lo, hi) = node_slice(e, nodes, node);
            Task {
                modulus: inputs.field.modulus(),
                nodes,
                node,
                fault: inputs.plan.kind(node),
                programs: inputs.programs.to_vec(),
                lo,
                points: inputs.points[lo..hi].to_vec(),
                chaos: inputs.chaos.and_then(|plan| plan.effect(node)),
                deadline_ms: inputs.deadline_ms,
            }
        })
        .collect();
    let task_wires: Vec<String> = tasks.iter().map(Task::to_wire).collect();
    let frames: Vec<_> = tasks
        .iter()
        .map(|task| {
            compute_node_frames(
                inputs.field,
                task.fault,
                nodes,
                task.node,
                task.lo,
                &task.points,
                &eval,
            )
        })
        .collect();
    let reply_wires: Vec<String> = frames.iter().map(encode_reply).collect();
    let spec = RoundSpec { field: inputs.field, points: inputs.points, plan: inputs.plan };
    let scale = rounds as f64;

    let per_round = time_median(REPS, || tasks.iter().for_each(|t| drop(black_box(t.to_wire()))));
    layers.set("cluster.task_encode_s", per_round * scale);
    let per_round = time_median(REPS, || {
        task_wires.iter().for_each(|w| drop(black_box(Task::from_wire(w))));
    });
    layers.set("cluster.task_parse_s", per_round * scale);
    let per_round =
        time_median(REPS, || frames.iter().for_each(|f| drop(black_box(encode_reply(f)))));
    layers.set("cluster.reply_encode_s", per_round * scale);
    let per_round = time_median(REPS, || {
        reply_wires.iter().for_each(|w| drop(black_box(parse_reply(w))));
    });
    layers.set("cluster.reply_parse_s", per_round * scale);
    let mut copies: Vec<_> = (0..REPS).map(|_| frames.clone()).collect();
    let per_round = time_median(REPS, || {
        let frames = copies.pop().unwrap_or_default();
        drop(black_box(assemble_round(&spec, inputs.programs.len(), frames, Vec::new())));
    });
    layers.set("cluster.assemble_s", per_round * scale);
    let framed: usize = task_wires.iter().chain(&reply_wires).map(String::len).sum();
    layers.set("cluster.bytes_framed", framed as f64 * scale);
}

/// Seconds the codecs measured by [`round_codecs`] add up to.
pub fn codec_seconds(layers: &Layers) -> f64 {
    [
        "cluster.task_encode_s",
        "cluster.task_parse_s",
        "cluster.reply_encode_s",
        "cluster.reply_parse_s",
        "cluster.assemble_s",
    ]
    .iter()
    .map(|name| layers.get(name))
    .sum()
}

/// The certificate codec on one operation's certificates.
pub fn certificate_codec(certificates: &[Certificate], layers: &mut Layers) {
    let wires: Vec<String> = certificates.iter().map(Certificate::to_wire).collect();
    layers.set(
        "core.cert_encode_s",
        time_median(REPS, || certificates.iter().for_each(|c| drop(black_box(c.to_wire())))),
    );
    layers.set(
        "core.cert_parse_s",
        time_median(REPS, || {
            wires.iter().for_each(|w| drop(black_box(Certificate::from_wire(w))));
        }),
    );
    layers.set("core.cert_bytes", wires.iter().map(String::len).sum::<usize>() as f64);
}

/// The certificate store's four operations on a real certificate and a
/// real content address (`parts` are the sections the address hashes).
pub fn store_ops(certificate: &Certificate, parts: &[&[u8]], layers: &mut Layers) {
    const CALLS: usize = 256;
    layers.set(
        "store.key_s",
        time_each(CALLS, |_| {
            black_box(cert_key(black_box(parts)));
        }),
    );
    // Distinct keys, so every put inserts and every later get hits.
    let keys: Vec<_> =
        (0..CALLS).map(|i| cert_key(&[parts.concat().as_slice(), &i.to_le_bytes()])).collect();
    let mut store = CertStore::in_memory(CALLS);
    layers.set(
        "store.put_s",
        time_each(CALLS, |i| {
            let _stored = black_box(store.put(&keys[i], certificate));
        }),
    );
    layers.set("store.get_hit_s", time_each(CALLS, |i| drop(black_box(store.get(&keys[i])))));
    let absent = cert_key(&[b"bench_e2e absent key"]);
    layers.set("store.get_miss_s", time_each(CALLS, |_| drop(black_box(store.get(&absent)))));
}

/// The daemon's request and response codecs on a real prepare exchange.
pub fn server_codecs(poly: &PolyRequest, response: &Response, layers: &mut Layers) {
    let request = Request::Prepare(poly.clone());
    let request_wire = request.to_wire();
    let response_wire = response.to_wire();
    layers.set("server.request_encode_s", time_median(REPS, || drop(black_box(request.to_wire()))));
    layers.set(
        "server.request_parse_s",
        time_median(REPS, || drop(black_box(Request::from_wire(&request_wire)))),
    );
    layers
        .set("server.response_encode_s", time_median(REPS, || drop(black_box(response.to_wire()))));
    layers.set(
        "server.response_parse_s",
        time_median(REPS, || drop(black_box(Response::from_wire(&response_wire)))),
    );
}

/// One polynomial product at the workload's codeword length, and the
/// time of a million independent field multiplications — what the
/// machine can do, to read the algebra layers against.
pub fn yardsticks(field: &PrimeField, code_length: usize, layers: &mut Layers) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        field.reduce(state >> 11)
    };
    let a = Poly::from_reduced((0..code_length).map(|_| next()).collect());
    let b = Poly::from_reduced((0..code_length).map(|_| next()).collect());
    layers.set("poly.ntt_mul_s", time_median(REPS, || drop(black_box(a.mul(field, &b)))));

    const ELEMENTS: usize = 1 << 20;
    let xs: Vec<u64> = (0..ELEMENTS).map(|_| next()).collect();
    let ys: Vec<u64> = (0..ELEMENTS).map(|_| next()).collect();
    let mut out = vec![0u64; ELEMENTS];
    let seconds = time_median(REPS, || {
        for ((o, &x), &y) in out.iter_mut().zip(&xs).zip(&ys) {
            *o = field.mul(x, y);
        }
        black_box(&mut out);
    });
    layers.set("ff.mul_melem_s", seconds * 1e6 / ELEMENTS as f64);
}
