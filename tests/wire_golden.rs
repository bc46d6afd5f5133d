//! The exact bytes of every text frame format. `bytes_framed` stands in
//! for the bits a node broadcasts per round, `garble_reply` edits reply
//! text in place, and the certificate store keys on certificate text, so
//! an encoder change that moves one byte is a format change. These
//! strings are the format: a refactor of the codecs must leave every one
//! of them passing unchanged.

use camelot::cluster::{
    control_frame, encode_reply, garble_reply, parse_reply, ChaosEffect, EvalProgram, FaultKind,
    FrameBody, NodeFrames, Task, SHUTDOWN_HEADER,
};
use camelot::core::{Certificate, PrimeProof, PrimeSchedule};
use camelot::server::{PolyRequest, Request, Response};
use std::time::Duration;

const CERTIFICATE: &str = "camelot-certificate v1\n\
code-length 9\n\
degree-bound 2\n\
faulty\n\
crashed 4 7\n\
proof 101 1 2 3\n\
proof 103\n\
end\n";

fn certificate() -> Certificate {
    Certificate {
        proofs: vec![
            PrimeProof { modulus: 101, coefficients: vec![1, 2, 3] },
            PrimeProof { modulus: 103, coefficients: vec![] },
        ],
        code_length: 9,
        degree_bound: 2,
        identified_faulty_nodes: vec![],
        crashed_nodes: vec![4, 7],
    }
}

fn quiet_task() -> Task {
    Task {
        modulus: 1_048_583,
        nodes: 4,
        node: 1,
        fault: FaultKind::Honest,
        programs: vec![EvalProgram::Poly(vec![3, 1, 4]), EvalProgram::Poly(vec![])],
        lo: 5,
        points: vec![5, 6, 7, 8, 9],
        chaos: None,
        deadline_ms: 60_000,
    }
}

fn uniform_reply() -> NodeFrames {
    NodeFrames {
        node: 1,
        evaluations: 3,
        elapsed: Duration::from_nanos(123_456),
        body: FrameBody::Uniform(vec![Some(5), None, Some(0)]),
    }
}

fn poly() -> PolyRequest {
    PolyRequest {
        coefficients: vec![3, 1, 4],
        sum_count: 16,
        value_bits: 60,
        min_modulus: 1 << 20,
        schedule: PrimeSchedule::Smallest,
    }
}

/// Asserts the encoding is exactly `expected` and decodes back to `value`.
fn pin<T: PartialEq + std::fmt::Debug, E: std::fmt::Debug>(
    value: &T,
    wire: String,
    expected: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) {
    assert_eq!(wire, expected);
    assert_eq!(&parse(expected).unwrap(), value);
}

#[test]
fn certificate_bytes_are_pinned() {
    let cert = certificate();
    pin(&cert, cert.to_wire(), CERTIFICATE, Certificate::from_wire);
}

#[test]
fn task_bytes_are_pinned() {
    let quiet = quiet_task();
    pin(
        &quiet,
        quiet.to_wire(),
        "camelot-task v1\nfield 1048583\ncluster 4\nnode 1\nwidth 2\nfault honest\n\
         program 0 poly 3 1 4\nprogram 1 poly\npoints 5 5 6 7 8 9\nend\n",
        Task::from_wire,
    );
    let chaos = Task {
        modulus: 97,
        nodes: 3,
        node: 2,
        fault: FaultKind::Equivocate { seed: 42 },
        programs: vec![EvalProgram::Poly(vec![1, 96])],
        lo: 6,
        points: vec![6, 7],
        chaos: Some(ChaosEffect::Garble { seed: 7 }),
        deadline_ms: 250,
    };
    pin(
        &chaos,
        chaos.to_wire(),
        "camelot-task v1\nfield 97\ncluster 3\nnode 2\nwidth 1\nfault equivocate 42\n\
         deadline 250\nchaos garble 7\nprogram 0 poly 1 96\npoints 6 6 7\nend\n",
        Task::from_wire,
    );
    for (fault, line) in [
        (FaultKind::Crash, "\nfault crash\n"),
        (FaultKind::Corrupt { seed: 3 }, "\nfault corrupt 3\n"),
        (FaultKind::Adversarial { offset: 8 }, "\nfault adversarial 8\n"),
    ] {
        assert!(Task { fault, ..quiet_task() }.to_wire().contains(line), "{line:?}");
    }
    for (effect, line) in [
        (ChaosEffect::Delay { millis: 12 }, "\nchaos delay 12\n"),
        (ChaosEffect::DropFrame, "\nchaos drop\n"),
        (ChaosEffect::Truncate { seed: 5 }, "\nchaos truncate 5\n"),
        (ChaosEffect::Duplicate, "\nchaos duplicate\n"),
        (ChaosEffect::Reset, "\nchaos reset\n"),
        (ChaosEffect::Hang, "\nchaos hang\n"),
    ] {
        assert!(Task { chaos: Some(effect), ..quiet_task() }.to_wire().contains(line), "{line:?}");
    }
}

#[test]
fn reply_bytes_are_pinned() {
    let uniform = uniform_reply();
    pin(
        &uniform,
        encode_reply(&uniform),
        "camelot-reply v1\nnode 1\nevals 3\nnanos 123456\nframe all 5 - 0\nend\n",
        parse_reply,
    );
    let equivocating = NodeFrames {
        node: 0,
        evaluations: 2,
        elapsed: Duration::ZERO,
        body: FrameBody::PerReceiver {
            base: vec![Some(1), Some(2)],
            per_receiver: vec![vec![Some(3), Some(4)], vec![Some(5), None]],
        },
    };
    pin(
        &equivocating,
        encode_reply(&equivocating),
        "camelot-reply v1\nnode 0\nevals 2\nnanos 0\nframe all 1 2\nframe 0 3 4\nframe 1 5 -\nend\n",
        parse_reply,
    );
}

/// Garbling rewrites only the symbol tokens of `frame` lines, so its
/// output is pinned by the reply bytes and the seed.
#[test]
fn garbled_reply_bytes_are_pinned() {
    assert_eq!(
        garble_reply(&encode_reply(&uniform_reply()), 9, 97),
        "camelot-reply v1\nnode 1\nevals 3\nnanos 123456\nframe all 58 - 16\nend\n"
    );
}

#[test]
fn control_frame_bytes_are_pinned() {
    assert_eq!(control_frame(SHUTDOWN_HEADER), "camelot-shutdown v1\nend\n");
}

#[test]
fn request_bytes_are_pinned() {
    let poly_lines = "poly 3 1 4\nsum-count 16\nvalue-bits 60\nmin-modulus 1048576\n";
    let embedded: String = CERTIFICATE.lines().map(|line| format!("cert {line}\n")).collect();
    let cases = [
        (
            Request::Prepare(poly()),
            format!("camelot-request v1\nkind prepare\nschedule smallest\n{poly_lines}end\n"),
        ),
        (
            Request::Verify {
                poly: PolyRequest { schedule: PrimeSchedule::NttFriendly, ..poly() },
                certificate: CERTIFICATE.to_string(),
            },
            format!("camelot-request v1\nkind verify\nschedule ntt\n{poly_lines}{embedded}end\n"),
        ),
        (Request::Status, "camelot-request v1\nkind status\nend\n".to_string()),
        (
            Request::CrashWorker { node: 3 },
            "camelot-request v1\nkind crash-worker\nworker 3\nend\n".to_string(),
        ),
        (Request::Shutdown, "camelot-request v1\nkind shutdown\nend\n".to_string()),
    ];
    for (request, expected) in cases {
        pin(&request, request.to_wire(), &expected, Request::from_wire);
    }
}

#[test]
fn response_bytes_are_pinned() {
    let ok = Response {
        ok: true,
        output: Some(1u128 << 100),
        rounds: 5,
        coalesced: 2,
        cache_hit: true,
        symbols: 90,
        bytes: 1234,
        certificate: Some(CERTIFICATE.to_string()),
        ..Response::default()
    };
    let embedded: String = CERTIFICATE.lines().map(|line| format!("cert {line}\n")).collect();
    pin(
        &ok,
        ok.to_wire(),
        &format!(
            "camelot-response v1\nstatus ok\noutput 1267650600228229401496703205376\nrounds 5\n\
             coalesced 2\ncache-hit 1\nsymbols 90\nbytes 1234\nworkers 0\nrespawns 0\n\
             worker-failures 0\nrequests 0\nstore-hits 0\nstore-misses 0\n{embedded}end\n"
        ),
        Response::from_wire,
    );
    let error = Response::failure("worker 2 exploded\nbadly");
    pin(
        &error,
        error.to_wire(),
        "camelot-response v1\nstatus error\nerror worker 2 exploded; badly\nrounds 0\n\
         coalesced 0\ncache-hit 0\nsymbols 0\nbytes 0\nworkers 0\nrespawns 0\n\
         worker-failures 0\nrequests 0\nstore-hits 0\nstore-misses 0\nend\n",
        Response::from_wire,
    );
    let status = Response {
        ok: true,
        workers: 4,
        respawns: 1,
        worker_failures: 2,
        requests: 10,
        store_hits: 6,
        store_misses: 4,
        ..Response::default()
    };
    pin(
        &status,
        status.to_wire(),
        "camelot-response v1\nstatus ok\nrounds 0\ncoalesced 0\ncache-hit 0\nsymbols 0\n\
         bytes 0\nworkers 4\nrespawns 1\nworker-failures 2\nrequests 10\nstore-hits 6\n\
         store-misses 4\nend\n",
        Response::from_wire,
    );
}
