//! Property tests for the text formats: the certificate, task, reply,
//! request and response frames must parse arbitrary and adversarially
//! mutated input to *errors* — never panic — must round-trip every
//! well-formed message exactly, and must apply one grammar alike.

use camelot::cluster::{
    encode_reply, parse_reply, serve_worker_loop, ChaosEffect, EvalProgram, FaultKind, FrameBody,
    NodeFrames, Task, TransportError,
};
use camelot::core::PrimeSchedule;
use camelot::core::{CamelotError, Certificate, PrimeProof};
use camelot::ff::{next_prime, RngLike, SplitMix64, MAX_MODULUS};
use camelot::server::{PolyRequest, Request, Response};
use std::time::Duration;

/// A pseudo-random structural mutation: truncate, splice a byte,
/// duplicate or drop a line, or swap a token for garbage.
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut s = text.to_string();
    match rng.next_u64() % 5 {
        0 => {
            // Truncate anywhere (on a char boundary).
            let cut = (rng.next_u64() as usize) % (s.len() + 1);
            while !s.is_char_boundary(cut.min(s.len())) {
                s.pop();
            }
            s.truncate(cut.min(s.len()));
        }
        1 => {
            // Overwrite one byte with printable garbage.
            if !s.is_empty() {
                let pos = (rng.next_u64() as usize) % s.len();
                if s.is_char_boundary(pos) && s.is_char_boundary(pos + 1) {
                    let garbage = (b'!' + (rng.next_u64() % 90) as u8) as char;
                    s.replace_range(pos..pos + 1, &garbage.to_string());
                }
            }
        }
        2 => {
            // Drop a line.
            let lines: Vec<&str> = s.lines().collect();
            if !lines.is_empty() {
                let drop = (rng.next_u64() as usize) % lines.len();
                s = lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect();
            }
        }
        3 => {
            // Duplicate a line.
            let lines: Vec<&str> = s.lines().collect();
            if !lines.is_empty() {
                let dup = (rng.next_u64() as usize) % lines.len();
                s = lines
                    .iter()
                    .enumerate()
                    .flat_map(|(i, l)| {
                        if i == dup {
                            vec![format!("{l}\n"), format!("{l}\n")]
                        } else {
                            vec![format!("{l}\n")]
                        }
                    })
                    .collect();
            }
        }
        _ => {
            // Replace a whitespace-separated token with a non-numeric one.
            let tokens: Vec<&str> = s.split_whitespace().collect();
            if !tokens.is_empty() {
                let victim = tokens[(rng.next_u64() as usize) % tokens.len()];
                s = s.replacen(victim, "∞garbage", 1);
            }
        }
    }
    s
}

fn random_ascii(rng: &mut SplitMix64, len: usize) -> String {
    (0..len)
        .map(|_| match rng.next_u64() % 8 {
            0 => '\n',
            1 => ' ',
            2 => '-',
            _ => (b' ' + (rng.next_u64() % 95) as u8) as char,
        })
        .collect()
}

fn sample_certificate() -> Certificate {
    Certificate {
        proofs: vec![
            PrimeProof { modulus: 1_048_583, coefficients: vec![17, 0, 99, 1_000_000] },
            PrimeProof { modulus: 1_048_589, coefficients: vec![3] },
        ],
        code_length: 21,
        degree_bound: 3,
        identified_faulty_nodes: vec![2, 9],
        crashed_nodes: vec![4],
    }
}

fn sample_task() -> Task {
    Task {
        modulus: 1_048_583,
        nodes: 6,
        node: 4,
        fault: FaultKind::Corrupt { seed: 77 },
        programs: vec![EvalProgram::Poly(vec![1, 2, 3]), EvalProgram::Poly(vec![0, 0, 9])],
        lo: 12,
        points: vec![12, 13, 14],
        chaos: Some(ChaosEffect::Garble { seed: 5 }),
        deadline_ms: 250,
    }
}

fn sample_replies() -> Vec<NodeFrames> {
    vec![
        NodeFrames {
            node: 0,
            evaluations: 4,
            elapsed: Duration::from_nanos(812),
            body: FrameBody::Uniform(vec![Some(1), None, Some(0), Some(1_048_582)]),
        },
        NodeFrames {
            node: 5,
            evaluations: 2,
            elapsed: Duration::ZERO,
            body: FrameBody::PerReceiver {
                base: vec![Some(10), Some(20)],
                per_receiver: vec![
                    vec![Some(11), Some(21)],
                    vec![Some(12), None],
                    vec![None, Some(23)],
                ],
            },
        },
    ]
}

/// 500 structural mutations of a valid certificate: every parse returns
/// (it may legitimately succeed — a mutation can produce another valid
/// certificate — but a success must re-serialize losslessly).
#[test]
fn mutated_certificates_parse_to_errors_or_valid_certificates() {
    let wire = sample_certificate().to_wire();
    let mut rng = SplitMix64::new(0xCE21);
    for trial in 0..500 {
        let mutated = mutate(&wire, &mut rng);
        if let Ok(cert) = Certificate::from_wire(&mutated) {
            let reparsed = Certificate::from_wire(&cert.to_wire()).unwrap_or_else(|e| {
                panic!("trial {trial}: accepted certificate no longer parses: {e}")
            });
            assert_eq!(reparsed, cert, "trial {trial}");
        }
    }
}

/// A `proof` line whose modulus no `PrimeField` can carry is a parse
/// error: `proof 0` used to parse and then underflow `Engine::redeem`'s
/// bit count, and `MAX_MODULUS` and up reached an unchecked field.
#[test]
fn certificate_moduli_outside_the_field_range_are_refused() {
    let wire = sample_certificate().to_wire();
    for modulus in [0, 1, MAX_MODULUS, u64::MAX] {
        let forged = wire.replace("proof 1048589 3", &format!("proof {modulus}"));
        assert_ne!(forged, wire);
        assert!(
            matches!(Certificate::from_wire(&forged), Err(CamelotError::MalformedProof { .. })),
            "modulus {modulus}"
        );
    }
}

/// Random ASCII soup never panics any of the three parsers.
#[test]
fn random_garbage_never_panics_any_parser() {
    let mut rng = SplitMix64::new(0xDEAD);
    for _ in 0..500 {
        let len = (rng.next_u64() % 400) as usize;
        let soup = random_ascii(&mut rng, len);
        let _ = Certificate::from_wire(&soup);
        let _ = Task::from_wire(&soup);
        let _ = parse_reply(&soup);
        let _ = Request::from_wire(&soup);
        let _ = Response::from_wire(&soup);
        // Headered soup exercises the section parsers, not just the
        // header check.
        let _ = Certificate::from_wire(&format!("camelot-certificate v1\n{soup}"));
        let _ = Task::from_wire(&format!("camelot-task v1\n{soup}"));
        let _ = parse_reply(&format!("camelot-reply v1\n{soup}"));
        let _ = Request::from_wire(&format!("camelot-request v1\n{soup}"));
        let _ = Response::from_wire(&format!("camelot-response v1\n{soup}"));
    }
}

/// 500 structural mutations of valid frame messages: parses return
/// errors or re-encodable values, never panic.
#[test]
fn mutated_frames_parse_to_errors_or_reencodable_frames() {
    let task_wire = sample_task().to_wire();
    let reply_wires: Vec<String> = sample_replies().iter().map(encode_reply).collect();
    let mut rng = SplitMix64::new(0xBEEF);
    for trial in 0..500 {
        if let Ok(task) = Task::from_wire(&mutate(&task_wire, &mut rng)) {
            assert_eq!(Task::from_wire(&task.to_wire()).unwrap(), task, "trial {trial}");
        }
        for wire in &reply_wires {
            if let Ok(frames) = parse_reply(&mutate(wire, &mut rng)) {
                assert_eq!(parse_reply(&encode_reply(&frames)).unwrap(), frames, "trial {trial}");
            }
        }
    }
}

/// Randomized round-trip: arbitrary well-formed tasks and replies
/// survive encode → parse exactly.
#[test]
fn random_frames_roundtrip_exactly() {
    let mut rng = SplitMix64::new(0xF00D);
    for trial in 0..200 {
        let nodes = 1 + (rng.next_u64() % 7) as usize;
        let width = 1 + (rng.next_u64() % 3) as usize;
        let fault = match rng.next_u64() % 5 {
            0 => FaultKind::Honest,
            1 => FaultKind::Crash,
            2 => FaultKind::Corrupt { seed: rng.next_u64() },
            3 => FaultKind::Adversarial { offset: rng.next_u64() },
            _ => FaultKind::Equivocate { seed: rng.next_u64() },
        };
        let slice = (rng.next_u64() % 5) as usize;
        let chaos = match rng.next_u64() % 8 {
            0 => Some(ChaosEffect::Delay { millis: rng.next_u64() % 1000 }),
            1 => Some(ChaosEffect::DropFrame),
            2 => Some(ChaosEffect::Truncate { seed: rng.next_u64() }),
            3 => Some(ChaosEffect::Garble { seed: rng.next_u64() }),
            4 => Some(ChaosEffect::Duplicate),
            5 => Some(ChaosEffect::Reset),
            6 => Some(ChaosEffect::Hang),
            _ => None,
        };
        let task = Task {
            modulus: next_prime(2 + rng.next_u64() % (1 << 40)),
            nodes,
            node: (rng.next_u64() as usize) % nodes,
            fault,
            programs: (0..width)
                .map(|_| {
                    EvalProgram::Poly(
                        (0..rng.next_u64() % 6).map(|_| rng.next_u64() % (1 << 30)).collect(),
                    )
                })
                .collect(),
            lo: (rng.next_u64() % 1000) as usize,
            points: (0..slice as u64).collect(),
            chaos,
            deadline_ms: 1 + rng.next_u64() % 100_000,
        };
        assert_eq!(Task::from_wire(&task.to_wire()).unwrap(), task, "trial {trial}");

        let symbols = slice * width;
        let random_word = |rng: &mut SplitMix64| -> Vec<Option<u64>> {
            (0..symbols)
                .map(|_| (!rng.next_u64().is_multiple_of(4)).then(|| rng.next_u64() % (1 << 40)))
                .collect()
        };
        let body = if matches!(fault, FaultKind::Equivocate { .. }) {
            FrameBody::PerReceiver {
                base: random_word(&mut rng),
                per_receiver: (0..nodes).map(|_| random_word(&mut rng)).collect(),
            }
        } else {
            FrameBody::Uniform(random_word(&mut rng))
        };
        let frames = NodeFrames {
            node: task.node,
            evaluations: symbols,
            elapsed: Duration::from_nanos(rng.next_u64() % 1_000_000_000),
            body,
        };
        assert_eq!(parse_reply(&encode_reply(&frames)).unwrap(), frames, "trial {trial}");
    }
}

/// Drive a real worker over TCP with one payload and return its verdict.
/// The worker runs on its own thread exactly as the socket backend spawns
/// it; a panic in `serve_worker_loop` would poison the join and fail the
/// test.
fn serve_payload(payload: &[u8]) -> Result<(), TransportError> {
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let worker = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        serve_worker_loop(stream)
    });
    let mut client = TcpStream::connect(addr).expect("connect");
    client.write_all(payload).expect("send payload");
    drop(client);
    worker.join().expect("worker must refuse garbage, not panic")
}

#[test]
fn worker_refuses_garbage_frames_instead_of_aborting() {
    // Structurally hostile payloads: wrong magic, truncated task, binary
    // noise, an unknown section, a width/points contradiction. Every one
    // must come back as a reported refusal (a TransportError), with the
    // worker thread alive to return it.
    let cases: &[&[u8]] = &[
        b"\n\n\n",
        b"camelot-task v1\nend\n",
        b"camelot-task v2\nend\n",
        b"HTTP/1.1 GET /\r\n\r\n",
        b"camelot-task v1\nfield 0\ncluster 0\nnode 9\nwidth 0\nend\n",
        b"camelot-task v1\nfield 1048583\ncluster 6\nnode 4\nwidth 1\nfrobnicate\nend\n",
        b"camelot-task v1\nfield 1048583\ncluster 6\nnode 99\nwidth 1\nprogram 0 poly 1 2\npoints 0 5\nend\n",
        b"\xff\xfe\x00\x80garbage\nend\n",
    ];
    for payload in cases {
        let got = serve_payload(payload);
        assert!(
            matches!(got, Err(TransportError::Protocol { .. }) | Err(TransportError::Io { .. })),
            "worker accepted hostile payload {payload:?}: {got:?}"
        );
    }
    // An empty payload is not hostile: a coordinator hanging up at a
    // message boundary is how a worker is told to exit.
    assert_eq!(serve_payload(b""), Ok(()));
}

#[test]
fn worker_survives_mutated_tasks_as_refusal_or_answer() {
    // Mutations of a well-formed task frame: whatever the worker makes of
    // them — a computed reply or a protocol refusal — it must never panic.
    let wire = sample_task().to_wire();
    let mut rng = SplitMix64::new(0x5EED_F00D);
    for _ in 0..60 {
        let mutated = mutate(&wire, &mut rng);
        match Task::from_wire(&mutated) {
            // Parseable mutants are served end to end over the socket.
            Ok(_) => match serve_payload(mutated.as_bytes()) {
                Ok(()) | Err(_) => {}
            },
            // Unparseable mutants must be refused over the socket too.
            Err(_) => {
                let got = serve_payload(mutated.as_bytes());
                assert!(got.is_err(), "parser refused but worker accepted: {mutated:?}");
            }
        }
    }
}

fn sample_poly() -> PolyRequest {
    PolyRequest {
        coefficients: vec![3, 1, 4, 1_000_000_007],
        sum_count: 16,
        value_bits: 60,
        min_modulus: 1 << 20,
        schedule: PrimeSchedule::NttFriendly,
    }
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Prepare(sample_poly()),
        Request::Verify { poly: sample_poly(), certificate: sample_certificate().to_wire() },
        Request::Status,
        Request::CrashWorker { node: 3 },
        Request::Shutdown,
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response {
            ok: true,
            output: Some(18813),
            rounds: 4,
            coalesced: 2,
            symbols: 90,
            bytes: 1234,
            certificate: Some(sample_certificate().to_wire()),
            ..Response::default()
        },
        Response::failure("prepare failed: beyond radius"),
        Response {
            ok: true,
            workers: 4,
            respawns: 1,
            requests: 10,
            store_hits: 6,
            store_misses: 4,
            ..Response::default()
        },
    ]
}

/// One of the five formats: its name, how it parses, and how a parsed
/// value encodes again.
struct Format {
    name: &'static str,
    /// Parses, then re-encodes: the error as text, or the encoding.
    reencode: fn(&str) -> Result<String, String>,
    /// Well-formed frames of this format.
    samples: Vec<String>,
}

fn formats() -> Vec<Format> {
    vec![
        Format {
            name: "certificate",
            reencode: |text| {
                Certificate::from_wire(text).map(|c| c.to_wire()).map_err(|e| e.to_string())
            },
            samples: vec![sample_certificate().to_wire()],
        },
        Format {
            name: "task",
            reencode: |text| Task::from_wire(text).map(|t| t.to_wire()).map_err(|e| e.to_string()),
            samples: vec![sample_task().to_wire()],
        },
        Format {
            name: "reply",
            reencode: |text| parse_reply(text).map(|r| encode_reply(&r)).map_err(|e| e.to_string()),
            samples: sample_replies().iter().map(encode_reply).collect(),
        },
        Format {
            name: "request",
            reencode: |text| Request::from_wire(text).map(|r| r.to_wire()),
            samples: sample_requests().iter().map(Request::to_wire).collect(),
        },
        Format {
            name: "response",
            reencode: |text| Response::from_wire(text).map(|r| r.to_wire()),
            samples: sample_responses().iter().map(Response::to_wire).collect(),
        },
    ]
}

/// `text` parses to an error, or to a value whose encoding is a fixed
/// point: it parses again and re-encodes to the same text.
fn assert_error_or_stable(format: &Format, text: &str, what: &str) -> bool {
    match (format.reencode)(text) {
        Err(_) => false,
        Ok(wire) => {
            assert_eq!(
                (format.reencode)(&wire).as_ref(),
                Ok(&wire),
                "{} {what}: accepted {text:?} but its encoding is not stable",
                format.name
            );
            true
        }
    }
}

/// Every prefix of every frame: a cut anywhere before the last byte of
/// the `end` line is refused — no format reads a value out of a frame
/// that never finished — and the rest are stable.
#[test]
fn every_truncation_of_every_frame_is_refused() {
    for format in formats() {
        for wire in &format.samples {
            assert!(assert_error_or_stable(&format, wire, "intact"), "{wire:?}");
            for cut in 0..wire.len() {
                let accepted = assert_error_or_stable(&format, &wire[..cut], "truncated");
                assert_eq!(accepted, cut == wire.len() - 1, "{} cut at {cut}", format.name);
            }
        }
    }
}

/// 500 seeded single-byte overwrites of each frame, drawn from the bytes
/// that matter to the grammar: every outcome is an error or a stable
/// value, never a panic.
#[test]
fn single_byte_mutations_parse_to_errors_or_stable_values() {
    const BYTES: &[u8] = b" \n\t\x0b-0123456789aekz+";
    let mut rng = SplitMix64::new(0xB17E);
    for format in formats() {
        for wire in &format.samples {
            for _ in 0..500 {
                let mut bytes = wire.clone().into_bytes();
                let pos = (rng.next_u64() as usize) % bytes.len();
                bytes[pos] = BYTES[(rng.next_u64() as usize) % BYTES.len()];
                let mutated = String::from_utf8(bytes).unwrap();
                assert_error_or_stable(&format, &mutated, "mutated");
            }
        }
    }
}

/// The grammar is one rule set, whatever the format: a scalar record
/// twice is an error while repeatable records repeat, text after `end`
/// is an error while blank lines are not, and whitespace the tokenizer
/// does not split on is an error in any record.
#[test]
fn strictness_is_uniform_across_the_five_formats() {
    const REPEATABLE: &[&str] = &["proof", "program", "frame", "cert"];
    for format in formats() {
        for wire in &format.samples {
            let parse = |text: &str| (format.reencode)(text).map(drop);
            let lines: Vec<&str> = wire.lines().collect();
            let records = &lines[1..lines.len() - 1];
            for (i, line) in records.iter().enumerate() {
                let key = line.split(' ').next().unwrap();
                let is_base = line.starts_with("frame all");
                let doubled: String = lines
                    .iter()
                    .enumerate()
                    .flat_map(|(j, l)| if j == i + 1 { vec![*l, *l] } else { vec![*l] })
                    .map(|l| format!("{l}\n"))
                    .collect();
                let got = parse(&doubled);
                if REPEATABLE.contains(&key) && !is_base {
                    assert!(
                        !got.as_ref().is_err_and(|e| e.contains("repeated")),
                        "{}: repeatable {line:?} refused as repeated: {got:?}",
                        format.name
                    );
                } else {
                    assert!(
                        got.as_ref().is_err_and(|e| e.contains("repeated")),
                        "{}: scalar {line:?} twice: {got:?}",
                        format.name
                    );
                }
                for space in ['\u{a0}', '\u{2003}', '\u{0b}'] {
                    if let Some(at) = line.find(' ') {
                        let stray = wire.replacen(
                            &format!("\n{line}\n"),
                            &format!("\n{}{space}{}\n", &line[..at], &line[at + 1..]),
                            1,
                        );
                        assert_ne!(&stray, wire);
                        assert!(
                            parse(&stray).is_err_and(|e| e.contains("whitespace")),
                            "{}: {space:?} in {line:?}",
                            format.name
                        );
                    }
                }
            }
            assert_eq!(parse(&format!("{wire}\n \n")), Ok(()), "{}", format.name);
            assert_eq!(parse(&wire.replacen('\n', "\n\n", 2)), Ok(()), "{}", format.name);
            for trailer in ["junk\n", "end\n", "x"] {
                assert!(
                    parse(&format!("{wire}{trailer}")).is_err_and(|e| e.contains("after")),
                    "{}: {trailer:?} after end",
                    format.name
                );
            }
            let unterminated = &wire[..wire.len() - "end\n".len()];
            assert!(
                parse(unterminated).is_err_and(|e| e.contains("end")),
                "{}: no end",
                format.name
            );
        }
    }
}
