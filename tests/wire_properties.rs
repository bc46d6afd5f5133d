//! Property tests for the text formats: the certificate wire format and
//! the transport frame format must parse arbitrary and adversarially
//! mutated input to *errors* — never panic — and must round-trip every
//! well-formed message exactly.

use camelot::cluster::{
    encode_reply, parse_reply, serve_worker_loop, ChaosEffect, EvalProgram, FaultKind, FrameBody,
    NodeFrames, Task, TransportError,
};
use camelot::core::{CamelotError, Certificate, PrimeProof};
use camelot::ff::{RngLike, SplitMix64, MAX_MODULUS};
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
        // Headered soup exercises the section parsers, not just the
        // header check.
        let _ = Certificate::from_wire(&format!("camelot-certificate v1\n{soup}"));
        let _ = Task::from_wire(&format!("camelot-task v1\n{soup}"));
        let _ = parse_reply(&format!("camelot-reply v1\n{soup}"));
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
            modulus: 2 + rng.next_u64() % (1 << 40),
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
