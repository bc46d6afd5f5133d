//! The daemon's request/response frames, in the frame grammar of
//! [`camelot_cluster::frame`].
//!
//! One request frame travels client → daemon, one response frame travels
//! back. A certificate rides inside a frame under `cert` lines, so the
//! `camelot-certificate v1` format is embedded verbatim rather than
//! re-encoded. `cert` repeats; every other record is scalar.
//!
//! ```text
//! camelot-request v1          camelot-response v1
//! kind prepare                status ok
//! schedule smallest           output 1881365963509150208
//! poly 3 1 4                  rounds 5
//! sum-count 16                coalesced 2
//! value-bits 60               cache-hit 0
//! min-modulus 1048576         symbols 90
//! end                         bytes 1234
//!                             …
//!                             cert camelot-certificate v1
//!                             cert …
//!                             end
//! ```
//!
//! A `verify` request carries the certificate's `cert` lines after the
//! problem, a `crash-worker` request a `worker <node>` record, and a
//! failure response an `error <text>` record of free text. A request
//! carries only the records its `kind` uses.

use camelot_cluster::frame::{self, Frame, FrameError, FrameWriter, Record};
use camelot_core::PrimeSchedule;
use std::io::BufRead;

/// Header line opening every service request frame.
pub const REQUEST_HEADER: &str = "camelot-request v1";
/// Header line opening every service response frame.
pub const RESPONSE_HEADER: &str = "camelot-response v1";

/// The problem a client asks the daemon to prepare a proof for: an
/// explicit proof polynomial `P(x)` (little-endian coefficients) whose
/// answer is `Σ_{x=0}^{sum_count-1} P(x)` over the integers — the
/// paper's "sum the evaluations" recovery map, with the polynomial
/// itself as the canonical input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolyRequest {
    /// Little-endian coefficients of `P(x)`.
    pub coefficients: Vec<u64>,
    /// The answer sums `P(0), …, P(sum_count - 1)`.
    pub sum_count: u64,
    /// Magnitude bound: the answer fits in `2^value_bits`.
    pub value_bits: u64,
    /// Lower bound on usable prime moduli.
    pub min_modulus: u64,
    /// Prime schedule the client names. Both values are accepted and
    /// prepare the same certificate: the engine walks one prime
    /// sequence and decodes every prime on its orbit.
    pub schedule: PrimeSchedule,
}

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Prepare (or serve from cache) a certificate and the answer.
    Prepare(PolyRequest),
    /// Verify a client-supplied certificate against the problem by
    /// spot checks — no rounds, the Arthur side of the protocol.
    Verify {
        /// The problem the certificate claims to prove.
        poly: PolyRequest,
        /// The certificate in `camelot-certificate v1` wire text.
        certificate: String,
    },
    /// Report service counters.
    Status,
    /// Chaos hook: forcibly take down pool worker `node`.
    CrashWorker {
        /// The worker to take down.
        node: usize,
    },
    /// Stop accepting requests and shut the worker pool down.
    Shutdown,
}

/// One daemon response. Counter fields default to zero for verbs they
/// do not apply to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub error: Option<String>,
    /// The recovered answer (prepare/verify).
    pub output: Option<u128>,
    /// Broadcast rounds this request ran (0 on a cache hit).
    pub rounds: usize,
    /// Requests that shared this request's broadcast rounds.
    pub coalesced: usize,
    /// Whether the certificate came from `camelot-store`.
    pub cache_hit: bool,
    /// Symbols broadcast on this request's rounds.
    pub symbols: usize,
    /// Payload bytes on the wire for this request's rounds.
    pub bytes: u64,
    /// Live pool workers (status).
    pub workers: usize,
    /// Lifetime worker respawns (status).
    pub respawns: usize,
    /// Batches that hit a transport failure, whether the engine's retry
    /// saved them or not (status).
    pub worker_failures: usize,
    /// Requests handled so far (status).
    pub requests: usize,
    /// Certificate-store hits so far (status).
    pub store_hits: usize,
    /// Certificate-store misses so far (status).
    pub store_misses: usize,
    /// The prepared certificate in `camelot-certificate v1` wire text.
    pub certificate: Option<String>,
}

fn schedule_token(schedule: PrimeSchedule) -> &'static str {
    match schedule {
        PrimeSchedule::Smallest => "smallest",
        PrimeSchedule::NttFriendly => "ntt",
    }
}

impl PolyRequest {
    fn write(&self, w: &mut FrameWriter) {
        w.record("schedule", schedule_token(self.schedule))
            .numbers("poly", &self.coefficients)
            .record("sum-count", self.sum_count)
            .record("value-bits", self.value_bits)
            .record("min-modulus", self.min_modulus);
    }

    fn read(frame: &mut Frame<'_>) -> Result<PolyRequest, FrameError> {
        let schedule = match frame.scalar("schedule")?.map(Record::only).transpose()? {
            None | Some("smallest") => PrimeSchedule::Smallest,
            Some("ntt") => PrimeSchedule::NttFriendly,
            Some(_) => return Err(FrameError::Bad("schedule")),
        };
        Ok(PolyRequest {
            coefficients: frame.required("poly")?.numbers()?,
            sum_count: frame.number("sum-count")?.unwrap_or(1),
            value_bits: frame.require("value-bits")?,
            min_modulus: frame.number("min-modulus")?.unwrap_or(1 << 20),
            schedule,
        })
    }
}

impl Request {
    /// Serializes to the v1 text wire format.
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut w = FrameWriter::new(REQUEST_HEADER);
        match self {
            Request::Prepare(poly) => poly.write(w.record("kind", "prepare")),
            Request::Verify { poly, certificate } => {
                poly.write(w.record("kind", "verify"));
                w.embed("cert", certificate);
            }
            Request::Status => {
                w.record("kind", "status");
            }
            Request::CrashWorker { node } => {
                w.record("kind", "crash-worker").record("worker", node);
            }
            Request::Shutdown => {
                w.record("kind", "shutdown");
            }
        }
        w.end()
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A description of the structural violation.
    pub fn from_wire(text: &str) -> Result<Request, String> {
        Request::decode(text).map_err(|err| err.to_string())
    }

    fn decode(text: &str) -> Result<Request, FrameError> {
        let mut frame = Frame::parse(text, REQUEST_HEADER)?;
        let request = match frame.required("kind")?.only()? {
            "prepare" => Request::Prepare(PolyRequest::read(&mut frame)?),
            "verify" => {
                let poly = PolyRequest::read(&mut frame)?;
                let certificate = frame.embedded("cert");
                if certificate.is_empty() {
                    return Err(FrameError::Missing("cert"));
                }
                Request::Verify { poly, certificate }
            }
            "status" => Request::Status,
            "crash-worker" => Request::CrashWorker { node: frame.require("worker")? },
            "shutdown" => Request::Shutdown,
            _ => return Err(FrameError::Bad("kind")),
        };
        frame.finish()?;
        Ok(request)
    }
}

impl Response {
    /// A failure response carrying `error` (newlines flattened so the
    /// message stays one record).
    #[must_use]
    pub fn failure(error: &str) -> Response {
        Response { ok: false, error: Some(error.replace('\n', "; ")), ..Response::default() }
    }

    /// Serializes to the v1 text wire format.
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut w = FrameWriter::new(RESPONSE_HEADER);
        w.record("status", if self.ok { "ok" } else { "error" });
        if let Some(error) = &self.error {
            w.record("error", error.replace('\n', "; "));
        }
        if let Some(output) = self.output {
            w.record("output", output);
        }
        w.record("rounds", self.rounds)
            .record("coalesced", self.coalesced)
            .record("cache-hit", usize::from(self.cache_hit))
            .record("symbols", self.symbols)
            .record("bytes", self.bytes)
            .record("workers", self.workers)
            .record("respawns", self.respawns)
            .record("worker-failures", self.worker_failures)
            .record("requests", self.requests)
            .record("store-hits", self.store_hits)
            .record("store-misses", self.store_misses);
        if let Some(certificate) = &self.certificate {
            w.embed("cert", certificate);
        }
        w.end()
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// A description of the structural violation.
    pub fn from_wire(text: &str) -> Result<Response, String> {
        Response::decode(text).map_err(|err| err.to_string())
    }

    fn decode(text: &str) -> Result<Response, FrameError> {
        let mut frame = Frame::parse(text, RESPONSE_HEADER)?;
        let ok = match frame.required("status")?.only()? {
            "ok" => true,
            "error" => false,
            _ => return Err(FrameError::Bad("status")),
        };
        let response = Response {
            ok,
            error: frame.scalar("error")?.map(|record| record.text().to_string()),
            output: frame.number("output")?,
            rounds: frame.number("rounds")?.unwrap_or_default(),
            coalesced: frame.number("coalesced")?.unwrap_or_default(),
            cache_hit: frame.number::<usize>("cache-hit")?.is_some_and(|hit| hit != 0),
            symbols: frame.number("symbols")?.unwrap_or_default(),
            bytes: frame.number("bytes")?.unwrap_or_default(),
            workers: frame.number("workers")?.unwrap_or_default(),
            respawns: frame.number("respawns")?.unwrap_or_default(),
            worker_failures: frame.number("worker-failures")?.unwrap_or_default(),
            requests: frame.number("requests")?.unwrap_or_default(),
            store_hits: frame.number("store-hits")?.unwrap_or_default(),
            store_misses: frame.number("store-misses")?.unwrap_or_default(),
            certificate: Some(frame.embedded("cert")).filter(|text| !text.is_empty()),
        };
        frame.finish()?;
        Ok(response)
    }
}

/// Reads one frame (through its `end` line) from a buffered stream;
/// `Ok(None)` on a clean EOF before any bytes.
///
/// # Errors
///
/// I/O failures and mid-frame disconnects.
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<Option<String>, String> {
    frame::read_frame(reader).map_err(|err| format!("reading frame: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly() -> PolyRequest {
        PolyRequest {
            coefficients: vec![3, 1, 4],
            sum_count: 16,
            value_bits: 60,
            min_modulus: 1 << 20,
            schedule: PrimeSchedule::Smallest,
        }
    }

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Prepare(poly()),
            Request::Verify {
                poly: PolyRequest { schedule: PrimeSchedule::NttFriendly, ..poly() },
                certificate: "camelot-certificate v1\ncode-length 10\n".to_string(),
            },
            Request::Status,
            Request::CrashWorker { node: 3 },
            Request::Shutdown,
        ];
        for request in cases {
            assert_eq!(Request::from_wire(&request.to_wire()).unwrap(), request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let ok = Response {
            ok: true,
            output: Some(1u128 << 100),
            rounds: 5,
            coalesced: 2,
            cache_hit: true,
            symbols: 90,
            bytes: 1234,
            certificate: Some("camelot-certificate v1\ncode-length 10\n".to_string()),
            ..Response::default()
        };
        assert_eq!(Response::from_wire(&ok.to_wire()).unwrap(), ok);
        let err = Response::failure("worker 2 exploded\nbadly");
        let parsed = Response::from_wire(&err.to_wire()).unwrap();
        assert!(!parsed.ok);
        assert_eq!(parsed.error.as_deref(), Some("worker 2 exploded; badly"));
    }

    #[test]
    fn malformed_frames_error_out() {
        assert!(Request::from_wire("nope\nend\n").is_err());
        assert!(Request::from_wire("camelot-request v1\nkind prepare\nend\n").is_err());
        assert!(Request::from_wire("camelot-request v1\nkind verify\npoly 1\nvalue-bits 8\nend\n")
            .is_err());
        assert!(Request::from_wire("camelot-request v1\nkind warp\nend\n").is_err());
        assert!(Request::from_wire("camelot-request v1\nkind status\nworker 1\nend\n").is_err());
        assert!(Response::from_wire("camelot-response v1\nrounds x\nend\n").is_err());
    }

    /// A frame cut before its `end` is refused, never read as the value
    /// its first lines happen to spell: an answer with no end marker, or
    /// a response carrying the first half of its certificate.
    #[test]
    fn truncated_frames_are_refused() {
        assert!(Response::from_wire("camelot-response v1\nstatus ok\noutput 18813").is_err());
        let response = Response {
            ok: true,
            output: Some(18813),
            certificate: Some(
                "camelot-certificate v1\ncode-length 9\ndegree-bound 0\nfaulty\ncrashed\n\
                 proof 101 3\nend\n"
                    .to_string(),
            ),
            ..Response::default()
        };
        let wire = response.to_wire();
        let half = wire.find("cert crashed").unwrap();
        assert!(Response::from_wire(&wire[..half]).is_err());
        let request = Request::Verify { poly: poly(), certificate: response.certificate.unwrap() };
        let wire = request.to_wire();
        assert!(Request::from_wire(&wire[..wire.find("cert proof").unwrap()]).is_err());
        assert!(
            Request::from_wire("camelot-request v1\nkind prepare\npoly 1\nvalue-bits 8").is_err()
        );
    }
}
