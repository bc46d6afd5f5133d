//! A portable wire format for certificates.
//!
//! The paper's proof is a *static* object: “a static, independently
//! veriﬁable proof that the computation succeeded” (§1.2). This module
//! serializes a [`Certificate`] to a plain-text format any party can
//! archive, ship, and re-verify later with [`crate::spot_check`] —
//! without trusting the cluster that produced it.
//!
//! A certificate is a frame in the grammar of
//! [`camelot_cluster::frame`]; its records:
//!
//! ```text
//! camelot-certificate v1
//! code-length <e>
//! degree-bound <d>
//! faulty <node> <node> ...
//! crashed <node> ...
//! proof <q> <p0> <p1> ... <pd>
//! proof <q'> ...
//! end
//! ```
//!
//! `proof` repeats, at least once; every other record appears exactly
//! once.

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

use crate::engine::Certificate;
use crate::error::CamelotError;
use crate::problem::PrimeProof;
use camelot_cluster::frame::{Frame, FrameError, FrameWriter};
use camelot_ff::MAX_MODULUS;

/// Magic header line.
const HEADER: &str = "camelot-certificate v1";

impl Certificate {
    /// Serializes to the v1 text wire format.
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut w = FrameWriter::new(HEADER);
        w.record("code-length", self.code_length)
            .record("degree-bound", self.degree_bound)
            .numbers("faulty", &self.identified_faulty_nodes)
            .numbers("crashed", &self.crashed_nodes);
        for proof in &self.proofs {
            w.numbers(format_args!("proof {}", proof.modulus), &proof.coefficients);
        }
        w.end()
    }

    /// Parses the v1 text wire format.
    ///
    /// # Errors
    ///
    /// Returns [`CamelotError::MalformedProof`] for any structural
    /// violation: wrong header, missing sections, non-numeric fields, a
    /// modulus outside `2..MAX_MODULUS`, out-of-range coefficients, or
    /// degrees above the recorded bound.
    pub fn from_wire(text: &str) -> Result<Certificate, CamelotError> {
        Certificate::decode(text)
            .map_err(|err| CamelotError::MalformedProof { reason: err.to_string() })
    }

    fn decode(text: &str) -> Result<Certificate, FrameError> {
        let mut frame = Frame::parse(text, HEADER)?;
        let code_length = frame.require("code-length")?;
        let degree_bound: usize = frame.require("degree-bound")?;
        let identified_faulty_nodes = frame.required("faulty")?.numbers()?;
        let crashed_nodes = frame.required("crashed")?.numbers()?;
        let proofs = frame
            .repeated("proof")
            .map(|mut record| {
                let modulus: u64 = record.number()?;
                let bad = record.bad();
                let coefficients: Vec<u64> = record.numbers()?;
                if !(2..MAX_MODULUS).contains(&modulus)
                    || coefficients.iter().any(|&c| c >= modulus)
                    || coefficients.len().saturating_sub(1) > degree_bound
                {
                    return Err(bad);
                }
                Ok(PrimeProof { modulus, coefficients })
            })
            .collect::<Result<Vec<_>, _>>()?;
        frame.finish()?;
        if proofs.is_empty() {
            return Err(FrameError::Missing("proof"));
        }
        Ok(Certificate {
            proofs,
            code_length,
            degree_bound,
            identified_faulty_nodes,
            crashed_nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            proofs: vec![
                PrimeProof { modulus: 101, coefficients: vec![1, 2, 3] },
                PrimeProof { modulus: 103, coefficients: vec![9, 0, 55] },
            ],
            code_length: 9,
            degree_bound: 2,
            identified_faulty_nodes: vec![3, 7],
            crashed_nodes: vec![],
        }
    }

    #[test]
    fn roundtrip() {
        let cert = sample();
        let wire = cert.to_wire();
        assert_eq!(Certificate::from_wire(&wire).unwrap(), cert);
    }

    #[test]
    fn roundtrip_empty_sections_and_zero_coeffs() {
        let cert = Certificate {
            proofs: vec![PrimeProof { modulus: 2, coefficients: vec![] }],
            code_length: 1,
            degree_bound: 0,
            identified_faulty_nodes: vec![],
            crashed_nodes: vec![0, 1, 2],
        };
        assert_eq!(Certificate::from_wire(&cert.to_wire()).unwrap(), cert);
    }

    #[test]
    fn header_required() {
        assert!(matches!(
            Certificate::from_wire("nope\nend\n"),
            Err(CamelotError::MalformedProof { .. })
        ));
    }

    #[test]
    fn truncated_certificate_rejected() {
        let wire = sample().to_wire();
        let truncated = &wire[..wire.len() - 4]; // drop "end\n"
        assert!(matches!(
            Certificate::from_wire(truncated),
            Err(CamelotError::MalformedProof { .. })
        ));
    }

    #[test]
    fn out_of_range_coefficient_rejected() {
        let wire = sample().to_wire().replace("proof 101 1 2 3", "proof 101 1 2 200");
        assert!(matches!(Certificate::from_wire(&wire), Err(CamelotError::MalformedProof { .. })));
        // The zero coefficient lifted to exactly the modulus.
        let wire = sample().to_wire().replace("proof 103 9 0 55", "proof 103 9 103 55");
        assert!(matches!(Certificate::from_wire(&wire), Err(CamelotError::MalformedProof { .. })));
    }

    /// A modulus no `PrimeField` can carry never leaves the parser:
    /// `0` and `1` (no field; `0` also underflows a bit count) and
    /// anything from `MAX_MODULUS` up (outside the Barrett headroom).
    #[test]
    fn out_of_range_modulus_rejected() {
        for modulus in [0, 1, MAX_MODULUS, u64::MAX] {
            let wire = sample().to_wire().replace("proof 101 1 2 3", &format!("proof {modulus}"));
            assert!(
                matches!(Certificate::from_wire(&wire), Err(CamelotError::MalformedProof { .. })),
                "modulus {modulus}"
            );
        }
        let wire = sample().to_wire().replace("proof 101 1 2 3", "proof 2 1");
        assert_eq!(Certificate::from_wire(&wire).unwrap().proofs[0].modulus, 2);
    }

    #[test]
    fn degree_violation_rejected() {
        let wire = sample().to_wire().replace("proof 101 1 2 3", "proof 101 1 2 3 4 5");
        assert!(matches!(Certificate::from_wire(&wire), Err(CamelotError::MalformedProof { .. })));
        // Degree d + 1, one past the bound, refused by the parser itself.
        let wire = sample().to_wire().replace("proof 101 1 2 3", "proof 101 1 2 3 4");
        assert!(matches!(Certificate::from_wire(&wire), Err(CamelotError::MalformedProof { .. })));
    }

    #[test]
    fn garbage_section_rejected() {
        let wire = sample().to_wire().replace("crashed", "cursed");
        assert!(matches!(Certificate::from_wire(&wire), Err(CamelotError::MalformedProof { .. })));
    }
}
