//! A portable wire format for certificates.
//!
//! The paper's proof is a *static* object: “a static, independently
//! veriﬁable proof that the computation succeeded” (§1.2). This module
//! serializes a [`Certificate`] to a plain-text format any party can
//! archive, ship, and re-verify later with [`crate::spot_check`] —
//! without trusting the cluster that produced it.
//!
//! Format (line-oriented, ASCII):
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

use crate::engine::Certificate;
use crate::error::CamelotError;
use crate::problem::PrimeProof;
use camelot_ff::MAX_MODULUS;

/// Magic header line.
const HEADER: &str = "camelot-certificate v1";

impl Certificate {
    /// Serializes to the v1 text wire format.
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("code-length {}\n", self.code_length));
        out.push_str(&format!("degree-bound {}\n", self.degree_bound));
        out.push_str("faulty");
        for node in &self.identified_faulty_nodes {
            out.push_str(&format!(" {node}"));
        }
        out.push('\n');
        out.push_str("crashed");
        for node in &self.crashed_nodes {
            out.push_str(&format!(" {node}"));
        }
        out.push('\n');
        for proof in &self.proofs {
            out.push_str(&format!("proof {}", proof.modulus));
            for &c in &proof.coefficients {
                out.push_str(&format!(" {c}"));
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
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
        let malformed = |reason: &str| CamelotError::MalformedProof { reason: reason.to_string() };
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(malformed("missing certificate header"));
        }
        let mut code_length: Option<usize> = None;
        let mut degree_bound: Option<usize> = None;
        let mut faulty: Option<Vec<usize>> = None;
        let mut crashed: Option<Vec<usize>> = None;
        let mut proofs: Vec<PrimeProof> = Vec::new();
        let mut ended = false;
        for line in lines {
            let mut parts = line.split_ascii_whitespace();
            match parts.next() {
                Some("code-length") => {
                    code_length = Some(parse_usize(parts.next(), "code-length")?);
                }
                Some("degree-bound") => {
                    degree_bound = Some(parse_usize(parts.next(), "degree-bound")?);
                }
                Some("faulty") => {
                    faulty = Some(parse_usize_list(parts)?);
                }
                Some("crashed") => {
                    crashed = Some(parse_usize_list(parts)?);
                }
                Some("proof") => {
                    let modulus = parts
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| malformed("proof line missing modulus"))?;
                    if !(2..MAX_MODULUS).contains(&modulus) {
                        return Err(malformed("modulus outside the supported field range"));
                    }
                    let mut coefficients = Vec::new();
                    for tok in parts {
                        let c =
                            tok.parse::<u64>().map_err(|_| malformed("non-numeric coefficient"))?;
                        if c >= modulus {
                            return Err(malformed("coefficient out of field range"));
                        }
                        coefficients.push(c);
                    }
                    proofs.push(PrimeProof { modulus, coefficients });
                }
                Some("end") => {
                    ended = true;
                    break;
                }
                Some(other) => {
                    return Err(CamelotError::MalformedProof {
                        reason: format!("unknown section {other:?}"),
                    });
                }
                None => {} // blank line tolerated
            }
        }
        if !ended {
            return Err(malformed("missing end marker"));
        }
        let code_length = code_length.ok_or_else(|| malformed("missing code-length"))?;
        let degree_bound = degree_bound.ok_or_else(|| malformed("missing degree-bound"))?;
        if proofs.is_empty() {
            return Err(malformed("certificate carries no proofs"));
        }
        for proof in &proofs {
            if proof.coefficients.len() > degree_bound + 1 {
                return Err(malformed("proof degree exceeds the recorded bound"));
            }
        }
        Ok(Certificate {
            proofs,
            code_length,
            degree_bound,
            identified_faulty_nodes: faulty.ok_or_else(|| malformed("missing faulty section"))?,
            crashed_nodes: crashed.ok_or_else(|| malformed("missing crashed section"))?,
        })
    }
}

fn parse_usize(tok: Option<&str>, what: &str) -> Result<usize, CamelotError> {
    tok.and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| CamelotError::MalformedProof { reason: format!("bad {what} field") })
}

fn parse_usize_list<'a>(parts: impl Iterator<Item = &'a str>) -> Result<Vec<usize>, CamelotError> {
    parts
        .map(|tok| {
            tok.parse::<usize>().map_err(|_| CamelotError::MalformedProof {
                reason: "non-numeric node id".to_string(),
            })
        })
        .collect()
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
    }

    #[test]
    fn garbage_section_rejected() {
        let wire = sample().to_wire().replace("crashed", "cursed");
        assert!(matches!(Certificate::from_wire(&wire), Err(CamelotError::MalformedProof { .. })));
    }
}
