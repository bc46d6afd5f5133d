//! A benchmark case: one problem with its reference answer, type-erased
//! so a workload can hold the catalogue's five different problem types.

use crate::replay::{replay_prepare, ReplayCounts};
use crate::trace::Tracer;
use camelot::cluster::{EvalProgram, Transport};
use camelot::core::{CamelotProblem, Certificate, Engine, EngineConfig, ProofSpec, RunReport};
use camelot::ff::PrimeField;
use camelot::store::{cert_key, CertKey};
use std::fmt::Debug;

pub struct Prepared {
    pub certificate: Certificate,
    pub report: RunReport,
}

/// Every method checks the answer it obtains against the oracle computed
/// in set-up and reports a mismatch as `Err`.
pub trait Case {
    /// The crate whose evaluator this case loads (`triangles`, `poly`…).
    fn family(&self) -> &'static str;

    /// `Engine::run`.
    fn prepare(&self, engine: &Engine) -> Result<Prepared, String>;

    /// `Engine::redeem` of a certificate in hand: Arthur's side.
    fn redeem(&self, engine: &Engine, certificate: &Certificate) -> Result<(), String>;

    /// The content address a store files this case's certificate under.
    fn key(&self, config: &EngineConfig) -> CertKey;

    fn spec(&self) -> ProofSpec;

    /// The programs a socket round ships for this case over `field`
    /// (`None` when the evaluator cannot cross a process boundary).
    fn programs(&self, field: &PrimeField) -> Option<Vec<EvalProgram>>;

    /// The traced replay of [`Case::prepare`].
    fn replay(
        &self,
        config: &EngineConfig,
        transport: &dyn Transport,
        tracer: &mut Tracer,
    ) -> Result<(Certificate, ReplayCounts), String>;
}

pub struct Checked<P: CamelotProblem> {
    pub family: &'static str,
    pub problem: P,
    /// The reference answer, from a method that shares no code with the
    /// proof pipeline.
    pub expect: P::Output,
    /// Canonical encoding of the input, for the content address.
    pub input: Vec<u8>,
}

impl<P: CamelotProblem> Checked<P>
where
    P::Output: PartialEq + Debug,
{
    fn check(&self, what: &str, got: &P::Output) -> Result<(), String> {
        if *got == self.expect {
            Ok(())
        } else {
            Err(format!("{} {what}: got {got:?}, reference says {:?}", self.family, self.expect))
        }
    }
}

impl<P: CamelotProblem> Case for Checked<P>
where
    P::Output: PartialEq + Debug,
{
    fn family(&self) -> &'static str {
        self.family
    }

    fn prepare(&self, engine: &Engine) -> Result<Prepared, String> {
        let outcome =
            engine.run(&self.problem).map_err(|e| format!("{} prepare: {e}", self.family))?;
        self.check("prepare", &outcome.output)?;
        Ok(Prepared { certificate: outcome.certificate, report: outcome.report })
    }

    fn redeem(&self, engine: &Engine, certificate: &Certificate) -> Result<(), String> {
        let outcome = engine
            .redeem(&self.problem, certificate)
            .map_err(|e| format!("{} redeem: {e}", self.family))?;
        self.check("redeem", &outcome.output)
    }

    fn key(&self, config: &EngineConfig) -> CertKey {
        cert_key(&[
            self.family.as_bytes(),
            &self.input,
            &(config.cluster.nodes as u64).to_le_bytes(),
            &(config.fault_tolerance as u64).to_le_bytes(),
        ])
    }

    fn spec(&self) -> ProofSpec {
        self.problem.spec()
    }

    fn programs(&self, field: &PrimeField) -> Option<Vec<EvalProgram>> {
        self.problem.evaluator(field).program().map(|program| vec![program])
    }

    fn replay(
        &self,
        config: &EngineConfig,
        transport: &dyn Transport,
        tracer: &mut Tracer,
    ) -> Result<(Certificate, ReplayCounts), String> {
        let replayed = replay_prepare(config, transport, &self.problem, tracer)
            .map_err(|e| format!("{} replay: {e}", self.family))?;
        self.check("replay", &replayed.output)?;
        Ok((replayed.certificate, replayed.counts))
    }
}
