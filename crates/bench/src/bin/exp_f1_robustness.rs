//! Experiment F1 — robustness (§1.3 step 2 of the paper).
//!
//! Claim: with `e = d + 1 + 2f` evaluations, proof preparation tolerates
//! up to `f` byzantine corruptions — every honest node decodes the true
//! proof AND identifies exactly the failed nodes; one corruption past the
//! radius breaks unique decoding.

use camelot_bench::Table;
use camelot_cluster::FaultPlan;
use camelot_core::{CamelotProblem, Engine, EngineConfig};
use camelot_graph::gen;
use camelot_triangles::TriangleCount;

fn main() {
    let g = gen::gnm(10, 24, 42);
    let problem = TriangleCount::new(&g);
    let nodes = 40usize;
    let budget = 10usize; // f = 10 symbol errors
    let spec = problem.spec();
    let e = spec.degree_bound + 1 + 2 * budget;
    // Each node owns ~e/nodes symbols; corrupting c nodes costs
    // ceil(e/nodes)*c symbol errors.
    let per_node = e.div_ceil(nodes);
    let mut table = Table::new(&[
        "corrupt nodes",
        "symbol errors",
        "radius f=10",
        "decoded",
        "identified correctly",
    ]);
    for corrupt in 0..=6usize {
        let plan = FaultPlan::random_corrupt(nodes, corrupt, 7 + corrupt as u64);
        let expected: Vec<usize> = plan.faulty_nodes();
        let config = EngineConfig::sequential(nodes, budget).with_plan(plan).with_full_decoding();
        let result = Engine::new(config).run(&problem);
        let (decoded, identified) = match &result {
            Ok(out) => (
                "yes".to_string(),
                if out.certificate.identified_faulty_nodes == expected {
                    "yes".to_string()
                } else {
                    format!("NO: {:?}", out.certificate.identified_faulty_nodes)
                },
            ),
            Err(e) => (format!("no ({e})"), "-".to_string()),
        };
        table.row(&[
            corrupt.to_string(),
            (corrupt * per_node).to_string(),
            (corrupt * per_node <= budget).to_string(),
            decoded,
            identified,
        ]);
    }
    table.print("F1: byzantine corruption sweep (triangle proof, e = d+1+2f)");
    println!("paper claim: decode + identification succeed iff errors <= (e-d-1)/2");
}
