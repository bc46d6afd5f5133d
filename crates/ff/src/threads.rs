//! Process-wide thread budget.
//!
//! Work splits across OS threads only at the paper's level: the
//! in-process parallel transport in `camelot-cluster` runs its nodes in
//! groups, and the engine decodes the lanes of a batch side by side.
//! Each node's evaluation and each decode is one sequential computation
//! (the algebra in `camelot-poly` never spawns a thread). Both splits
//! derive their worker count from the single budget held here, so one
//! environment variable governs the whole stack. The cell follows the
//! crossover-cell idiom of `camelot-poly::hgcd`: initialized once from
//! `CAMELOT_THREADS` (falling back to
//! [`std::thread::available_parallelism`]) and overridable at runtime
//! for benchmarks and tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn budget_cell() -> &'static AtomicUsize {
    static CELL: OnceLock<AtomicUsize> = OnceLock::new();
    CELL.get_or_init(|| {
        let from_env = std::env::var("CAMELOT_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        let detected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        AtomicUsize::new(from_env.unwrap_or(detected))
    })
}

/// The process-wide thread budget: the maximum number of OS threads one
/// node-group split or batch-lane split may occupy. Initialized from the
/// `CAMELOT_THREADS` environment variable when set (and positive),
/// otherwise from [`std::thread::available_parallelism`]; never zero.
#[must_use]
pub fn thread_budget() -> usize {
    budget_cell().load(Ordering::Relaxed).max(1)
}

/// Overrides the thread budget process-wide (benchmark fitting, tests,
/// and the CI threading matrix). Clamped to at least 1.
pub fn set_thread_budget(n: usize) {
    budget_cell().store(n.max(1), Ordering::Relaxed);
}

/// Worker count for a pass with `tasks` independent units of work: the
/// thread budget capped by the task count, and at least 1.
#[must_use]
pub fn worker_count(tasks: usize) -> usize {
    thread_budget().min(tasks).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_positive_and_overridable() {
        let original = thread_budget();
        assert!(original >= 1);
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        assert_eq!(worker_count(2), 2);
        assert_eq!(worker_count(100), 3);
        set_thread_budget(0); // clamps to 1
        assert_eq!(thread_budget(), 1);
        assert_eq!(worker_count(0), 1);
        set_thread_budget(original);
    }
}
