//! Process-wide thread budget, and the one thread split.
//!
//! Work splits across OS threads only at the paper's level: the
//! in-process bus evaluates its nodes' slices side by side, and the
//! engine decodes the lanes of a batch side by side. Each node's
//! evaluation and each decode is one sequential computation (the algebra
//! in `camelot-poly` never spawns a thread). Both splits go through
//! [`split_map`], which derives its worker count from the single budget
//! held here, so one environment variable governs the whole stack. The
//! budget is initialized once from `CAMELOT_THREADS` (falling back to
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
/// [`split_map`] may occupy. Initialized from the
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

/// Maps `f` over `items` across up to [`worker_count`]`(items.len())`
/// scoped threads and returns the results in input order.
///
/// The items split into that many contiguous groups, one thread per
/// group; with one worker the map runs inline on the calling thread and
/// spawns nothing. The output equals `items.into_iter().map(f)` whatever
/// the budget. A panic in `f` resumes unwinding in the caller once every
/// group has finished.
pub fn split_map<A: Send, R: Send>(items: Vec<A>, f: impl Fn(A) -> R + Sync) -> Vec<R> {
    split_into(worker_count(items.len()), items, &f)
}

/// [`split_map`] over exactly `workers` groups (at most one per item).
fn split_into<A: Send, R: Send>(
    workers: usize,
    items: Vec<A>,
    f: &(impl Fn(A) -> R + Sync),
) -> Vec<R> {
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let group = items.len().div_ceil(workers);
    let mut items = items.into_iter();
    let groups: Vec<Vec<A>> = std::iter::repeat_with(|| items.by_ref().take(group).collect())
        .take_while(|g: &Vec<A>| !g.is_empty())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|g| scope.spawn(move || g.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn split_map_equals_the_sequential_map_in_order() {
        for len in 0..10u64 {
            let items: Vec<u64> = (0..len).collect();
            let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            for workers in 1..=5 {
                assert_eq!(
                    split_into(workers, items.clone(), &|x| x * x + 1),
                    want,
                    "{len}/{workers}"
                );
            }
            assert_eq!(split_map(items, |x| x * x + 1), want, "{len} at the budget");
        }
    }

    #[test]
    fn a_panicking_item_unwinds_into_the_caller() {
        for workers in 1..=5 {
            let caught = catch_unwind(|| {
                split_into(workers, (0..9).collect(), &|x: u32| {
                    assert!(x != 6, "item six failed");
                    x
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("item six failed"), "{workers} workers");
        }
    }

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
