//! The workspace's one way to go parallel: independent jobs over scoped
//! threads, results in job order.
//!
//! A packet-level run is one thread (DESIGN.md, "Why a run is not split
//! across threads"); what parallelises is a *grid* of runs — the points of
//! a sweep, the cases of a fuzz campaign. Each is a pure function of its
//! index, so the merged result is byte-identical at any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `[f(0), f(1), …, f(n - 1)]`, computed on up to `jobs` threads.
///
/// Workers claim the next unclaimed index as they finish the last, so
/// uneven items (a fuzz case that also pays for its minimisation) do not
/// leave a worker idle behind a static chunk. A panic in `f` is re-raised
/// on the caller's thread once every worker has stopped.
pub fn ordered_par_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Relaxed: the counter hands out indices and publishes nothing else;
    // results reach the caller through the joins below.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break claimed;
                        }
                        claimed.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(claimed) => {
                    for (i, item) in claimed {
                        slots[i] = Some(item);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Item 0 does not finish until some later item has, so results
    /// complete out of index order whenever a second worker exists.
    fn out_of_order(n: usize, jobs: usize) -> Vec<usize> {
        let later_done = AtomicBool::new(jobs == 1 || n < 2);
        ordered_par_map(n, jobs, |i| {
            if i == 0 {
                while !later_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            } else {
                later_done.store(true, Ordering::Release);
            }
            i * i
        })
    }

    #[test]
    fn results_are_in_index_order_at_any_job_count() {
        let expected: Vec<usize> = (0..40).map(|i| i * i).collect();
        for jobs in [1, 2, 7] {
            assert_eq!(out_of_order(40, jobs), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn no_items_and_more_jobs_than_items() {
        assert_eq!(ordered_par_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(ordered_par_map(3, 0, |i| i), vec![0, 1, 2]);
        assert_eq!(out_of_order(3, 16), vec![0, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_propagates_to_the_caller() {
        ordered_par_map(12, 2, |i| {
            assert!(i != 5, "item {i} failed");
            i
        });
    }
}
