//! Running independent simulation jobs on a pool of threads.
//!
//! Every world is single-threaded and independently seeded, so workers never
//! contend on anything but the job cursor, and parallelism cannot change a
//! result — only the order results become available in, which [`run_jobs`]
//! hides by returning them in job order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to every job on `workers` threads (`0` = one per available
/// core, clamped to `1..=jobs.len()`) and return the results in job order.
/// Jobs are claimed in slice order, so the slice order is the execution
/// order a single worker sees. A panic in `f` propagates to the caller with
/// its original payload.
pub fn run_jobs<J, T, F>(jobs: &[J], workers: usize, f: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
    .clamp(1, jobs.len().max(1));
    if workers == 1 {
        return jobs.iter().map(f).collect();
    }
    // The cursor publishes nothing but itself, so Relaxed suffices; results
    // travel through the join.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        local.push((i, f(job)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [0, 1, 3, jobs.len() + 5] {
            assert_eq!(run_jobs(&jobs, workers, |j| j * j), expect, "workers = {workers}");
        }
    }

    #[test]
    fn empty_job_list_yields_no_results() {
        for workers in [0, 1, 4] {
            assert!(run_jobs(&[] as &[u8], workers, |j| *j).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_propagates() {
        let jobs: Vec<u32> = (0..8).collect();
        run_jobs(&jobs, 3, |&j| {
            assert!(j != 5, "job {j} failed");
            j
        });
    }
}
