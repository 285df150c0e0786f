//! The batched launch: one shape for every fan-out of independent jobs.
//!
//! Two places launch many independent pieces of a dense solve per MD step:
//! the k-point calculator (one Hermitian embedding per k-point) and the
//! sharded inverse iteration (one spectrum shard per leased thread). Both
//! go through [`batch_map`], which pins the semantics they rely on:
//!
//! * **Ordered**: results come back in job order regardless of the thread
//!   partition.
//! * **Deterministic**: each job runs exactly once against its own
//!   workspace; no work stealing can split or reorder a job's arithmetic,
//!   so the parallel launch is bitwise identical to the serial one.
//! * **Allocation-shape stable**: jobs borrow caller-owned workspaces;
//!   the launcher allocates only the O(jobs) cell vector.

use rayon::prelude::*;

/// Run `f` once per job, optionally in parallel, returning results in job
/// order. `f(idx, job)` gets the job's index in the batch so callers can
/// seed or label per-job state deterministically.
///
/// A parallel request is additionally gated on the process compute budget
/// ([`crate::budget::parallel_allowed`]): a caller running under a width-1
/// lease is silently demoted to the serial launch, which is bitwise
/// identical by the determinism contract above — the budget changes
/// scheduling, never numerics.
pub fn batch_map<J, T, F>(parallel: bool, jobs: &mut [J], f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(usize, &mut J) -> T + Sync,
{
    let parallel = parallel && crate::budget::parallel_allowed();
    struct Cell<'a, J, T> {
        idx: usize,
        job: &'a mut J,
        out: Option<T>,
    }
    let mut cells: Vec<Cell<'_, J, T>> = jobs
        .iter_mut()
        .enumerate()
        .map(|(idx, job)| Cell {
            idx,
            job,
            out: None,
        })
        .collect();
    if parallel {
        cells
            .par_iter_mut()
            .for_each(|c| c.out = Some(f(c.idx, c.job)));
    } else {
        for c in cells.iter_mut() {
            c.out = Some(f(c.idx, c.job));
        }
    }
    cells
        .into_iter()
        .map(|c| c.out.expect("batch_map job did not run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_map_preserves_job_order() {
        let mut jobs: Vec<usize> = (0..17).collect();
        let out = batch_map(true, &mut jobs, |idx, j| {
            assert_eq!(idx, *j);
            idx * 3
        });
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }
}
