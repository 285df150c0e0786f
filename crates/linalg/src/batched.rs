//! The batched launch: one shape for every fan-out of independent jobs that
//! own mutable state.
//!
//! The sharded inverse iteration launches many independent pieces of a dense
//! solve per MD step (one spectrum shard per leased thread). It goes through
//! [`batch_map`], which pins the semantics it relies on:
//!
//! * **Ordered**: results come back in job order regardless of the thread
//!   partition.
//! * **Deterministic**: each job runs exactly once against its own
//!   workspace; nothing can split or reorder a job's arithmetic, so the
//!   result is bitwise the same at every width.
//! * **Allocation-shape stable**: jobs borrow caller-owned workspaces;
//!   the launcher allocates only the O(jobs) cell vector.

/// Run `f` once per job on `width` threads of the team
/// ([`crate::team::chunks_for_each`], one job per chunk), returning results
/// in job order. `f(idx, job)` gets the job's index in the batch so callers
/// can seed or label per-job state deterministically. Callers pass
/// [`crate::team::width`] to take what their compute lease allows, 1 to stay
/// on the calling thread; by the determinism contract above the width
/// changes scheduling, never numerics.
pub fn batch_map<J, T, F>(width: usize, jobs: &mut [J], f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(usize, &mut J) -> T + Sync,
{
    let mut cells: Vec<(&mut J, Option<T>)> = jobs.iter_mut().map(|job| (job, None)).collect();
    crate::team::chunks_for_each(width, &mut cells, 1, |idx, cell| {
        let (job, out) = &mut cell[0];
        *out = Some(f(idx, job));
    });
    cells
        .into_iter()
        .map(|(_, out)| out.expect("batch_map job did not run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_map_preserves_job_order() {
        let mut jobs: Vec<usize> = (0..17).collect();
        let out = batch_map(crate::team::width(), &mut jobs, |idx, j| {
            assert_eq!(idx, *j);
            idx * 3
        });
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }
}
