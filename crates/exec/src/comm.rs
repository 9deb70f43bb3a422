//! Group-scoped collective operations over shared memory.
//!
//! A [`GroupComm`] is the shared-memory analogue of an MPI communicator for
//! one group of workers.  Data moves through a slot buffer of `AtomicU64`
//! cells (f64 bit patterns): every rank writes only its own disjoint slot,
//! a barrier publishes the writes (the barrier's acquire/release pairing
//! provides the happens-before edge), then every rank reads what it needs.
//! A trailing barrier prevents a fast rank from starting the next operation
//! and overwriting slots a slow rank still reads.
//!
//! # Abortability
//!
//! Unlike MPI, collectives here are *abortable*: the internal barrier is an
//! [`EpochBarrier`] that can be poisoned when a peer of the group fails.
//! Every collective has two forms:
//!
//! * a `try_*` form returning `Result<_, CollectiveAborted>`, for callers
//!   that handle aborts themselves, and
//! * the classic infallible form, which **unwinds** with a
//!   [`CollectiveAborted`] sentinel payload when the communicator is
//!   poisoned.  Task code using the infallible API therefore never hangs on
//!   a dead peer; the [`Team`](crate::Team) runtime catches the sentinel
//!   and reports the originating failure as a typed
//!   [`ExecError`](crate::ExecError).
//!
//! After a failed run the runtime calls [`GroupComm::reset`] (once no
//! thread can be inside a collective) so the same communicator — and hence
//! the caller's [`Program`](crate::Program) — is reusable for the next
//! attempt.

use crate::barrier::EpochBarrier;
use crate::error::CollectiveAborted;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Shared-memory communicator of one worker group.
pub struct GroupComm {
    size: usize,
    barrier: EpochBarrier,
    /// Slot buffer: `size` logical slots of `stride` f64 values each.
    slots: RwLock<Vec<AtomicU64>>,
}

impl std::fmt::Debug for GroupComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupComm")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

/// Unwind with the abort sentinel (skips the panic hook — this is control
/// flow, not a bug report).
fn abort_unwind() -> ! {
    std::panic::resume_unwind(Box::new(CollectiveAborted))
}

impl GroupComm {
    /// Communicator for a group of `size` ranks.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "group needs at least one rank");
        GroupComm {
            size,
            barrier: EpochBarrier::new(size),
            slots: RwLock::new(Vec::new()),
        }
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.size
    }

    fn slots_read(&self) -> std::sync::RwLockReadGuard<'_, Vec<AtomicU64>> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison the communicator: peers blocked in (or later entering) a
    /// collective abort instead of waiting for a rank that will never
    /// arrive.  Called by the runtime when a group member fails.
    pub fn poison(&self) {
        self.barrier.poison();
    }

    /// Whether the communicator is poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.barrier.is_poisoned()
    }

    /// Clear poison, making the communicator reusable.  Only sound once no
    /// thread is inside a collective (the runtime guarantees this by
    /// resetting only after all workers of a failed run reported back).
    pub fn reset(&self) {
        self.barrier.reset();
    }

    /// Synchronise all ranks of the group.
    ///
    /// # Panics
    /// Unwinds with a [`CollectiveAborted`] sentinel if the communicator is
    /// poisoned (see the module docs).
    pub fn barrier(&self) {
        if self.try_barrier().is_err() {
            abort_unwind();
        }
    }

    /// Synchronise all ranks; `Err` if the communicator is (or becomes)
    /// poisoned.
    pub fn try_barrier(&self) -> Result<(), CollectiveAborted> {
        self.barrier.wait().map_err(|_| CollectiveAborted)
    }

    /// Grow the slot buffer to at least `total` f64 cells.  Collective: all
    /// ranks must call with the same value.
    fn ensure_capacity(&self, rank: usize, total: usize) -> Result<(), CollectiveAborted> {
        if self.slots_read().len() >= total {
            // Everyone sees the same length (growth only happens inside
            // this collective), so all ranks take the same branch.
            return Ok(());
        }
        self.try_barrier()?;
        if rank == 0 {
            let mut w = self.slots.write().unwrap_or_else(PoisonError::into_inner);
            while w.len() < total {
                w.push(AtomicU64::new(0));
            }
        }
        self.try_barrier()
    }

    /// Allgather with equal block sizes: rank `r` contributes `src`;
    /// afterwards `dst[r*len..(r+1)*len]` holds rank `r`'s block for all
    /// ranks.  `dst.len()` must be `size * src.len()`.
    ///
    /// # Panics
    /// Unwinds with a [`CollectiveAborted`] sentinel if the communicator is
    /// poisoned; panics on mismatched buffer lengths (programmer error).
    pub fn allgather(&self, rank: usize, src: &[f64], dst: &mut [f64]) {
        if self.try_allgather(rank, src, dst).is_err() {
            abort_unwind();
        }
    }

    /// Fallible form of [`allgather`](Self::allgather).
    pub fn try_allgather(
        &self,
        rank: usize,
        src: &[f64],
        dst: &mut [f64],
    ) -> Result<(), CollectiveAborted> {
        let len = src.len();
        assert_eq!(
            dst.len(),
            self.size * len,
            "dst must hold one block per rank"
        );
        let counts = vec![len; self.size];
        self.try_allgatherv(rank, src, &counts, dst)
    }

    /// Allgather with per-rank block sizes (`MPI_Allgatherv`): rank `r`
    /// contributes `src` (`src.len() == counts[r]`); `dst` receives the
    /// blocks concatenated in rank order.
    ///
    /// # Panics
    /// Unwinds with a [`CollectiveAborted`] sentinel if the communicator is
    /// poisoned; panics on mismatched buffer lengths (programmer error).
    pub fn allgatherv(&self, rank: usize, src: &[f64], counts: &[usize], dst: &mut [f64]) {
        if self.try_allgatherv(rank, src, counts, dst).is_err() {
            abort_unwind();
        }
    }

    /// Fallible form of [`allgatherv`](Self::allgatherv).
    pub fn try_allgatherv(
        &self,
        rank: usize,
        src: &[f64],
        counts: &[usize],
        dst: &mut [f64],
    ) -> Result<(), CollectiveAborted> {
        assert_eq!(counts.len(), self.size, "one count per rank");
        assert_eq!(src.len(), counts[rank], "src must match counts[rank]");
        let total: usize = counts.iter().sum();
        assert_eq!(dst.len(), total, "dst must hold all blocks");
        if self.size == 1 {
            dst.copy_from_slice(src);
            return Ok(());
        }
        self.ensure_capacity(rank, total)?;
        let offset: usize = counts[..rank].iter().sum();
        {
            let slots = self.slots_read();
            for (i, &v) in src.iter().enumerate() {
                slots[offset + i].store(v.to_bits(), Ordering::Relaxed);
            }
        }
        self.try_barrier()?;
        {
            let slots = self.slots_read();
            for (i, d) in dst.iter_mut().enumerate() {
                *d = f64::from_bits(slots[i].load(Ordering::Relaxed));
            }
        }
        self.try_barrier()
    }

    /// Broadcast `buf` from `root` to all ranks.
    ///
    /// # Panics
    /// Unwinds with a [`CollectiveAborted`] sentinel if the communicator is
    /// poisoned; panics if `root` is out of range (programmer error).
    pub fn bcast(&self, rank: usize, root: usize, buf: &mut [f64]) {
        if self.try_bcast(rank, root, buf).is_err() {
            abort_unwind();
        }
    }

    /// Fallible form of [`bcast`](Self::bcast).
    pub fn try_bcast(
        &self,
        rank: usize,
        root: usize,
        buf: &mut [f64],
    ) -> Result<(), CollectiveAborted> {
        assert!(root < self.size, "root out of range");
        if self.size == 1 {
            return Ok(());
        }
        self.ensure_capacity(rank, buf.len())?;
        if rank == root {
            let slots = self.slots_read();
            for (i, &v) in buf.iter().enumerate() {
                slots[i].store(v.to_bits(), Ordering::Relaxed);
            }
        }
        self.try_barrier()?;
        if rank != root {
            let slots = self.slots_read();
            for (i, d) in buf.iter_mut().enumerate() {
                *d = f64::from_bits(slots[i].load(Ordering::Relaxed));
            }
        }
        self.try_barrier()
    }

    /// Element-wise sum-allreduce of `buf` across the group.
    ///
    /// # Panics
    /// Unwinds with a [`CollectiveAborted`] sentinel if the communicator is
    /// poisoned.
    pub fn allreduce_sum(&self, rank: usize, buf: &mut [f64]) {
        if self.try_allreduce_sum(rank, buf).is_err() {
            abort_unwind();
        }
    }

    /// Fallible form of [`allreduce_sum`](Self::allreduce_sum).
    pub fn try_allreduce_sum(&self, rank: usize, buf: &mut [f64]) -> Result<(), CollectiveAborted> {
        if self.size == 1 {
            return Ok(());
        }
        let n = buf.len();
        let mut gathered = vec![0.0; n * self.size];
        let src = buf.to_vec();
        self.try_allgather(rank, &src, &mut gathered)?;
        for (i, d) in buf.iter_mut().enumerate() {
            *d = (0..self.size).map(|r| gathered[r * n + i]).sum();
        }
        Ok(())
    }

    /// Max-allreduce of a scalar.
    ///
    /// # Panics
    /// Unwinds with a [`CollectiveAborted`] sentinel if the communicator is
    /// poisoned.
    pub fn allreduce_max_scalar(&self, rank: usize, v: f64) -> f64 {
        match self.try_allreduce_max_scalar(rank, v) {
            Ok(m) => m,
            Err(_) => abort_unwind(),
        }
    }

    /// Fallible form of [`allreduce_max_scalar`](Self::allreduce_max_scalar).
    pub fn try_allreduce_max_scalar(&self, rank: usize, v: f64) -> Result<f64, CollectiveAborted> {
        if self.size == 1 {
            return Ok(v);
        }
        let mut gathered = vec![0.0; self.size];
        self.try_allgather(rank, &[v], &mut gathered)?;
        Ok(gathered.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn run_spmd(q: usize, f: impl Fn(usize, &GroupComm) + Send + Sync + 'static) {
        let comm = Arc::new(GroupComm::new(q));
        let f = Arc::new(f);
        let handles: Vec<_> = (0..q)
            .map(|r| {
                let comm = comm.clone();
                let f = f.clone();
                std::thread::spawn(move || f(r, &comm))
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        run_spmd(4, |rank, comm| {
            let src = [rank as f64, rank as f64 + 0.5];
            let mut dst = vec![0.0; 8];
            comm.allgather(rank, &src, &mut dst);
            assert_eq!(dst, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);
        });
    }

    #[test]
    fn allgatherv_uneven_blocks() {
        run_spmd(3, |rank, comm| {
            let counts = [1usize, 2, 3];
            let src: Vec<f64> = (0..counts[rank]).map(|i| (rank * 10 + i) as f64).collect();
            let mut dst = vec![0.0; 6];
            comm.allgatherv(rank, &src, &counts, &mut dst);
            assert_eq!(dst, vec![0.0, 10.0, 11.0, 20.0, 21.0, 22.0]);
        });
    }

    #[test]
    fn bcast_from_nonzero_root() {
        run_spmd(4, |rank, comm| {
            let mut buf = if rank == 2 {
                vec![7.0, 8.0, 9.0]
            } else {
                vec![0.0; 3]
            };
            comm.bcast(rank, 2, &mut buf);
            assert_eq!(buf, vec![7.0, 8.0, 9.0]);
        });
    }

    #[test]
    fn allreduce_sum_matches_sequential() {
        run_spmd(4, |rank, comm| {
            let mut buf = vec![rank as f64, 1.0];
            comm.allreduce_sum(rank, &mut buf);
            assert_eq!(buf, vec![6.0, 4.0]);
        });
    }

    #[test]
    fn allreduce_max_scalar() {
        run_spmd(5, |rank, comm| {
            let m = comm.allreduce_max_scalar(rank, rank as f64 * 1.5);
            assert_eq!(m, 6.0);
        });
    }

    #[test]
    fn repeated_collectives_do_not_corrupt() {
        run_spmd(4, |rank, comm| {
            for round in 0..50 {
                let src = [(rank * 100 + round) as f64];
                let mut dst = vec![0.0; 4];
                comm.allgather(rank, &src, &mut dst);
                for (r, &v) in dst.iter().enumerate() {
                    assert_eq!(v, (r * 100 + round) as f64, "round {round}");
                }
            }
        });
    }

    #[test]
    fn growing_message_sizes_reallocate_safely() {
        run_spmd(3, |rank, comm| {
            for len in [1usize, 8, 64, 17, 256] {
                let src = vec![rank as f64; len];
                let mut dst = vec![0.0; 3 * len];
                comm.allgather(rank, &src, &mut dst);
                for r in 0..3 {
                    assert!(dst[r * len..(r + 1) * len].iter().all(|&v| v == r as f64));
                }
            }
        });
    }

    #[test]
    fn single_rank_group_short_circuits() {
        let comm = GroupComm::new(1);
        let mut dst = vec![0.0; 2];
        comm.allgather(0, &[1.0, 2.0], &mut dst);
        assert_eq!(dst, vec![1.0, 2.0]);
        let mut b = vec![3.0];
        comm.bcast(0, 0, &mut b);
        assert_eq!(b, vec![3.0]);
        comm.barrier(); // must not deadlock
    }

    #[test]
    fn poison_aborts_blocked_peer() {
        let comm = Arc::new(GroupComm::new(2));
        let peer = {
            let comm = comm.clone();
            std::thread::spawn(move || {
                // Rank 0 enters the collective; rank 1 never will.
                let mut dst = vec![0.0; 2];
                comm.try_allgather(0, &[1.0], &mut dst)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        comm.poison();
        assert_eq!(peer.join().unwrap(), Err(CollectiveAborted));
    }

    #[test]
    fn infallible_wrapper_unwinds_with_sentinel() {
        let comm = GroupComm::new(2);
        comm.poison();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comm.barrier();
        }))
        .expect_err("poisoned barrier must unwind");
        assert!(payload.downcast_ref::<CollectiveAborted>().is_some());
    }

    #[test]
    fn reset_restores_collectives() {
        let comm = Arc::new(GroupComm::new(2));
        comm.poison();
        assert!(comm.try_barrier().is_err());
        comm.reset();
        run_spmd_on(&comm);

        fn run_spmd_on(comm: &Arc<GroupComm>) {
            let handles: Vec<_> = (0..2)
                .map(|r| {
                    let comm = comm.clone();
                    std::thread::spawn(move || {
                        let mut dst = vec![0.0; 2];
                        comm.allgather(r, &[r as f64], &mut dst);
                        assert_eq!(dst, vec![0.0, 1.0]);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }
}
