//! Event-driven simulation core.
//!
//! Timestamps are exact rationals ([`Ratio`]) because the three-shelf
//! schedules place jobs at half-integral positions and dual thresholds are
//! rational; floating-point time would make event ordering flaky exactly at
//! the shelf boundaries where correctness matters most.
//!
//! The engine maintains a priority queue of [`Event`]s ordered by time
//! (completions before starts at equal timestamps, so a processor freed at
//! time `t` can be reused by a job starting at `t` — schedules produced by
//! the shelf construction rely on this back-to-back reuse), and a
//! [`ProcessorPool`] that tracks *which* processors each job holds as a set
//! of contiguous [`Block`]s. Blocks rather than individual ids, because
//! under compact encodings a single wide job can hold 2^39 processors —
//! the pool is `O(#jobs)` space regardless of `m`.

use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// What happens at an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A job releases its processors. Processed **before** starts at the
    /// same timestamp.
    Complete,
    /// A job requests its processors.
    Start,
}

/// A timestamped simulation event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Ratio,
    /// Completion or start.
    pub kind: EventKind,
    /// The job concerned.
    pub job: JobId,
}

impl Event {
    fn key(&self) -> (Ratio, u8, JobId) {
        let kind = match self.kind {
            EventKind::Complete => 0,
            EventKind::Start => 1,
        };
        (self.at, kind, self.job)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reverse-ordered wrapper so [`BinaryHeap`] pops the *earliest* event.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Earliest(Event);

impl Ord for Earliest {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl PartialOrd for Earliest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A contiguous range of processor ids `[start, start + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Block {
    /// First processor id in the block.
    pub start: Procs,
    /// Number of processors in the block.
    pub len: Procs,
}

impl Block {
    /// One past the last id.
    pub fn end(&self) -> Procs {
        self.start + self.len
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

/// Why a simulation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A job requested more processors than were free at its start time.
    Oversubscribed {
        /// The offending job.
        job: JobId,
        /// When it tried to start.
        at: Ratio,
        /// How many processors it wanted.
        wanted: Procs,
        /// How many were free.
        free: Procs,
    },
    /// A job was scheduled with zero processors or more than `m`.
    BadAllotment {
        /// The offending job.
        job: JobId,
        /// Its requested processor count.
        procs: Procs,
    },
    /// The same job appears twice in the plan.
    DuplicateJob {
        /// The duplicated job id.
        job: JobId,
    },
    /// A job id outside the instance.
    UnknownJob {
        /// The unknown id.
        job: JobId,
    },
    /// Not every job of the instance was placed.
    MissingJobs {
        /// How many jobs the plan left out.
        count: usize,
    },
    /// An arrival stream fed to the streaming engine was not sorted by
    /// arrival time. Raw traces reach it from library callers, so this
    /// is a typed error, not a panic.
    UnsortedStream {
        /// Index of the first out-of-order job (its arrival precedes its
        /// predecessor's).
        index: usize,
    },
    /// A streaming run was given a topology whose leaves do not cover
    /// the machine (the per-epoch lowering would place jobs onto
    /// processors that don't exist, or leave real ones unreachable).
    TopologyMismatch {
        /// Processors covered by the topology's leaf level.
        topology_m: Procs,
        /// The machine size the stream is planned on.
        m: Procs,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Oversubscribed {
                job,
                at,
                wanted,
                free,
            } => write!(
                f,
                "job {job} starting at {at} wants {wanted} processors but only {free} are free"
            ),
            SimError::BadAllotment { job, procs } => {
                write!(f, "job {job} has invalid allotment {procs}")
            }
            SimError::DuplicateJob { job } => write!(f, "job {job} placed twice"),
            SimError::UnknownJob { job } => write!(f, "job {job} not in the instance"),
            SimError::MissingJobs { count } => write!(f, "{count} job(s) never placed"),
            SimError::UnsortedStream { index } => write!(
                f,
                "arrival stream not sorted: job {index} arrives before its predecessor \
                 (sort the stream by arrival first)"
            ),
            SimError::TopologyMismatch { topology_m, m } => write!(
                f,
                "topology covers {topology_m} processors but the stream runs on m = {m}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The event queue: a min-heap over (time, kind, job).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Earliest>,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Enqueue an event.
    pub fn push(&mut self, ev: Event) {
        self.heap.push(Earliest(ev));
    }

    /// Pop the earliest event (completions before starts at equal times).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue drained?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A pool of `m` identical processors handing out contiguous blocks.
///
/// Free space is a sorted list of maximal disjoint blocks, coalesced on
/// release; allocation is first-fit over that list, splitting a block when
/// a request straddles it. Space and time are `O(#running jobs)` per
/// operation — independent of `m`, which may be 2^40.
#[derive(Debug)]
pub struct ProcessorPool {
    m: Procs,
    free: Vec<Block>,
    held: Vec<Vec<Block>>,
    in_use: Procs,
}

impl ProcessorPool {
    /// A pool of `m` processors, all free, for jobs `0..n_jobs`.
    pub fn new(m: Procs, n_jobs: usize) -> Self {
        ProcessorPool {
            m,
            free: vec![Block { start: 0, len: m }],
            held: vec![Vec::new(); n_jobs],
            in_use: 0,
        }
    }

    /// Processors currently available.
    pub fn free_count(&self) -> Procs {
        self.m - self.in_use
    }

    /// Processors currently held by running jobs.
    pub fn in_use(&self) -> Procs {
        self.in_use
    }

    /// Blocks currently held by `job` (empty if not running).
    pub fn held_by(&self, job: JobId) -> &[Block] {
        &self.held[job as usize]
    }

    /// Grant `want` processors to `job`; returns the granted blocks.
    ///
    /// First-fit over the free list; a request larger than any single free
    /// block is satisfied by several blocks (the machines are
    /// interchangeable, and moldable jobs in this model have no locality
    /// constraint — contiguity is best-effort for readable traces).
    pub fn acquire(
        &mut self,
        job: JobId,
        want: Procs,
        at: &Ratio,
    ) -> Result<&[Block], SimError> {
        let free = self.free_count();
        if want > free {
            return Err(SimError::Oversubscribed {
                job,
                at: *at,
                wanted: want,
                free,
            });
        }
        debug_assert!(
            self.held[job as usize].is_empty(),
            "job {job} acquired twice"
        );
        let mut granted: Vec<Block> = Vec::new();
        let mut remaining = want;

        // Pass 1: a single free block that fits entirely (best-fit among
        // exact-or-larger blocks keeps fragmentation low).
        if let Some(idx) = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len >= remaining)
            .min_by_key(|(_, b)| b.len)
            .map(|(i, _)| i)
        {
            let b = &mut self.free[idx];
            granted.push(Block {
                start: b.start,
                len: remaining,
            });
            b.start += remaining;
            b.len -= remaining;
            if b.len == 0 {
                self.free.remove(idx);
            }
            remaining = 0;
        }

        // Pass 2: gather multiple blocks front-to-back.
        while remaining > 0 {
            let b = self.free[0];
            let take = b.len.min(remaining);
            granted.push(Block {
                start: b.start,
                len: take,
            });
            remaining -= take;
            if take == b.len {
                self.free.remove(0);
            } else {
                self.free[0].start += take;
                self.free[0].len -= take;
            }
        }

        self.in_use += want;
        self.held[job as usize] = granted;
        Ok(&self.held[job as usize])
    }

    /// Release the processors `job` holds; returns the freed blocks.
    pub fn release(&mut self, job: JobId) -> Vec<Block> {
        let blocks = std::mem::take(&mut self.held[job as usize]);
        assert!(
            !blocks.is_empty(),
            "release of job {job} which holds no processors"
        );
        for b in &blocks {
            self.in_use -= b.len;
            self.insert_free(*b);
        }
        blocks
    }

    /// Insert into the sorted free list, coalescing with neighbours.
    fn insert_free(&mut self, b: Block) {
        let pos = self.free.partition_point(|f| f.start < b.start);
        self.free.insert(pos, b);
        // Coalesce with successor, then with predecessor.
        if pos + 1 < self.free.len() && self.free[pos].end() == self.free[pos + 1].start {
            self.free[pos].len += self.free[pos + 1].len;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].end() == self.free[pos].start {
            self.free[pos - 1].len += self.free[pos].len;
            self.free.remove(pos);
        }
    }

    /// Internal consistency: free blocks sorted, disjoint, non-adjacent,
    /// and accounting matches. Used by tests and debug assertions.
    pub fn check_invariants(&self) {
        let mut total = 0;
        for w in self.free.windows(2) {
            assert!(
                w[0].end() < w[1].start,
                "free list not coalesced: {} then {}",
                w[0],
                w[1]
            );
        }
        for b in &self.free {
            assert!(b.len > 0, "empty free block");
            assert!(b.end() <= self.m, "free block beyond m");
            total += b.len;
        }
        assert_eq!(total, self.m - self.in_use, "free accounting mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind, job: JobId) -> Event {
        Event {
            at: Ratio::from(at),
            kind,
            job,
        }
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(ev(5, EventKind::Start, 0));
        q.push(ev(1, EventKind::Start, 1));
        q.push(ev(3, EventKind::Start, 2));
        assert_eq!(q.pop().unwrap().job, 1);
        assert_eq!(q.pop().unwrap().job, 2);
        assert_eq!(q.pop().unwrap().job, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn completions_precede_starts_at_equal_time() {
        let mut q = EventQueue::new();
        q.push(ev(2, EventKind::Start, 0));
        q.push(ev(2, EventKind::Complete, 1));
        let first = q.pop().unwrap();
        assert_eq!(first.kind, EventKind::Complete);
        assert_eq!(q.pop().unwrap().kind, EventKind::Start);
    }

    #[test]
    fn rational_timestamps_order_exactly() {
        let mut q = EventQueue::new();
        q.push(Event {
            at: Ratio::new(3, 2),
            kind: EventKind::Start,
            job: 0,
        });
        q.push(Event {
            at: Ratio::new(4, 3),
            kind: EventKind::Start,
            job: 1,
        });
        assert_eq!(q.pop().unwrap().job, 1); // 4/3 < 3/2
    }

    #[test]
    fn pool_acquire_release_roundtrip() {
        let mut pool = ProcessorPool::new(8, 2);
        let t = Ratio::zero();
        let blocks = pool.acquire(0, 5, &t).unwrap().to_vec();
        assert_eq!(blocks.iter().map(|b| b.len).sum::<Procs>(), 5);
        assert_eq!(pool.free_count(), 3);
        pool.release(0);
        assert_eq!(pool.free_count(), 8);
        pool.check_invariants();
    }

    #[test]
    fn pool_rejects_oversubscription() {
        let mut pool = ProcessorPool::new(4, 2);
        let t = Ratio::zero();
        pool.acquire(0, 3, &t).unwrap();
        let err = pool.acquire(1, 2, &t).unwrap_err();
        match err {
            SimError::Oversubscribed {
                job, wanted, free, ..
            } => {
                assert_eq!(job, 1);
                assert_eq!(wanted, 2);
                assert_eq!(free, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn pool_coalesces_on_release() {
        let mut pool = ProcessorPool::new(12, 3);
        let t = Ratio::zero();
        pool.acquire(0, 4, &t).unwrap();
        pool.acquire(1, 4, &t).unwrap();
        pool.acquire(2, 4, &t).unwrap();
        pool.release(1);
        pool.release(0);
        pool.release(2);
        pool.check_invariants();
        assert_eq!(pool.free, vec![Block { start: 0, len: 12 }]);
    }

    #[test]
    fn pool_splits_across_fragments() {
        let mut pool = ProcessorPool::new(10, 4);
        let t = Ratio::zero();
        pool.acquire(0, 3, &t).unwrap(); // [0,3)
        pool.acquire(1, 3, &t).unwrap(); // [3,6)
        pool.acquire(2, 3, &t).unwrap(); // [6,9)
        pool.release(0);
        pool.release(2);
        // Free: [0,3) and [6,10) — a request of 5 must straddle both.
        let blocks = pool.acquire(3, 5, &t).unwrap().to_vec();
        assert!(blocks.len() >= 2);
        assert_eq!(blocks.iter().map(|b| b.len).sum::<Procs>(), 5);
        pool.check_invariants();
    }

    #[test]
    fn pool_prefers_best_fit_single_block() {
        let mut pool = ProcessorPool::new(20, 4);
        let t = Ratio::zero();
        pool.acquire(0, 6, &t).unwrap(); // [0,6)
        pool.acquire(1, 4, &t).unwrap(); // [6,10)
        pool.acquire(2, 10, &t).unwrap(); // [10,20)
        pool.release(1); // free [6,10) of size 4
        pool.release(2); // free [10,20) merges to [6,20)? no: adjacent -> coalesce!
        pool.check_invariants();
        // After coalescing, free = [6,20). A request of 3 takes one block.
        let blocks = pool.acquire(3, 3, &t).unwrap().to_vec();
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn pool_supports_huge_m_lazily() {
        // m = 2^40 must not allocate 2^40 ids.
        let mut pool = ProcessorPool::new(1 << 40, 2);
        let t = Ratio::zero();
        let blocks = pool.acquire(0, 1 << 39, &t).unwrap().to_vec();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len, 1 << 39);
        assert_eq!(pool.free_count(), (1 << 40) - (1 << 39));
        pool.check_invariants();
    }
}
