//! Kernel Management Unit (KMU).
//!
//! The KMU holds kernels that are not yet in the KDU: host launches and
//! matured CDP device launches. The baseline dispatches them FCFS; the
//! LaPerm extension asks the TB scheduler which pending kernel to move
//! into the KDU next (highest priority first, Section IV-C).

use std::collections::VecDeque;

use crate::types::BatchId;

/// The pending-kernel queue in front of the KDU.
#[derive(Debug, Default)]
pub struct Kmu {
    pending: VecDeque<BatchId>,
    depth_hwm: u64,
}

impl Kmu {
    /// Creates an empty KMU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a kernel (host launch or matured device launch).
    pub fn push(&mut self, batch: BatchId) {
        self.pending.push_back(batch);
        self.depth_hwm = self.depth_hwm.max(self.pending.len() as u64);
    }

    /// High-water mark of the pending-queue depth over the run — how
    /// backed up the launch path got at its worst. Maintained
    /// unconditionally (a max of an already-known length is free);
    /// reported only in a profiled run's latency attribution.
    pub fn depth_hwm(&self) -> u64 {
        self.depth_hwm
    }

    /// Pending kernels, FCFS order.
    pub fn pending(&self) -> impl Iterator<Item = BatchId> + '_ {
        self.pending.iter().copied()
    }

    /// Number of pending kernels.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The pending kernels as one contiguous FCFS slice, rearranging the
    /// ring buffer's two halves in place if needed (amortized cheap: the
    /// queue is contiguous again until a wrap-around occurs).
    ///
    /// Lets the engine hand the TB scheduler a borrowed view of the
    /// queue without collecting it into a fresh `Vec` every cycle.
    pub fn make_contiguous(&mut self) -> &[BatchId] {
        self.pending.make_contiguous()
    }

    /// Removes and returns the pending kernel at `index` (0 = oldest), or
    /// `None` when `index` is out of range. The engine converts `None`
    /// into a structured [`SimError::EngineInvariant`] instead of
    /// panicking on a racing retire.
    ///
    /// [`SimError::EngineInvariant`]: crate::error::SimError::EngineInvariant
    pub fn take(&mut self, index: usize) -> Option<BatchId> {
        self.pending.remove(index)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn fcfs_ordering() {
        let mut kmu = Kmu::new();
        kmu.push(BatchId(3));
        kmu.push(BatchId(1));
        let order: Vec<_> = kmu.pending().collect();
        assert_eq!(order, vec![BatchId(3), BatchId(1)]);
    }

    #[test]
    fn take_by_index() {
        let mut kmu = Kmu::new();
        kmu.push(BatchId(0));
        kmu.push(BatchId(1));
        kmu.push(BatchId(2));
        assert_eq!(kmu.take(1), Some(BatchId(1)));
        assert_eq!(kmu.len(), 2);
        assert_eq!(kmu.take(0), Some(BatchId(0)));
        assert_eq!(kmu.take(0), Some(BatchId(2)));
        assert!(kmu.is_empty());
    }

    #[test]
    fn make_contiguous_preserves_fcfs_across_wraparound() {
        let mut kmu = Kmu::new();
        // Force the VecDeque to wrap: push, pop from the front, push more.
        for i in 0..8 {
            kmu.push(BatchId(i));
        }
        for _ in 0..5 {
            kmu.take(0);
        }
        for i in 8..16 {
            kmu.push(BatchId(i));
        }
        let expected: Vec<BatchId> = kmu.pending().collect();
        assert_eq!(kmu.make_contiguous(), &expected[..]);
    }

    #[test]
    fn depth_high_water_mark_survives_drains() {
        let mut kmu = Kmu::new();
        assert_eq!(kmu.depth_hwm(), 0);
        for i in 0..4 {
            kmu.push(BatchId(i));
        }
        for _ in 0..4 {
            kmu.take(0);
        }
        kmu.push(BatchId(9));
        assert_eq!(kmu.depth_hwm(), 4);
    }

    #[test]
    fn take_out_of_range_returns_none() {
        let mut kmu = Kmu::new();
        assert_eq!(kmu.take(0), None);
        kmu.push(BatchId(0));
        assert_eq!(kmu.take(5), None);
        assert_eq!(kmu.len(), 1);
    }
}
