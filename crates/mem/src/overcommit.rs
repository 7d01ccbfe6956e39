//! Commit accounting and overcommit policy.
//!
//! The paper argues fork *forces* memory overcommit: under strict
//! accounting, forking a process that uses more than half of memory must
//! fail (every private writable page is a potential copy), so systems that
//! rely on fork run with overcommit enabled and discover exhaustion only
//! at COW-break time — when the only remedy is the OOM killer. This module
//! reproduces Linux's three `vm.overcommit_memory` modes.

use crate::error::{MemError, MemResult};
use fpr_faults::FaultSite;

/// Overcommit policy, mirroring Linux `vm.overcommit_memory`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OvercommitPolicy {
    /// Mode 2 (`never`): commit charge is capped at
    /// `total_frames * ratio`. Fork fails up front if the child's charge
    /// does not fit.
    Never {
        /// Fraction of physical memory that may be committed (Linux
        /// `vm.overcommit_ratio`, typically 0.5–1.0 plus swap).
        ratio: f64,
    },
    /// Mode 0 (`heuristic`): single allocations larger than free memory
    /// are refused, but total commit may exceed physical memory.
    Heuristic,
    /// Mode 1 (`always`): every commit succeeds; exhaustion surfaces as an
    /// OOM kill at fault time.
    Always,
}

/// Tracks committed (charged) pages against a policy.
#[derive(Debug, Clone)]
pub struct CommitAccount {
    policy: OvercommitPolicy,
    total_frames: u64,
    swap_pages: u64,
    committed: u64,
}

impl CommitAccount {
    /// Creates an account for a machine with `total_frames` frames and no
    /// swap; see [`CommitAccount::set_swap_pages`].
    pub fn new(policy: OvercommitPolicy, total_frames: u64) -> Self {
        CommitAccount {
            policy,
            total_frames,
            swap_pages: 0,
            committed: 0,
        }
    }

    /// Declares `pages` of swap capacity. Linux's `Never` mode computes
    /// `CommitLimit = ratio * MemTotal + SwapTotal` — committed pages that
    /// exceed RAM can live on the device, so swap raises the cap
    /// frame-for-frame, not scaled by the ratio.
    pub fn set_swap_pages(&mut self, pages: u64) {
        self.swap_pages = pages;
    }

    /// Currently committed pages.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Replaces the policy (a `sysctl`, effectively).
    pub fn set_policy(&mut self, policy: OvercommitPolicy) {
        self.policy = policy;
    }

    /// The maximum chargeable commit under the current policy, when the
    /// policy bounds it (`Never` mode only).
    pub fn limit(&self) -> Option<u64> {
        match self.policy {
            OvercommitPolicy::Never { ratio } => {
                Some((self.total_frames as f64 * ratio) as u64 + self.swap_pages)
            }
            OvercommitPolicy::Heuristic | OvercommitPolicy::Always => None,
        }
    }

    /// Attempts to charge `pages` of new commit, given `free_frames`
    /// currently free. Fails with [`MemError::CommitLimit`] when the
    /// policy refuses.
    pub fn charge(&mut self, pages: u64, free_frames: u64) -> MemResult<()> {
        fpr_faults::cross(FaultSite::CommitCharge).map_err(|_| MemError::CommitLimit)?;
        let ok = match self.policy {
            OvercommitPolicy::Never { .. } => {
                self.committed + pages <= self.limit().expect("Never mode is bounded")
            }
            OvercommitPolicy::Heuristic => pages <= free_frames,
            OvercommitPolicy::Always => true,
        };
        if ok {
            self.committed += pages;
            Ok(())
        } else {
            Err(MemError::CommitLimit)
        }
    }

    /// Releases `pages` of commit charge.
    ///
    /// # Panics
    ///
    /// Panics if more is released than was charged (accounting bug).
    pub fn release(&mut self, pages: u64) {
        assert!(self.committed >= pages, "commit release underflow");
        self.committed -= pages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_enforces_ratio() {
        let mut a = CommitAccount::new(OvercommitPolicy::Never { ratio: 0.5 }, 100);
        assert_eq!(a.limit(), Some(50), "no swap: ratio * RAM only");
        assert!(a.charge(50, 100).is_ok());
        assert_eq!(a.charge(1, 100), Err(MemError::CommitLimit));
        a.release(10);
        assert!(a.charge(10, 100).is_ok());
    }

    #[test]
    fn never_limit_includes_swap_unscaled() {
        let mut a = CommitAccount::new(OvercommitPolicy::Never { ratio: 0.5 }, 100);
        a.set_swap_pages(30);
        assert_eq!(a.limit(), Some(80), "ratio * RAM + SwapTotal");
        assert!(a.charge(80, 100).is_ok());
        assert_eq!(a.charge(1, 100), Err(MemError::CommitLimit));
        // Swap does not change the unbounded modes.
        let mut h = CommitAccount::new(OvercommitPolicy::Heuristic, 100);
        h.set_swap_pages(30);
        assert_eq!(h.limit(), None);
    }

    #[test]
    fn heuristic_refuses_single_oversize_but_allows_total_overcommit() {
        let mut a = CommitAccount::new(OvercommitPolicy::Heuristic, 100);
        assert_eq!(a.charge(101, 100), Err(MemError::CommitLimit));
        // Repeated allocations can exceed physical memory in total.
        assert!(a.charge(80, 100).is_ok());
        assert!(a.charge(80, 90).is_ok());
        assert_eq!(a.committed(), 160);
    }

    #[test]
    fn always_never_refuses() {
        let mut a = CommitAccount::new(OvercommitPolicy::Always, 10);
        assert!(a.charge(1_000_000, 0).is_ok());
        assert_eq!(a.committed(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn release_underflow_panics() {
        let mut a = CommitAccount::new(OvercommitPolicy::Always, 10);
        a.release(1);
    }
}
