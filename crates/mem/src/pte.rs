//! Page-table entry representation and flag bits.

use crate::addr::Pfn;

/// Flag bits of a leaf page-table entry.
///
/// Modelled on x86-64: the simulator uses PRESENT/WRITABLE/USER plus a
/// software COW bit (real kernels stash this in an ignored PTE bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(pub u16);

impl PteFlags {
    /// The translation is valid.
    pub(crate) const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Writes are permitted.
    pub(crate) const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// User-mode access is permitted.
    pub(crate) const USER: PteFlags = PteFlags(1 << 2);
    /// The page has been read or written since the bit was cleared.
    pub(crate) const ACCESSED: PteFlags = PteFlags(1 << 3);
    /// The page has been written since the bit was cleared.
    pub(crate) const DIRTY: PteFlags = PteFlags(1 << 4);
    /// Instruction fetch is forbidden.
    pub(crate) const NX: PteFlags = PteFlags(1 << 5);
    /// Software bit: write-protected copy-on-write page.
    pub(crate) const COW: PteFlags = PteFlags(1 << 6);
    /// Software bit: the frame backs a MAP_SHARED mapping.
    pub(crate) const SHARED: PteFlags = PteFlags(1 << 7);
    /// Software bit: a non-present swap entry. The `pfn` field holds a
    /// swap-slot index, not a frame number (real kernels encode swap
    /// entries in the non-present PTE format the same way).
    pub(crate) const SWAP: PteFlags = PteFlags(1 << 8);
    /// The entry maps a 2 MiB huge page (x86-64's PS bit): `pfn` is the
    /// head of a naturally aligned 512-frame run and the translation
    /// covers the whole block.
    pub(crate) const HUGE: PteFlags = PteFlags(1 << 9);

    /// Returns the union of `self` and `other`.
    pub(crate) const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// Returns `self` with the bits of `other` removed.
    pub(crate) const fn minus(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 & !other.0)
    }

    /// Returns true if every bit of `other` is set in `self`.
    pub(crate) const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns true if any bit of `other` is set in `self`.
    pub(crate) const fn intersects(self, other: PteFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

/// A leaf page-table entry: a frame number plus flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical frame.
    pub pfn: Pfn,
    /// Permission and software bits.
    pub flags: PteFlags,
}

impl Pte {
    /// Creates a present entry for `pfn` with the given extra flags.
    pub(crate) fn new(pfn: Pfn, flags: PteFlags) -> Pte {
        Pte {
            pfn,
            flags: flags | PteFlags::PRESENT,
        }
    }

    /// Returns true if the entry permits writes.
    pub(crate) fn is_writable(self) -> bool {
        self.flags.contains(PteFlags::WRITABLE)
    }

    /// Returns true if the entry is marked copy-on-write.
    pub(crate) fn is_cow(self) -> bool {
        self.flags.contains(PteFlags::COW)
    }

    /// Creates a non-present swap entry pointing at device slot `slot`.
    ///
    /// The slot index rides in the `pfn` field; no permission bits are
    /// kept — swap-in rederives them from the owning VMA, exactly like a
    /// fresh demand fill.
    pub(crate) fn swap_entry(slot: u64) -> Pte {
        Pte {
            pfn: Pfn(slot),
            flags: PteFlags::SWAP,
        }
    }

    /// Returns true if the translation is valid (maps a frame).
    pub(crate) fn is_present(self) -> bool {
        self.flags.contains(PteFlags::PRESENT)
    }

    /// Returns true if the entry is a non-present swap entry.
    pub(crate) fn is_swap(self) -> bool {
        self.flags.contains(PteFlags::SWAP)
    }

    /// Returns true if the entry maps a 2 MiB huge page.
    pub(crate) fn is_huge(self) -> bool {
        self.flags.contains(PteFlags::HUGE)
    }

    /// The swap-slot index of a swap entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not a swap entry — reading the `pfn` field
    /// of a present entry as a slot index would silently corrupt both
    /// refcount domains.
    pub(crate) fn swap_slot(self) -> u64 {
        assert!(self.is_swap(), "swap_slot() on a present PTE");
        self.pfn.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_algebra() {
        let f = PteFlags::PRESENT | PteFlags::WRITABLE;
        assert!(f.contains(PteFlags::PRESENT));
        assert!(f.contains(PteFlags::WRITABLE));
        assert!(!f.contains(PteFlags::COW));
        assert!(f.intersects(PteFlags::WRITABLE | PteFlags::COW));
        let g = f.minus(PteFlags::WRITABLE);
        assert!(!g.contains(PteFlags::WRITABLE));
        assert!(g.contains(PteFlags::PRESENT));
    }

    #[test]
    fn pte_constructor_sets_present() {
        let p = Pte::new(Pfn(5), PteFlags::USER);
        assert!(p.flags.contains(PteFlags::PRESENT));
        assert!(!p.is_writable());
        assert!(!p.is_cow());
        let q = Pte::new(Pfn(5), PteFlags::WRITABLE | PteFlags::COW);
        assert!(q.is_writable() && q.is_cow());
    }

    #[test]
    fn swap_entry_is_not_present_and_carries_slot() {
        let s = Pte::swap_entry(42);
        assert!(s.is_swap());
        assert!(!s.is_present());
        assert!(!s.is_writable());
        assert_eq!(s.swap_slot(), 42);
        let p = Pte::new(Pfn(7), PteFlags::USER);
        assert!(p.is_present());
        assert!(!p.is_swap());
    }

    #[test]
    fn huge_flag_roundtrips() {
        let h = Pte::new(Pfn(512), PteFlags::USER | PteFlags::HUGE);
        assert!(h.is_huge());
        assert!(h.is_present());
        let s = Pte::new(Pfn(1), PteFlags::USER);
        assert!(!s.is_huge());
    }

    #[test]
    #[should_panic(expected = "swap_slot")]
    fn swap_slot_of_present_pte_panics() {
        Pte::new(Pfn(3), PteFlags::default()).swap_slot();
    }
}
