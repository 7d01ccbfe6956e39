//! Address and page-number newtypes shared by the whole memory subsystem.
//!
//! The simulator models a 48-bit x86-64-style virtual address space with
//! 4 KiB pages and four 9-bit page-table levels. Using newtypes rather than
//! bare `u64`s keeps physical and virtual quantities from being mixed up at
//! compile time.


/// Base-2 logarithm of the page size.
pub(crate) const PAGE_SHIFT: u64 = 12;
/// Size of one page in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Number of page-table levels (PML4 → PDPT → PD → PT).
pub(crate) const PT_LEVELS: usize = 4;
/// Number of entries in one page-table node (9 index bits per level).
pub(crate) const PT_ENTRIES: usize = 512;
/// Base-2 logarithm of the huge-page size (2 MiB: one full leaf table).
pub(crate) const HUGE_SHIFT: u64 = 21;
/// Size of one huge page in bytes (2 MiB).
pub const HUGE_PAGE_SIZE: u64 = 1 << HUGE_SHIFT;
/// Number of small pages covered by one huge page.
pub const HUGE_PAGES: u64 = HUGE_PAGE_SIZE / PAGE_SIZE;
/// Number of virtual-address bits that are translated.
pub(crate) const VA_BITS: u64 = 48;
/// Highest valid user virtual address (exclusive); the upper half is kernel.
pub(crate) const USER_VA_END: u64 = 1 << (VA_BITS - 1);

/// A virtual byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct VirtAddr(pub u64);

/// A physical frame number (physical address >> `PAGE_SHIFT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pfn(pub u64);

/// A virtual page number (virtual address >> `PAGE_SHIFT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vpn(pub u64);

impl VirtAddr {
    /// Returns true if this address lies in the translatable user half.
    pub(crate) fn is_user(self) -> bool {
        self.0 < USER_VA_END
    }
}

impl Vpn {
    /// Returns the base virtual address of this page.
    pub(crate) fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the page-table index for `level`, where level 3 is the root
    /// (PML4) and level 0 is the leaf page table.
    ///
    /// # Panics
    ///
    /// Panics if `level >= PT_LEVELS`.
    pub(crate) fn pt_index(self, level: usize) -> usize {
        assert!(level < PT_LEVELS, "page-table level out of range");
        ((self.0 >> (9 * level)) & 0x1ff) as usize
    }

    /// Returns the page `n` pages after this one.
    // Named like `ops::Add::add` on purpose: page arithmetic reads as
    // `base.add(i)` throughout the codebase and `+` on a (Vpn, u64) pair
    // would need a heterogeneous Add impl anyway.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }

    /// Returns true if this page lies in the translatable user half.
    pub(crate) fn is_user(self) -> bool {
        self.base().is_user()
    }

    /// Rounds this page down to the base of its 2 MiB huge-page block.
    pub(crate) fn huge_base(self) -> Vpn {
        Vpn(self.0 & !(HUGE_PAGES - 1))
    }

    /// Returns true if this page starts a 2 MiB huge-page block.
    pub(crate) fn is_huge_aligned(self) -> bool {
        self.0 & (HUGE_PAGES - 1) == 0
    }

    /// Offset of this page within its 2 MiB huge-page block.
    pub(crate) fn huge_offset(self) -> u64 {
        self.0 & (HUGE_PAGES - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pt_index_decomposition() {
        // VPN with distinct 9-bit groups: level 0 = 1, level 1 = 2, etc.
        let vpn = Vpn(1 | (2 << 9) | (3 << 18) | (4 << 27));
        assert_eq!(vpn.pt_index(0), 1);
        assert_eq!(vpn.pt_index(1), 2);
        assert_eq!(vpn.pt_index(2), 3);
        assert_eq!(vpn.pt_index(3), 4);
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn pt_index_rejects_bad_level() {
        Vpn(0).pt_index(4);
    }

    #[test]
    fn user_half_boundary() {
        assert!(VirtAddr(0).is_user());
        assert!(VirtAddr(USER_VA_END - 1).is_user());
        assert!(!VirtAddr(USER_VA_END).is_user());
    }

    #[test]
    fn huge_block_arithmetic() {
        assert_eq!(HUGE_PAGES, 512);
        assert_eq!(HUGE_PAGE_SIZE, 512 * PAGE_SIZE);
        let v = Vpn(512 + 7);
        assert_eq!(v.huge_base(), Vpn(512));
        assert_eq!(v.huge_offset(), 7);
        assert!(!v.is_huge_aligned());
        assert!(Vpn(1024).is_huge_aligned());
        assert!(Vpn(0).is_huge_aligned());
    }
}
