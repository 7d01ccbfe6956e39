//! Virtual memory areas (VMAs): the per-mapping metadata fork must clone.
//!
//! The paper's complexity argument rests on how much *policy* has accreted
//! onto mappings: sharing mode, fork opt-outs (`MADV_DONTFORK`), fork
//! zeroing (`MADV_WIPEONFORK`), growth direction, backing objects. Each is
//! modelled here so the fork implementation has to handle every case, just
//! as a real kernel does.

use crate::addr::Vpn;

/// Access protection of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot {
    /// Reads permitted.
    pub read: bool,
    /// Writes permitted.
    pub write: bool,
    /// Instruction fetch permitted.
    pub exec: bool,
}

impl Prot {
    /// Read-only.
    pub const R: Prot = Prot {
        read: true,
        write: false,
        exec: false,
    };
    /// Read-write.
    pub const RW: Prot = Prot {
        read: true,
        write: true,
        exec: false,
    };
    /// Read-execute.
    pub const RX: Prot = Prot {
        read: true,
        write: false,
        exec: true,
    };
    /// No access (guard page).
    pub const NONE: Prot = Prot {
        read: false,
        write: false,
        exec: false,
    };
}

/// Sharing mode of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Share {
    /// `MAP_PRIVATE`: copy-on-write across fork.
    Private,
    /// `MAP_SHARED`: parent and child alias the same frames.
    Shared,
}

/// Fork-time policy accreted onto mappings over the years.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForkPolicy {
    /// `MADV_DONTFORK`: the child does not receive this mapping at all.
    pub dont_fork: bool,
    /// `MADV_WIPEONFORK`: the child receives the range zero-filled.
    pub wipe_on_fork: bool,
}

/// What backs a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backing {
    /// Anonymous memory, demand-zeroed.
    Anon,
    /// A file object (image segments, mapped files). The content stamp of
    /// page `i` of the mapping is derived from `(file_id, page_offset + i)`.
    File {
        /// Identifier of the backing file object.
        file_id: u64,
        /// Offset into the file, in pages.
        page_offset: u64,
    },
}

/// The role a mapping plays in the process image (for layout & reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Program text.
    Text,
    /// Initialised data.
    Data,
    /// Heap (`brk` arena).
    Heap,
    /// A thread stack.
    Stack,
    /// `mmap`ed region.
    Mmap,
    /// Guard region (no access).
    Guard,
}

/// A contiguous virtual mapping with uniform policy.
#[derive(Debug, Clone, PartialEq)]
pub struct VmArea {
    /// First page of the mapping.
    pub start: Vpn,
    /// Length in pages (non-zero).
    pub pages: u64,
    /// Access protection.
    pub prot: Prot,
    /// Sharing mode.
    pub share: Share,
    /// Fork-time policy.
    pub fork_policy: ForkPolicy,
    /// Backing object.
    pub backing: Backing,
    /// Role of the mapping.
    pub kind: VmaKind,
}

impl VmArea {
    /// Creates an anonymous private mapping.
    pub fn anon(start: Vpn, pages: u64, prot: Prot, kind: VmaKind) -> VmArea {
        VmArea {
            start,
            pages,
            prot,
            share: Share::Private,
            fork_policy: ForkPolicy::default(),
            backing: Backing::Anon,
            kind,
        }
    }

    /// First page past the end of the mapping.
    pub fn end(&self) -> Vpn {
        Vpn(self.start.0 + self.pages)
    }

    /// Returns true if `vpn` lies inside the mapping.
    pub(crate) fn contains(&self, vpn: Vpn) -> bool {
        vpn.0 >= self.start.0 && vpn.0 < self.end().0
    }

    /// Returns true if this mapping overlaps `[start, start+pages)`.
    pub fn overlaps(&self, start: Vpn, pages: u64) -> bool {
        self.start.0 < start.0 + pages && start.0 < self.end().0
    }

    /// Commit charge of this mapping: pages the kernel may need frames
    /// for. The one accounting rule `AddressSpace::commit_pages` sums and
    /// the kernel charges and releases at `mmap`/`munmap`.
    pub fn commit_charge(&self) -> u64 {
        match (self.share, self.backing, self.prot.write) {
            // Private writable memory may all be copied.
            (Share::Private, _, true) => self.pages,
            // Shared anonymous memory needs frames exactly once.
            (Share::Shared, Backing::Anon, _) => self.pages,
            // Read-only file text/data can always be reconstructed.
            _ => 0,
        }
    }

    /// The logical content stamp a fresh (never-written) page at `vpn`
    /// would hold: zero for anonymous memory, a file-derived stamp for
    /// file mappings.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is outside the mapping.
    pub(crate) fn initial_content(&self, vpn: Vpn) -> u64 {
        assert!(self.contains(vpn), "vpn outside VMA");
        match self.backing {
            Backing::Anon => 0,
            Backing::File {
                file_id,
                page_offset,
            } => file_stamp(file_id, page_offset + (vpn.0 - self.start.0)),
        }
    }
}

/// Deterministic content stamp for page `page` of file `file_id`.
///
/// A 64-bit mix (splitmix64 finaliser) keeps distinct (file, page) pairs
/// from colliding in tests.
pub fn file_stamp(file_id: u64, page: u64) -> u64 {
    let mut z = file_id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(page);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let v = VmArea::anon(Vpn(10), 5, Prot::RW, VmaKind::Heap);
        assert_eq!(v.end(), Vpn(15));
        assert!(v.contains(Vpn(10)));
        assert!(v.contains(Vpn(14)));
        assert!(!v.contains(Vpn(15)));
        assert!(v.overlaps(Vpn(14), 1));
        assert!(v.overlaps(Vpn(0), 11));
        assert!(!v.overlaps(Vpn(15), 5));
        assert!(!v.overlaps(Vpn(5), 5));
    }

    #[test]
    fn anon_initial_content_is_zero() {
        let v = VmArea::anon(Vpn(0), 4, Prot::RW, VmaKind::Mmap);
        assert_eq!(v.initial_content(Vpn(2)), 0);
    }

    #[test]
    fn file_initial_content_tracks_offset() {
        let mut v = VmArea::anon(Vpn(100), 4, Prot::R, VmaKind::Text);
        v.backing = Backing::File {
            file_id: 7,
            page_offset: 2,
        };
        assert_eq!(v.initial_content(Vpn(100)), file_stamp(7, 2));
        assert_eq!(v.initial_content(Vpn(103)), file_stamp(7, 5));
        assert_ne!(v.initial_content(Vpn(100)), v.initial_content(Vpn(101)));
    }

    #[test]
    #[should_panic(expected = "outside VMA")]
    fn initial_content_out_of_range_panics() {
        let v = VmArea::anon(Vpn(0), 1, Prot::R, VmaKind::Text);
        v.initial_content(Vpn(1));
    }

    #[test]
    fn file_stamp_distinct() {
        let mut seen = std::collections::HashSet::new();
        for f in 0..20u64 {
            for p in 0..20u64 {
                assert!(seen.insert(file_stamp(f, p)), "collision at ({f},{p})");
            }
        }
    }
}
