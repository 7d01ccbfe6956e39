//! Memory-policy syscalls: `madvise` and `mprotect`.
//!
//! The `MADV_DONTFORK` / `MADV_WIPEONFORK` advice values exist *only*
//! because fork copies too much by default — each is an opt-out bolted on
//! when some class of memory (DMA buffers, cryptographic state) turned
//! out to be dangerous to duplicate. Implementing them as real syscalls
//! lets the fork tests exercise the full policy matrix.

use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::pid::Pid;
use fpr_mem::{Prot, Vpn};

/// `madvise` advice values the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Madvice {
    /// Reset fork policy to the default (copy into children).
    Normal,
    /// `MADV_DONTFORK`: children do not receive this range.
    DontFork,
    /// `MADV_DOFORK`: undo `DontFork`.
    DoFork,
    /// `MADV_WIPEONFORK`: children receive the range zero-filled.
    WipeOnFork,
    /// `MADV_KEEPONFORK`: undo `WipeOnFork`.
    KeepOnFork,
    /// `MADV_DONTNEED`: discard the pages now; next access demand-fills.
    DontNeed,
}

impl Kernel {
    /// Applies `advice` to `[start, start+pages)` of `pid`.
    pub fn madvise(&mut self, pid: Pid, start: Vpn, pages: u64, advice: Madvice) -> KResult<()> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        if pages == 0 {
            return Err(Errno::Einval);
        }
        let m = self.mem_ctx(pid)?;
        match advice {
            Madvice::DontNeed => m
                .space
                .discard(start, pages, m.phys, m.cycles, m.tlb, m.cpus)
                .map(|_| ())
                .map_err(Errno::from),
            _ => m
                .space
                .set_fork_policy(start, pages, |fp| match advice {
                    Madvice::Normal => {
                        fp.dont_fork = false;
                        fp.wipe_on_fork = false;
                    }
                    Madvice::DontFork => fp.dont_fork = true,
                    Madvice::DoFork => fp.dont_fork = false,
                    Madvice::WipeOnFork => fp.wipe_on_fork = true,
                    Madvice::KeepOnFork => fp.wipe_on_fork = false,
                    Madvice::DontNeed => unreachable!("handled above"),
                })
                .map_err(Errno::from),
        }
    }

    /// Changes the protection of `[start, start+pages)` of `pid`.
    pub fn mprotect(&mut self, pid: Pid, start: Vpn, pages: u64, prot: Prot) -> KResult<()> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let m = self.mem_ctx(pid)?;
        m.space
            .mprotect(start, pages, prot, m.cycles, m.phys, m.tlb, m.cpus)
            .map_err(Errno::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_mem::Share;

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn thp_huge_aligns_block_sized_private_mappings() {
        let mut k = Kernel::new(crate::kernel::MachineConfig {
            thp: true,
            ..Default::default()
        });
        let p = k.create_init("init").unwrap();
        // A small mapping first knocks the search cursor off alignment.
        let small = k.mmap_anon(p, 3, Prot::RW, Share::Private).unwrap();
        let big = k.mmap_anon(p, 512, Prot::RW, Share::Private).unwrap();
        assert_eq!(
            big.0 % fpr_mem::HUGE_PAGES,
            0,
            "thp_get_unmapped_area: block-sized mapping starts huge-aligned"
        );
        assert!(big.0 >= small.0 + 3);
        // Sub-block mappings are packed as usual, no alignment gap.
        let tail = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        assert_eq!(tail.0, small.0 + 3);

        // The THP-off machine keeps the historical packed placement.
        let (mut k2, p2) = boot();
        let small2 = k2.mmap_anon(p2, 3, Prot::RW, Share::Private).unwrap();
        let big2 = k2.mmap_anon(p2, 512, Prot::RW, Share::Private).unwrap();
        assert_eq!(big2.0, small2.0 + 3, "off: no alignment gap");
    }

    #[test]
    fn dontneed_discards_and_refills_zero() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 8, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base.add(2), 77).unwrap();
        assert_eq!(k.process(p).unwrap().resident_pages(), 1);
        k.madvise(p, base, 8, Madvice::DontNeed).unwrap();
        assert_eq!(k.process(p).unwrap().resident_pages(), 0);
        assert_eq!(k.phys.used_frames(), 0);
        assert_eq!(
            k.read_mem(p, base.add(2)),
            Ok(0),
            "discarded anon refills zero"
        );
    }

    #[test]
    fn dontfork_range_absent_in_child() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 8, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, 5).unwrap();
        k.write_mem(p, base.add(4), 6).unwrap();
        k.madvise(p, base.add(4), 4, Madvice::DontFork).unwrap();
        let c = fpr_test_fork(&mut k, p);
        assert_eq!(k.read_mem(c, base), Ok(5), "normal half copied");
        assert_eq!(
            k.read_mem(c, base.add(4)),
            Err(Errno::Efault),
            "DONTFORK half absent"
        );
        assert_eq!(k.read_mem(p, base.add(4)), Ok(6), "parent keeps it");
    }

    #[test]
    fn wipeonfork_range_zeroed_in_child() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, SECRET).unwrap();
        k.madvise(p, base, 4, Madvice::WipeOnFork).unwrap();
        let c = fpr_test_fork(&mut k, p);
        assert_eq!(k.read_mem(c, base), Ok(0), "wiped in child");
        assert_eq!(k.read_mem(p, base), Ok(SECRET), "intact in parent");
    }

    #[test]
    fn advice_is_reversible() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, 3).unwrap();
        k.madvise(p, base, 4, Madvice::DontFork).unwrap();
        k.madvise(p, base, 4, Madvice::DoFork).unwrap();
        let c = fpr_test_fork(&mut k, p);
        assert_eq!(k.read_mem(c, base), Ok(3));
    }

    #[test]
    fn mprotect_revokes_write() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, 1).unwrap();
        k.mprotect(p, base, 4, Prot::R).unwrap();
        assert_eq!(k.write_mem(p, base, 2), Err(Errno::Efault));
        assert_eq!(k.read_mem(p, base), Ok(1));
        k.mprotect(p, base, 4, Prot::RW).unwrap();
        assert_eq!(k.write_mem(p, base, 2).map(|_| ()), Ok(()));
    }

    #[test]
    fn zero_length_advice_is_einval() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        assert_eq!(k.madvise(p, base, 0, Madvice::DontFork), Err(Errno::Einval));
    }

    /// Minimal in-crate fork stand-in: duplicates the address space only
    /// (the full fork lives in `fpr-api`, which depends on this crate).
    fn fpr_test_fork(k: &mut Kernel, parent: Pid) -> Pid {
        let child = k.allocate_process(parent, "child").unwrap();
        k.copy_space(parent, child, fpr_mem::ForkMode::Cow).unwrap();
        child
    }

    const SECRET: u64 = 0xdead_beef;
}
