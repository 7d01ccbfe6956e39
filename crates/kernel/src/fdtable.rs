//! Per-process file-descriptor tables.
//!
//! A descriptor is an index into this table; the entry records the open
//! file description it references plus the per-descriptor `FD_CLOEXEC`
//! flag. Fork duplicates the whole table (every entry takes a reference);
//! exec closes the close-on-exec subset — both behaviours the paper lists
//! among fork's accumulated special cases.

use crate::error::{Errno, KResult};
use crate::file::OfdId;
use fpr_faults::FaultSite;
use std::collections::BTreeMap;

/// A file descriptor number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

/// Standard input.
pub const STDIN: Fd = Fd(0);
/// Standard output.
pub const STDOUT: Fd = Fd(1);
/// One descriptor-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdEntry {
    /// The open file description this descriptor references.
    pub ofd: OfdId,
    /// Close this descriptor on exec.
    pub cloexec: bool,
}

/// A per-process descriptor table.
///
/// Stored sparsely (occupied slots only), so every whole-table operation —
/// fork's clone, exec's `FD_CLOEXEC` sweep, exit's drain — is O(open
/// descriptors), not O(highest descriptor number). A process that dup2s
/// one descriptor to 100 000 and closes it again pays for one entry, not
/// for a hundred thousand empty slots.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    slots: BTreeMap<u32, FdEntry>,
}

impl FdTable {
    /// Creates an empty table.
    pub(crate) fn new() -> FdTable {
        FdTable::default()
    }

    /// Installs `entry` at the lowest free descriptor, enforcing `limit`
    /// (the `RLIMIT_NOFILE` soft limit).
    pub(crate) fn install(&mut self, entry: FdEntry, limit: u64) -> KResult<Fd> {
        fpr_faults::cross(FaultSite::FdAlloc).map_err(|_| Errno::Emfile)?;
        // Keys iterate ascending: the first index not matching its rank is
        // the lowest free descriptor (POSIX lowest-fd rule).
        let mut idx: u32 = 0;
        for k in self.slots.keys() {
            if *k == idx {
                idx += 1;
            } else {
                break;
            }
        }
        if idx as u64 >= limit {
            return Err(Errno::Emfile);
        }
        self.slots.insert(idx, entry);
        Ok(Fd(idx))
    }

    /// Installs `entry` at exactly `fd` (the `dup2` target path),
    /// returning any displaced entry for the caller to release.
    pub fn install_at(&mut self, fd: Fd, entry: FdEntry, limit: u64) -> KResult<Option<FdEntry>> {
        fpr_faults::cross(FaultSite::FdAlloc).map_err(|_| Errno::Emfile)?;
        if fd.0 as u64 >= limit {
            return Err(Errno::Ebadf);
        }
        Ok(self.slots.insert(fd.0, entry))
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: Fd) -> KResult<FdEntry> {
        self.slots.get(&fd.0).copied().ok_or(Errno::Ebadf)
    }

    /// Sets or clears `FD_CLOEXEC`.
    pub(crate) fn set_cloexec(&mut self, fd: Fd, cloexec: bool) -> KResult<()> {
        match self.slots.get_mut(&fd.0) {
            Some(e) => {
                e.cloexec = cloexec;
                Ok(())
            }
            None => Err(Errno::Ebadf),
        }
    }

    /// Removes a descriptor, returning its entry for release.
    pub(crate) fn remove(&mut self, fd: Fd) -> KResult<FdEntry> {
        self.slots.remove(&fd.0).ok_or(Errno::Ebadf)
    }

    /// Iterates over live `(fd, entry)` pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, FdEntry)> + '_ {
        self.slots.iter().map(|(i, e)| (Fd(*i), *e))
    }

    /// Removes and returns every `FD_CLOEXEC` entry (the exec sweep).
    pub fn take_cloexec(&mut self) -> Vec<(Fd, FdEntry)> {
        let doomed: Vec<u32> = self
            .slots
            .iter()
            .filter(|(_, e)| e.cloexec)
            .map(|(i, _)| *i)
            .collect();
        doomed
            .into_iter()
            .map(|i| (Fd(i), self.slots.remove(&i).expect("key just enumerated")))
            .collect()
    }

    /// Removes and returns every entry (process exit).
    pub fn drain(&mut self) -> Vec<FdEntry> {
        std::mem::take(&mut self.slots).into_values().collect()
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ofd: u32) -> FdEntry {
        FdEntry {
            ofd: OfdId(ofd),
            cloexec: false,
        }
    }

    #[test]
    fn lowest_free_descriptor_allocated() {
        let mut t = FdTable::new();
        assert_eq!(t.install(e(0), 1024).unwrap(), Fd(0));
        assert_eq!(t.install(e(1), 1024).unwrap(), Fd(1));
        t.remove(Fd(0)).unwrap();
        assert_eq!(
            t.install(e(2), 1024).unwrap(),
            Fd(0),
            "POSIX lowest-fd rule"
        );
    }

    #[test]
    fn nofile_limit_enforced() {
        let mut t = FdTable::new();
        t.install(e(0), 2).unwrap();
        t.install(e(1), 2).unwrap();
        assert_eq!(t.install(e(2), 2), Err(Errno::Emfile));
    }

    #[test]
    fn install_at_displaces() {
        let mut t = FdTable::new();
        t.install(e(0), 1024).unwrap();
        let displaced = t.install_at(Fd(0), e(9), 1024).unwrap();
        assert_eq!(displaced, Some(e(0)));
        assert_eq!(t.get(Fd(0)).unwrap().ofd, OfdId(9));
        assert_eq!(t.install_at(Fd(7), e(3), 1024).unwrap(), None);
        assert_eq!(t.get(Fd(7)).unwrap().ofd, OfdId(3));
    }

    #[test]
    fn cloexec_sweep_takes_only_marked() {
        let mut t = FdTable::new();
        t.install(e(0), 64).unwrap();
        t.install(e(1), 64).unwrap();
        t.install(e(2), 64).unwrap();
        t.set_cloexec(Fd(1), true).unwrap();
        let swept = t.take_cloexec();
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, Fd(1));
        assert_eq!(t.open_count(), 2);
        assert!(t.get(Fd(1)).is_err());
    }

    #[test]
    fn iter_ascending() {
        let mut t = FdTable::new();
        t.install(e(0), 64).unwrap();
        t.install_at(Fd(5), e(5), 64).unwrap();
        let fds: Vec<u32> = t.iter().map(|(fd, _)| fd.0).collect();
        assert_eq!(fds, vec![0, 5]);
        assert_eq!(t.open_count(), 2);
    }

    #[test]
    fn bad_fd_everywhere() {
        let mut t = FdTable::new();
        assert_eq!(t.get(Fd(0)).err(), Some(Errno::Ebadf));
        assert_eq!(t.remove(Fd(0)).err(), Some(Errno::Ebadf));
        assert_eq!(t.set_cloexec(Fd(0), true).err(), Some(Errno::Ebadf));
    }

    #[test]
    fn drain_empties_table() {
        let mut t = FdTable::new();
        t.install(e(0), 64).unwrap();
        t.install(e(1), 64).unwrap();
        assert_eq!(t.drain().len(), 2);
        assert_eq!(t.open_count(), 0);
    }
}
