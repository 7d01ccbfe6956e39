//! Open file descriptions — the kernel-side objects file descriptors
//! point at.
//!
//! POSIX semantics matter here: `dup` and fork *share* the open file
//! description (hence the shared offset), which is exactly the state the
//! paper counts among fork's implicit copies. The description table is
//! reference counted; descriptors in per-process [`crate::fdtable::FdTable`]s
//! hold the references.

use crate::error::{Errno, KResult};
use crate::pipe::PipeId;
use crate::vfs::Ino;

/// Index of an open file description in the kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OfdId(pub u32);

/// Status flags of an open file description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Opened for reading.
    pub read: bool,
    /// Opened for writing.
    pub write: bool,
    /// Appends seek to EOF before each write.
    pub append: bool,
    /// Non-blocking I/O.
    pub nonblock: bool,
}

impl OpenFlags {
    /// Read-only.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        append: false,
        nonblock: false,
    };
    /// Write-only.
    pub const WRONLY: OpenFlags = OpenFlags {
        read: false,
        write: true,
        append: false,
        nonblock: false,
    };
    /// Read-write.
    pub const RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        append: false,
        nonblock: false,
    };
}

/// The kernel object behind a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileObject {
    /// A VFS inode (regular file or directory).
    Vnode(Ino),
    /// The read end of a pipe.
    PipeRead(PipeId),
    /// The write end of a pipe.
    PipeWrite(PipeId),
    /// The console (a write sink with a capture buffer).
    Tty,
    /// `/dev/null`.
    Null,
}

/// An open file description: object + cursor + flags.
#[derive(Debug, Clone)]
pub(crate) struct OpenFile {
    /// The underlying object.
    pub object: FileObject,
    /// Shared file offset (meaningful for vnodes).
    pub offset: u64,
    /// Status flags.
    pub flags: OpenFlags,
    refs: u32,
}

/// Kernel-wide table of open file descriptions.
#[derive(Debug, Default)]
pub struct OfdTable {
    slots: Vec<Option<OpenFile>>,
    free: Vec<u32>,
}

impl OfdTable {
    /// Creates an empty table.
    pub(crate) fn new() -> OfdTable {
        OfdTable::default()
    }

    /// Installs a new description with one reference.
    pub fn insert(&mut self, object: FileObject, flags: OpenFlags) -> OfdId {
        let ofd = OpenFile {
            object,
            offset: 0,
            flags,
            refs: 1,
        };
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(ofd);
            OfdId(i)
        } else {
            self.slots.push(Some(ofd));
            OfdId((self.slots.len() - 1) as u32)
        }
    }

    /// Borrows a live description.
    pub(crate) fn get(&self, id: OfdId) -> KResult<&OpenFile> {
        self.slots
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(Errno::Ebadf)
    }

    /// Mutably borrows a live description.
    pub(crate) fn get_mut(&mut self, id: OfdId) -> KResult<&mut OpenFile> {
        self.slots
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(Errno::Ebadf)
    }

    /// Adds a reference (dup, fork inheritance, spawn installation).
    pub(crate) fn incref(&mut self, id: OfdId) -> KResult<()> {
        self.get_mut(id)?.refs += 1;
        Ok(())
    }

    /// Drops a reference. When the last reference dies, the description is
    /// destroyed and its object returned so the caller can release
    /// object-side state (pipe end counts).
    pub(crate) fn decref(&mut self, id: OfdId) -> KResult<Option<FileObject>> {
        let f = self.get_mut(id)?;
        debug_assert!(f.refs > 0);
        f.refs -= 1;
        if f.refs == 0 {
            let obj = f.object;
            self.slots[id.0 as usize] = None;
            self.free.push(id.0);
            Ok(Some(obj))
        } else {
            Ok(None)
        }
    }

    /// Number of live descriptions.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterates over live `(id, description)` pairs (invariant checking).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (OfdId, &OpenFile)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|f| (OfdId(i as u32), f)))
    }
}

impl OpenFile {
    /// Current reference count.
    pub(crate) fn ref_count(&self) -> u32 {
        self.refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = OfdTable::new();
        let id = t.insert(FileObject::Null, OpenFlags::RDWR);
        assert_eq!(t.get(id).unwrap().object, FileObject::Null);
        assert_eq!(t.get(id).unwrap().refs, 1);
        assert_eq!(t.live(), 1);
    }

    #[test]
    fn refcounting_destroys_at_zero() {
        let mut t = OfdTable::new();
        let id = t.insert(FileObject::Tty, OpenFlags::WRONLY);
        t.incref(id).unwrap();
        assert_eq!(t.decref(id), Ok(None));
        assert_eq!(t.decref(id), Ok(Some(FileObject::Tty)));
        assert_eq!(t.get(id).err(), Some(Errno::Ebadf));
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = OfdTable::new();
        let a = t.insert(FileObject::Null, OpenFlags::RDONLY);
        t.decref(a).unwrap();
        let b = t.insert(FileObject::Tty, OpenFlags::WRONLY);
        assert_eq!(a, b, "slot reused");
        assert_eq!(t.get(b).unwrap().object, FileObject::Tty);
    }

    #[test]
    fn shared_offset_visible_through_all_refs() {
        let mut t = OfdTable::new();
        let id = t.insert(FileObject::Vnode(Ino(9)), OpenFlags::RDWR);
        t.incref(id).unwrap();
        t.get_mut(id).unwrap().offset = 100;
        assert_eq!(t.get(id).unwrap().offset, 100);
    }

    #[test]
    fn bad_id_is_ebadf() {
        let mut t = OfdTable::new();
        assert_eq!(t.get(OfdId(3)).err(), Some(Errno::Ebadf));
        assert_eq!(t.incref(OfdId(3)).err(), Some(Errno::Ebadf));
    }
}
