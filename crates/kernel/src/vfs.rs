//! A small in-memory virtual filesystem.
//!
//! Provides just enough of a file layer for the reproduction: hierarchical
//! directories, regular files with byte contents, path resolution against
//! a working directory, and stable inode numbers that double as the
//! `file_id` used by file-backed memory mappings.

use crate::error::{Errno, KResult};
use std::collections::{BTreeMap, HashMap};

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u64);

/// What an inode is.
#[derive(Debug, Clone)]
pub(crate) enum InodeKind {
    /// Regular file with byte contents.
    File {
        /// File bytes.
        data: Vec<u8>,
        /// Content generation: 0 at creation, bumped by every write.
        /// Consumers caching derived state (the exec image cache) compare
        /// generations to detect rewrites.
        generation: u64,
    },
    /// Directory mapping names to inodes.
    Dir {
        /// Child entries.
        entries: BTreeMap<String, Ino>,
    },
}

/// An inode's content; its identity is its key in the filesystem's map.
#[derive(Debug, Clone)]
pub(crate) struct Inode {
    /// File or directory payload.
    pub kind: InodeKind,
}

/// The in-memory filesystem.
#[derive(Debug)]
pub struct Vfs {
    inodes: HashMap<Ino, Inode>,
    next: u64,
    root: Ino,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates a filesystem containing only `/`.
    pub(crate) fn new() -> Vfs {
        let root = Ino(1);
        let mut inodes = HashMap::new();
        inodes.insert(
            root,
            Inode {
                kind: InodeKind::Dir {
                    entries: BTreeMap::new(),
                },
            },
        );
        Vfs {
            inodes,
            next: 2,
            root,
        }
    }

    /// The root directory inode.
    pub fn root(&self) -> Ino {
        self.root
    }

    fn alloc_ino(&mut self) -> Ino {
        let i = Ino(self.next);
        self.next += 1;
        i
    }

    /// Looks up an inode by number.
    pub(crate) fn inode(&self, ino: Ino) -> KResult<&Inode> {
        self.inodes.get(&ino).ok_or(Errno::Enoent)
    }

    fn inode_mut(&mut self, ino: Ino) -> KResult<&mut Inode> {
        self.inodes.get_mut(&ino).ok_or(Errno::Enoent)
    }

    /// Resolves `path` (absolute, or relative to `cwd`) to an inode.
    pub fn resolve(&self, path: &str, cwd: Ino) -> KResult<Ino> {
        let (mut cur, rest) = if let Some(r) = path.strip_prefix('/') {
            (self.root, r)
        } else {
            (cwd, path)
        };
        for comp in rest.split('/').filter(|c| !c.is_empty() && *c != ".") {
            let node = self.inode(cur)?;
            let entries = match &node.kind {
                InodeKind::Dir { entries } => entries,
                InodeKind::File { .. } => return Err(Errno::Enotdir),
            };
            cur = *entries.get(comp).ok_or(Errno::Enoent)?;
        }
        Ok(cur)
    }

    /// Splits `path` into (parent inode, final component).
    fn resolve_parent<'p>(&self, path: &'p str, cwd: Ino) -> KResult<(Ino, &'p str)> {
        let trimmed = path.trim_end_matches('/');
        if trimmed.is_empty() {
            return Err(Errno::Eexist); // "/" itself
        }
        let (dir_part, name) = match trimmed.rfind('/') {
            Some(i) => (&trimmed[..i], &trimmed[i + 1..]),
            None => ("", trimmed),
        };
        if name.is_empty() || name == "." {
            return Err(Errno::Einval);
        }
        let parent = if dir_part.is_empty() {
            if path.starts_with('/') {
                self.root
            } else {
                cwd
            }
        } else {
            self.resolve(dir_part, cwd)?
        };
        Ok((parent, name))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str, cwd: Ino) -> KResult<Ino> {
        fpr_faults::cross(fpr_faults::FaultSite::VfsOp).map_err(|_| Errno::Enomem)?;
        let (parent, name) = self.resolve_parent(path, cwd)?;
        let ino = self.alloc_ino();
        let dir = self.inode_mut(parent)?;
        match &mut dir.kind {
            InodeKind::Dir { entries } => {
                if entries.contains_key(name) {
                    return Err(Errno::Eexist);
                }
                entries.insert(name.to_string(), ino);
            }
            InodeKind::File { .. } => return Err(Errno::Enotdir),
        }
        self.inodes.insert(
            ino,
            Inode {
                kind: InodeKind::Dir {
                    entries: BTreeMap::new(),
                },
            },
        );
        Ok(ino)
    }

    /// Creates a regular file with `data`, failing if it already exists.
    pub fn create(&mut self, path: &str, cwd: Ino, data: Vec<u8>) -> KResult<Ino> {
        fpr_faults::cross(fpr_faults::FaultSite::VfsOp).map_err(|_| Errno::Enomem)?;
        let (parent, name) = self.resolve_parent(path, cwd)?;
        let ino = self.alloc_ino();
        let dir = self.inode_mut(parent)?;
        match &mut dir.kind {
            InodeKind::Dir { entries } => {
                if entries.contains_key(name) {
                    return Err(Errno::Eexist);
                }
                entries.insert(name.to_string(), ino);
            }
            InodeKind::File { .. } => return Err(Errno::Enotdir),
        }
        self.inodes.insert(
            ino,
            Inode {
                kind: InodeKind::File {
                    data,
                    generation: 0,
                },
            },
        );
        Ok(ino)
    }

    /// Removes a file or empty directory.
    pub fn unlink(&mut self, path: &str, cwd: Ino) -> KResult<()> {
        let (parent, name) = self.resolve_parent(path, cwd)?;
        let target = {
            let dir = self.inode(parent)?;
            match &dir.kind {
                InodeKind::Dir { entries } => *entries.get(name).ok_or(Errno::Enoent)?,
                InodeKind::File { .. } => return Err(Errno::Enotdir),
            }
        };
        if let InodeKind::Dir { entries } = &self.inode(target)?.kind {
            if !entries.is_empty() {
                return Err(Errno::Ebusy);
            }
        }
        if let InodeKind::Dir { entries } = &mut self.inode_mut(parent)?.kind {
            entries.remove(name);
        }
        self.inodes.remove(&target);
        Ok(())
    }

    /// Reads up to `len` bytes at `offset` from a regular file.
    pub fn read_at(&self, ino: Ino, offset: u64, len: usize) -> KResult<Vec<u8>> {
        match &self.inode(ino)?.kind {
            InodeKind::File { data, .. } => {
                let start = (offset as usize).min(data.len());
                let end = (start + len).min(data.len());
                Ok(data[start..end].to_vec())
            }
            InodeKind::Dir { .. } => Err(Errno::Eisdir),
        }
    }

    /// Writes `buf` at `offset` into a regular file, extending it with
    /// zeroes if needed. Returns bytes written.
    pub fn write_at(&mut self, ino: Ino, offset: u64, buf: &[u8]) -> KResult<usize> {
        match &mut self.inode_mut(ino)?.kind {
            InodeKind::File { data, generation } => {
                let end = offset as usize + buf.len();
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[offset as usize..end].copy_from_slice(buf);
                *generation += 1;
                Ok(buf.len())
            }
            InodeKind::Dir { .. } => Err(Errno::Eisdir),
        }
    }

    /// Content generation of a regular file: 0 at creation, +1 per write.
    /// Directories and missing inodes report 0.
    pub fn generation(&self, ino: Ino) -> u64 {
        match self.inodes.get(&ino).map(|i| &i.kind) {
            Some(InodeKind::File { generation, .. }) => *generation,
            _ => 0,
        }
    }

    /// Length of a regular file in bytes.
    pub(crate) fn len(&self, ino: Ino) -> KResult<u64> {
        match &self.inode(ino)?.kind {
            InodeKind::File { data, .. } => Ok(data.len() as u64),
            InodeKind::Dir { .. } => Err(Errno::Eisdir),
        }
    }

    /// Number of live inodes (including the root).
    pub(crate) fn inode_count(&self) -> usize {
        self.inodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Vfs {
        Vfs::new()
    }

    #[test]
    fn create_and_resolve_absolute() {
        let mut v = fs();
        v.mkdir("/bin", v.root()).unwrap();
        let f = v.create("/bin/sh", v.root(), b"#!image".to_vec()).unwrap();
        assert_eq!(v.resolve("/bin/sh", v.root()).unwrap(), f);
        assert_eq!(v.read_at(f, 0, 7).unwrap(), b"#!image");
    }

    #[test]
    fn relative_resolution_uses_cwd() {
        let mut v = fs();
        let home = v.mkdir("/home", v.root()).unwrap();
        v.create("/home/notes.txt", v.root(), b"hi".to_vec())
            .unwrap();
        assert!(v.resolve("notes.txt", home).is_ok());
        assert_eq!(v.resolve("notes.txt", v.root()), Err(Errno::Enoent));
        assert!(v.resolve("./notes.txt", home).is_ok());
    }

    #[test]
    fn duplicate_create_is_eexist() {
        let mut v = fs();
        v.create("/a", v.root(), vec![]).unwrap();
        assert_eq!(v.create("/a", v.root(), vec![]), Err(Errno::Eexist));
        assert_eq!(v.mkdir("/a", v.root()), Err(Errno::Eexist));
    }

    #[test]
    fn write_extends_and_reads_back() {
        let mut v = fs();
        let f = v.create("/f", v.root(), vec![]).unwrap();
        v.write_at(f, 4, b"abcd").unwrap();
        assert_eq!(v.len(f).unwrap(), 8);
        assert_eq!(v.read_at(f, 0, 8).unwrap(), b"\0\0\0\0abcd");
        assert_eq!(v.read_at(f, 6, 10).unwrap(), b"cd", "short read at EOF");
    }

    #[test]
    fn generation_bumps_on_every_write_only() {
        let mut v = fs();
        let f = v.create("/prog", v.root(), b"v1".to_vec()).unwrap();
        assert_eq!(v.generation(f), 0);
        v.read_at(f, 0, 2).unwrap();
        assert_eq!(v.generation(f), 0, "reads do not bump");
        v.write_at(f, 0, b"v2").unwrap();
        assert_eq!(v.generation(f), 1);
        v.write_at(f, 1, b"x").unwrap();
        assert_eq!(v.generation(f), 2);
        assert_eq!(v.generation(v.root()), 0, "directories report 0");
    }

    #[test]
    fn unlink_file_and_refuse_nonempty_dir() {
        let mut v = fs();
        v.mkdir("/d", v.root()).unwrap();
        v.create("/d/f", v.root(), vec![]).unwrap();
        assert_eq!(v.unlink("/d", v.root()), Err(Errno::Ebusy));
        v.unlink("/d/f", v.root()).unwrap();
        v.unlink("/d", v.root()).unwrap();
        assert_eq!(v.resolve("/d", v.root()), Err(Errno::Enoent));
        assert_eq!(v.inode_count(), 1);
    }

    #[test]
    fn file_in_path_is_enotdir() {
        let mut v = fs();
        v.create("/f", v.root(), vec![]).unwrap();
        assert_eq!(v.resolve("/f/x", v.root()), Err(Errno::Enotdir));
        assert_eq!(v.create("/f/x", v.root(), vec![]), Err(Errno::Enotdir));
    }

    #[test]
    fn dir_io_is_rejected() {
        let v = fs();
        assert_eq!(v.read_at(v.root(), 0, 1), Err(Errno::Eisdir));
        assert_eq!(v.len(v.root()), Err(Errno::Eisdir));
    }
}
