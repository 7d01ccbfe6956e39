//! Descriptor syscalls: open/close/dup/pipe and read/write routing.

use crate::error::{Errno, KResult};
use crate::fdtable::{Fd, FdEntry};
use crate::file::{FileObject, OfdId, OpenFlags};
use crate::kernel::Kernel;
use crate::pid::Pid;
use crate::pipe::{PipeRead, PipeTable};
use crate::rlimit::Resource;
use crate::stdio::{BufMode, UserStream};

/// Result of a descriptor read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadResult {
    /// Bytes read.
    Data(Vec<u8>),
    /// Nothing available yet (pipe with live writers).
    WouldBlock,
    /// End of stream.
    Eof,
}

impl Kernel {
    fn nofile(&self, pid: Pid) -> KResult<u64> {
        Ok(self.process(pid)?.rlimits.get(Resource::Nofile).soft)
    }

    /// Opens `path` (optionally creating it) and returns a descriptor.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags, create: bool) -> KResult<Fd> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let cwd = self.process(pid)?.cwd;
        let (ino, created) = match self.vfs.resolve(path, cwd) {
            Ok(i) => (i, false),
            Err(Errno::Enoent) if create => (self.vfs.create(path, cwd, Vec::new())?, true),
            Err(e) => return Err(e),
        };
        let limit = self.nofile(pid)?;
        let ofd = self.ofds.insert(FileObject::Vnode(ino), flags);
        let fd = self.process_mut(pid)?.fds.install(
            FdEntry {
                ofd,
                cloexec: false,
            },
            limit,
        );
        match fd {
            Ok(fd) => Ok(fd),
            Err(e) => {
                self.ofds.decref(ofd)?;
                if created {
                    // The inode exists only because this call created it;
                    // a failed open must not leave it behind.
                    let _ = self.vfs.unlink(path, cwd);
                }
                Err(e)
            }
        }
    }

    /// Closes a descriptor.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> KResult<()> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let entry = self.process_mut(pid)?.fds.remove(fd)?;
        release_entry(&mut self.ofds, &mut self.pipes, entry)
    }

    /// Duplicates a descriptor to the lowest free slot.
    pub fn dup(&mut self, pid: Pid, fd: Fd) -> KResult<Fd> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let limit = self.nofile(pid)?;
        let entry = self.process(pid)?.fds.get(fd)?;
        self.ref_object(entry.ofd)?;
        // dup clears FD_CLOEXEC on the new descriptor.
        let new = FdEntry {
            ofd: entry.ofd,
            cloexec: false,
        };
        match self.process_mut(pid)?.fds.install(new, limit) {
            Ok(fd) => Ok(fd),
            Err(e) => {
                release_entry(&mut self.ofds, &mut self.pipes, new)?;
                Err(e)
            }
        }
    }

    /// Duplicates `old` onto `new` (closing whatever `new` held).
    pub fn dup2(&mut self, pid: Pid, old: Fd, new: Fd) -> KResult<Fd> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        if old == new {
            self.process(pid)?.fds.get(old)?;
            return Ok(new);
        }
        self.dup_to(pid, old, pid, new)?;
        Ok(new)
    }

    /// Installs a duplicate of `from`'s descriptor `from_fd` at `to`'s
    /// descriptor `to_fd`, closing whatever `to_fd` held, under `to`'s
    /// descriptor limit: `dup2`'s work, also across processes (a
    /// cross-process builder's descriptor grant).
    pub fn dup_to(&mut self, from: Pid, from_fd: Fd, to: Pid, to_fd: Fd) -> KResult<()> {
        let limit = self.nofile(to)?;
        let entry = self.process(from)?.fds.get(from_fd)?;
        self.ref_object(entry.ofd)?;
        let fresh = FdEntry {
            ofd: entry.ofd,
            cloexec: false,
        };
        let displaced = match self.process_mut(to)?.fds.install_at(to_fd, fresh, limit) {
            Ok(d) => d,
            Err(e) => {
                // The reference taken above was never installed; `from_fd`
                // still holds one, so this cannot destroy the description.
                self.ofds.decref(entry.ofd)?;
                return Err(e);
            }
        };
        if let Some(d) = displaced {
            release_entry(&mut self.ofds, &mut self.pipes, d)?;
        }
        Ok(())
    }

    /// Adds a reference to an OFD (a descriptor duplicated by `dup` or
    /// [`Kernel::dup_to`]).
    ///
    /// Pipe end counts are **not** touched: they count open file
    /// descriptions, not descriptors, and sharing an OFD does not create
    /// a new description. (Getting this wrong leaked pipes on every
    /// dup-then-exit — caught by the model-based descriptor test.)
    pub(crate) fn ref_object(&mut self, ofd: OfdId) -> KResult<()> {
        self.ofds.incref(ofd)
    }

    /// Creates a pipe, returning `(read_fd, write_fd)`.
    pub fn pipe(&mut self, pid: Pid) -> KResult<(Fd, Fd)> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let limit = self.nofile(pid)?;
        let id = self.pipes.create();
        let r_ofd = self
            .ofds
            .insert(FileObject::PipeRead(id), OpenFlags::RDONLY);
        let w_ofd = self
            .ofds
            .insert(FileObject::PipeWrite(id), OpenFlags::WRONLY);
        let p = self.process_mut(pid)?;
        let r = match p.fds.install(
            FdEntry {
                ofd: r_ofd,
                cloexec: false,
            },
            limit,
        ) {
            Ok(r) => r,
            Err(e) => {
                // Neither end was installed: unwind both descriptions and
                // the pipe itself.
                self.ofds.decref(r_ofd)?;
                self.pipes.drop_end(id, false)?;
                self.ofds.decref(w_ofd)?;
                self.pipes.drop_end(id, true)?;
                return Err(e);
            }
        };
        let w = match p.fds.install(
            FdEntry {
                ofd: w_ofd,
                cloexec: false,
            },
            limit,
        ) {
            Ok(w) => w,
            Err(e) => {
                let entry = p.fds.remove(r)?;
                release_entry(&mut self.ofds, &mut self.pipes, entry)?;
                self.ofds.decref(w_ofd)?;
                self.pipes.drop_end(id, true)?;
                return Err(e);
            }
        };
        Ok((r, w))
    }

    /// Writes through a descriptor. Returns bytes accepted.
    pub fn write_fd(&mut self, pid: Pid, fd: Fd, buf: &[u8]) -> KResult<usize> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let entry = self.process(pid)?.fds.get(fd)?;
        let (object, flags, offset) = {
            let f = self.ofds.get(entry.ofd)?;
            (f.object, f.flags, f.offset)
        };
        if !flags.write {
            return Err(Errno::Ebadf);
        }
        match object {
            FileObject::Tty => {
                self.console.extend_from_slice(buf);
                Ok(buf.len())
            }
            FileObject::Null => Ok(buf.len()),
            FileObject::Vnode(ino) => {
                let pos = if flags.append {
                    self.vfs.len(ino)?
                } else {
                    offset
                };
                let n = self.vfs.write_at(ino, pos, buf)?;
                self.ofds.get_mut(entry.ofd)?.offset = pos + n as u64;
                Ok(n)
            }
            FileObject::PipeWrite(p) => self.pipes.write(p, buf),
            FileObject::PipeRead(_) => Err(Errno::Ebadf),
        }
    }

    /// Reads up to `len` bytes from a descriptor.
    pub fn read_fd(&mut self, pid: Pid, fd: Fd, len: usize) -> KResult<ReadResult> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let entry = self.process(pid)?.fds.get(fd)?;
        let (object, flags, offset) = {
            let f = self.ofds.get(entry.ofd)?;
            (f.object, f.flags, f.offset)
        };
        if !flags.read {
            return Err(Errno::Ebadf);
        }
        match object {
            FileObject::Tty => Ok(ReadResult::WouldBlock),
            FileObject::Null => Ok(ReadResult::Eof),
            FileObject::Vnode(ino) => {
                let data = self.vfs.read_at(ino, offset, len)?;
                if data.is_empty() {
                    return Ok(ReadResult::Eof);
                }
                self.ofds.get_mut(entry.ofd)?.offset = offset + data.len() as u64;
                Ok(ReadResult::Data(data))
            }
            FileObject::PipeRead(p) => Ok(match self.pipes.read(p, len)? {
                PipeRead::Data(d) => ReadResult::Data(d),
                PipeRead::WouldBlock => ReadResult::WouldBlock,
                PipeRead::Eof => ReadResult::Eof,
            }),
            FileObject::PipeWrite(_) => Err(Errno::Ebadf),
        }
    }

    /// Sets `FD_CLOEXEC` on a descriptor.
    pub fn set_cloexec(&mut self, pid: Pid, fd: Fd, cloexec: bool) -> KResult<()> {
        self.process_mut(pid)?.fds.set_cloexec(fd, cloexec)
    }

    /// Attaches a buffered user stream to descriptor `fd` and returns its
    /// index among the streams of the memory `pid` runs in. (Userspace
    /// state, living in that memory.)
    pub fn stream_open(&mut self, pid: Pid, fd: Fd, mode: BufMode) -> KResult<usize> {
        let streams = &mut self.memory_mut(pid)?.streams;
        streams.push(UserStream::new(fd, mode));
        Ok(streams.len() - 1)
    }

    /// Writes through a buffered stream; spilled bytes go to the
    /// underlying descriptor of `pid`.
    pub fn stream_write(&mut self, pid: Pid, stream: usize, data: &[u8]) -> KResult<usize> {
        let (fd, out) = {
            let s = self.memory_mut(pid)?.streams.get_mut(stream).ok_or(Errno::Ebadf)?;
            (s.fd, s.write(data))
        };
        if !out.0.is_empty() {
            self.write_fd(pid, fd, &out.0)?;
        }
        Ok(data.len())
    }

    /// Flushes one buffered stream to its descriptor of `pid`.
    pub fn stream_flush(&mut self, pid: Pid, stream: usize) -> KResult<()> {
        let (fd, out) = {
            let s = self.memory_mut(pid)?.streams.get_mut(stream).ok_or(Errno::Ebadf)?;
            (s.fd, s.flush())
        };
        if !out.0.is_empty() {
            self.write_fd(pid, fd, &out.0)?;
        }
        Ok(())
    }
}

/// Releases one descriptor-table entry: drops the OFD reference and, if
/// the description died, the object-side state.
pub(crate) fn release_entry(
    ofds: &mut crate::file::OfdTable,
    pipes: &mut PipeTable,
    entry: FdEntry,
) -> KResult<()> {
    if let Some(obj) = ofds.decref(entry.ofd)? {
        match obj {
            FileObject::PipeRead(p) => pipes.drop_end(p, false)?,
            FileObject::PipeWrite(p) => pipes.drop_end(p, true)?,
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdtable::STDOUT;

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn console_write_lands_in_capture() {
        let (mut k, init) = boot();
        k.write_fd(init, STDOUT, b"hello\n").unwrap();
        assert_eq!(k.console, b"hello\n");
    }

    #[test]
    fn file_io_with_shared_offset() {
        let (mut k, init) = boot();
        let fd = k.open(init, "/log", OpenFlags::RDWR, true).unwrap();
        k.write_fd(init, fd, b"abcdef").unwrap();
        let dupped = k.dup(init, fd).unwrap();
        // The dup shares the offset: reading from it continues at 6 → EOF.
        assert_eq!(k.read_fd(init, dupped, 4).unwrap(), ReadResult::Eof);
        // Rewind through either descriptor affects both.
        {
            let entry = k.process(init).unwrap().fds.get(fd).unwrap();
            k.ofds.get_mut(entry.ofd).unwrap().offset = 0;
        }
        assert_eq!(
            k.read_fd(init, dupped, 4).unwrap(),
            ReadResult::Data(b"abcd".to_vec())
        );
        assert_eq!(
            k.read_fd(init, fd, 4).unwrap(),
            ReadResult::Data(b"ef".to_vec())
        );
    }

    #[test]
    fn append_mode_seeks_to_eof() {
        let (mut k, init) = boot();
        let mut fl = OpenFlags::WRONLY;
        fl.append = true;
        k.vfs.create("/a", k.vfs.root(), b"xx".to_vec()).unwrap();
        let fd = k.open(init, "/a", fl, false).unwrap();
        k.write_fd(init, fd, b"yy").unwrap();
        let ino = k.vfs.resolve("/a", k.vfs.root()).unwrap();
        assert_eq!(k.vfs.read_at(ino, 0, 10).unwrap(), b"xxyy");
    }

    #[test]
    fn pipe_roundtrip_and_eof() {
        let (mut k, init) = boot();
        let (r, w) = k.pipe(init).unwrap();
        k.write_fd(init, w, b"data").unwrap();
        assert_eq!(
            k.read_fd(init, r, 10).unwrap(),
            ReadResult::Data(b"data".to_vec())
        );
        assert_eq!(k.read_fd(init, r, 10).unwrap(), ReadResult::WouldBlock);
        k.close(init, w).unwrap();
        assert_eq!(k.read_fd(init, r, 10).unwrap(), ReadResult::Eof);
    }

    #[test]
    fn write_to_read_end_is_ebadf() {
        let (mut k, init) = boot();
        let (r, w) = k.pipe(init).unwrap();
        assert_eq!(k.write_fd(init, r, b"x"), Err(Errno::Ebadf));
        assert_eq!(k.read_fd(init, w, 1), Err(Errno::Ebadf));
    }

    #[test]
    fn close_releases_pipe_ends() {
        let (mut k, init) = boot();
        let (r, w) = k.pipe(init).unwrap();
        assert_eq!(k.pipes.live(), 1);
        k.close(init, r).unwrap();
        k.close(init, w).unwrap();
        assert_eq!(k.pipes.live(), 0);
    }

    #[test]
    fn dup2_redirects_stdout() {
        let (mut k, init) = boot();
        let fd = k.open(init, "/out", OpenFlags::WRONLY, true).unwrap();
        k.dup2(init, fd, STDOUT).unwrap();
        k.close(init, fd).unwrap();
        k.write_fd(init, STDOUT, b"redirected").unwrap();
        let ino = k.vfs.resolve("/out", k.vfs.root()).unwrap();
        assert_eq!(k.vfs.read_at(ino, 0, 64).unwrap(), b"redirected");
        assert!(k.console.is_empty());
    }

    #[test]
    fn open_missing_without_create_fails() {
        let (mut k, init) = boot();
        assert_eq!(
            k.open(init, "/nope", OpenFlags::RDONLY, false),
            Err(Errno::Enoent)
        );
    }

    #[test]
    fn stream_buffers_until_flush() {
        let (mut k, init) = boot();
        let s = k.stream_open(init, STDOUT, BufMode::FullyBuffered).unwrap();
        k.stream_write(init, s, b"buffered").unwrap();
        assert!(k.console.is_empty());
        assert_eq!(k.process(init).unwrap().unflushed_bytes(), 8);
        k.stream_flush(init, s).unwrap();
        assert_eq!(k.console, b"buffered");
        assert_eq!(k.process(init).unwrap().unflushed_bytes(), 0);
    }

    #[test]
    fn dup_clears_cloexec() {
        let (mut k, init) = boot();
        let fd = k.open(init, "/f", OpenFlags::RDWR, true).unwrap();
        k.set_cloexec(init, fd, true).unwrap();
        let d = k.dup(init, fd).unwrap();
        assert!(!k.process(init).unwrap().fds.get(d).unwrap().cloexec);
        assert!(k.process(init).unwrap().fds.get(fd).unwrap().cloexec);
    }
}
