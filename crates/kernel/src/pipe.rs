//! Anonymous pipes with bounded buffers and end-of-stream semantics.

use crate::error::{Errno, KResult};
use std::collections::VecDeque;

/// Default pipe capacity in bytes (64 KiB, like Linux).
pub(crate) const PIPE_CAPACITY: usize = 64 * 1024;

/// Index of a pipe in the kernel pipe table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipeId(pub u32);

/// One pipe: a byte queue plus open-end counts.
#[derive(Debug)]
pub(crate) struct Pipe {
    buf: VecDeque<u8>,
    capacity: usize,
    /// Live read-end descriptions.
    pub readers: u32,
    /// Live write-end descriptions.
    pub writers: u32,
}

impl Pipe {
    fn new(capacity: usize) -> Pipe {
        Pipe {
            buf: VecDeque::new(),
            capacity,
            readers: 1,
            writers: 1,
        }
    }
}

/// What a pipe read produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PipeRead {
    /// Bytes were available.
    Data(Vec<u8>),
    /// No data and live writers exist: the reader would block.
    WouldBlock,
    /// No data and no writers: end of stream.
    Eof,
}

/// Kernel table of pipes.
#[derive(Debug, Default)]
pub struct PipeTable {
    slots: Vec<Option<Pipe>>,
    free: Vec<u32>,
}

impl PipeTable {
    /// Creates an empty table.
    pub(crate) fn new() -> PipeTable {
        PipeTable::default()
    }

    /// Creates a pipe with the default capacity; both end counts start at 1.
    pub(crate) fn create(&mut self) -> PipeId {
        self.create_with_capacity(PIPE_CAPACITY)
    }

    /// Creates a pipe with a custom capacity.
    pub(crate) fn create_with_capacity(&mut self, capacity: usize) -> PipeId {
        let p = Pipe::new(capacity);
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(p);
            PipeId(i)
        } else {
            self.slots.push(Some(p));
            PipeId((self.slots.len() - 1) as u32)
        }
    }

    fn pipe_mut(&mut self, id: PipeId) -> KResult<&mut Pipe> {
        self.slots
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(Errno::Ebadf)
    }

    /// Iterates over live `(id, pipe)` pairs (invariant checking).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PipeId, &Pipe)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (PipeId(i as u32), p)))
    }

    /// Writes bytes to the pipe. Returns bytes accepted; 0 means the
    /// buffer is full (writer would block). Fails with [`Errno::Epipe`]
    /// when no read end is open — the simulated `SIGPIPE` case.
    pub(crate) fn write(&mut self, id: PipeId, buf: &[u8]) -> KResult<usize> {
        let p = self.pipe_mut(id)?;
        if p.readers == 0 {
            return Err(Errno::Epipe);
        }
        let space = p.capacity - p.buf.len();
        let n = space.min(buf.len());
        p.buf.extend(&buf[..n]);
        Ok(n)
    }

    /// Reads up to `len` bytes.
    pub(crate) fn read(&mut self, id: PipeId, len: usize) -> KResult<PipeRead> {
        let p = self.pipe_mut(id)?;
        if p.buf.is_empty() {
            return Ok(if p.writers == 0 {
                PipeRead::Eof
            } else {
                PipeRead::WouldBlock
            });
        }
        let n = len.min(p.buf.len());
        Ok(PipeRead::Data(p.buf.drain(..n).collect()))
    }

    /// Drops one open description of one end; destroys the pipe when both
    /// counts reach zero.
    pub(crate) fn drop_end(&mut self, id: PipeId, write_end: bool) -> KResult<()> {
        let p = self.pipe_mut(id)?;
        let c = if write_end {
            &mut p.writers
        } else {
            &mut p.readers
        };
        debug_assert!(*c > 0);
        *c -= 1;
        if p.readers == 0 && p.writers == 0 {
            self.slots[id.0 as usize] = None;
            self.free.push(id.0);
        }
        Ok(())
    }

    /// Number of live pipes.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut t = PipeTable::new();
        let p = t.create();
        assert_eq!(t.write(p, b"hello").unwrap(), 5);
        assert_eq!(t.read(p, 3).unwrap(), PipeRead::Data(b"hel".to_vec()));
        assert_eq!(t.read(p, 10).unwrap(), PipeRead::Data(b"lo".to_vec()));
        assert_eq!(t.read(p, 10).unwrap(), PipeRead::WouldBlock);
    }

    #[test]
    fn eof_when_writers_gone() {
        let mut t = PipeTable::new();
        let p = t.create();
        t.write(p, b"x").unwrap();
        t.drop_end(p, true).unwrap();
        assert_eq!(t.read(p, 10).unwrap(), PipeRead::Data(b"x".to_vec()));
        assert_eq!(t.read(p, 10).unwrap(), PipeRead::Eof);
    }

    #[test]
    fn epipe_when_readers_gone() {
        let mut t = PipeTable::new();
        let p = t.create();
        t.drop_end(p, false).unwrap();
        assert_eq!(t.write(p, b"x"), Err(Errno::Epipe));
    }

    #[test]
    fn capacity_backpressure() {
        let mut t = PipeTable::new();
        let p = t.create_with_capacity(4);
        assert_eq!(t.write(p, b"abcdef").unwrap(), 4, "short write at capacity");
        assert_eq!(t.write(p, b"x").unwrap(), 0, "full pipe accepts nothing");
        t.read(p, 2).unwrap();
        assert_eq!(t.write(p, b"xy").unwrap(), 2);
    }

    #[test]
    fn destroyed_when_both_ends_closed() {
        let mut t = PipeTable::new();
        let p = t.create();
        t.drop_end(p, true).unwrap();
        assert_eq!(t.live(), 1, "the reader still open");
        t.drop_end(p, false).unwrap();
        assert_eq!(t.live(), 0);
        assert_eq!(t.write(p, b"x"), Err(Errno::Ebadf));
    }
}
