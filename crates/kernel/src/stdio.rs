//! User-space buffered streams — fork's composition hazard made concrete.
//!
//! A `FILE*`-style stream buffers writes in process memory. Because fork
//! duplicates all of memory, any bytes sitting in the buffer at fork time
//! exist in *both* processes afterwards, and are emitted twice when each
//! process flushes (typically at exit). The paper uses this as its
//! flagship example of fork failing to compose with user-level
//! abstractions; experiment E6 measures the duplicated bytes.

use crate::fdtable::Fd;

/// Buffering discipline of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufMode {
    /// Flush on every write (`_IONBF`).
    Unbuffered,
    /// Flush on newline (`_IOLBF`).
    LineBuffered,
    /// Flush when the buffer fills (`_IOFBF`).
    FullyBuffered,
}

/// A user-space buffered output stream bound to a descriptor.
#[derive(Debug, Clone)]
pub struct UserStream {
    /// Descriptor the stream writes through.
    pub fd: Fd,
    /// Buffering discipline.
    pub mode: BufMode,
    /// Buffer capacity in bytes.
    pub capacity: usize,
    /// Bytes buffered and not yet written to the descriptor.
    buffer: Vec<u8>,
}

/// Bytes the stream wants written to its descriptor now.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct FlushOut(pub Vec<u8>);

impl UserStream {
    /// Creates a stream with a 4 KiB fully buffered default.
    pub(crate) fn new(fd: Fd, mode: BufMode) -> UserStream {
        UserStream {
            fd,
            mode,
            capacity: 4096,
            buffer: Vec::new(),
        }
    }

    /// Buffers `data`, returning any bytes that must be written through to
    /// the descriptor according to the buffering discipline.
    pub(crate) fn write(&mut self, data: &[u8]) -> FlushOut {
        match self.mode {
            BufMode::Unbuffered => FlushOut(data.to_vec()),
            BufMode::LineBuffered => {
                self.buffer.extend_from_slice(data);
                match self.buffer.iter().rposition(|b| *b == b'\n') {
                    Some(nl) => FlushOut(self.buffer.drain(..=nl).collect()),
                    None => self.spill_if_full(),
                }
            }
            BufMode::FullyBuffered => {
                self.buffer.extend_from_slice(data);
                self.spill_if_full()
            }
        }
    }

    fn spill_if_full(&mut self) -> FlushOut {
        if self.buffer.len() >= self.capacity {
            FlushOut(std::mem::take(&mut self.buffer))
        } else {
            FlushOut::default()
        }
    }

    /// Flushes everything buffered (called by `fflush` and at exit).
    pub(crate) fn flush(&mut self) -> FlushOut {
        FlushOut(std::mem::take(&mut self.buffer))
    }

    /// Bytes currently buffered — the data fork will duplicate.
    pub(crate) fn pending(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbuffered_passes_through() {
        let mut s = UserStream::new(Fd(1), BufMode::Unbuffered);
        assert_eq!(s.write(b"abc").0, b"abc");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn line_buffered_flushes_on_newline() {
        let mut s = UserStream::new(Fd(1), BufMode::LineBuffered);
        assert_eq!(s.write(b"par").0, b"");
        assert_eq!(s.pending(), 3);
        assert_eq!(s.write(b"tial\nrest").0, b"partial\n");
        assert_eq!(s.pending(), 4);
        assert_eq!(s.flush().0, b"rest");
    }

    #[test]
    fn fully_buffered_spills_at_capacity() {
        let mut s = UserStream::new(Fd(1), BufMode::FullyBuffered);
        s.capacity = 8;
        assert_eq!(s.write(b"1234").0, b"");
        assert_eq!(s.write(b"5678").0, b"12345678");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn pending_bytes_are_the_fork_hazard() {
        let mut s = UserStream::new(Fd(1), BufMode::FullyBuffered);
        s.write(b"hello ");
        // A fork at this point duplicates 6 bytes; both copies flush at
        // exit and the output contains the prefix twice.
        assert_eq!(s.pending(), 6);
        let forked = s.clone();
        let a = s.flush().0;
        let b = forked.clone().flush().0;
        assert_eq!(a, b, "duplicated output");
    }
}
