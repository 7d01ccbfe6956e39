//! Kernel error numbers, mirroring the POSIX errno values that the
//! process-creation APIs return.

use std::fmt;

/// POSIX-style error numbers returned by simulated syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Errno {
    /// Resource temporarily unavailable (e.g. `RLIMIT_NPROC` hit).
    Eagain,
    /// Out of memory / commit limit exceeded.
    Enomem,
    /// Bad file descriptor.
    Ebadf,
    /// Invalid argument.
    Einval,
    /// No such process.
    Esrch,
    /// No child processes.
    Echild,
    /// Operation not permitted.
    Eperm,
    /// No such file or directory.
    Enoent,
    /// File exists.
    Eexist,
    /// Not a directory.
    Enotdir,
    /// Is a directory.
    Eisdir,
    /// Too many open files (per-process).
    Emfile,
    /// Too many open files (system-wide).
    Enfile,
    /// Resource deadlock would occur.
    Edeadlk,
    /// Bad address.
    Efault,
    /// Exec format error.
    Enoexec,
    /// Argument list too long.
    E2big,
    /// Broken pipe.
    Epipe,
    /// Function not implemented.
    Enosys,
    /// Access denied.
    Eacces,
    /// Resource busy.
    Ebusy,
    /// Interrupted system call.
    Eintr,
    /// I/O error (swap device failure on swap-in).
    Eio,
}

impl Errno {
    /// Short upper-case name, as `strerror` tooling prints it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Errno::Eagain => "EAGAIN",
            Errno::Enomem => "ENOMEM",
            Errno::Ebadf => "EBADF",
            Errno::Einval => "EINVAL",
            Errno::Esrch => "ESRCH",
            Errno::Echild => "ECHILD",
            Errno::Eperm => "EPERM",
            Errno::Enoent => "ENOENT",
            Errno::Eexist => "EEXIST",
            Errno::Enotdir => "ENOTDIR",
            Errno::Eisdir => "EISDIR",
            Errno::Emfile => "EMFILE",
            Errno::Enfile => "ENFILE",
            Errno::Edeadlk => "EDEADLK",
            Errno::Efault => "EFAULT",
            Errno::Enoexec => "ENOEXEC",
            Errno::E2big => "E2BIG",
            Errno::Epipe => "EPIPE",
            Errno::Enosys => "ENOSYS",
            Errno::Eacces => "EACCES",
            Errno::Ebusy => "EBUSY",
            Errno::Eintr => "EINTR",
            Errno::Eio => "EIO",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::error::Error for Errno {}

impl From<fpr_mem::MemError> for Errno {
    fn from(e: fpr_mem::MemError) -> Errno {
        match e {
            fpr_mem::MemError::OutOfMemory | fpr_mem::MemError::CommitLimit => Errno::Enomem,
            fpr_mem::MemError::Overlap | fpr_mem::MemError::BadAlignment => Errno::Einval,
            fpr_mem::MemError::BadAddress
            | fpr_mem::MemError::NotMapped
            | fpr_mem::MemError::Protection => Errno::Efault,
            fpr_mem::MemError::Fragmented => Errno::Enomem,
            fpr_mem::MemError::SwapIo => Errno::Eio,
        }
    }
}

/// Result alias for simulated syscalls.
pub type KResult<T> = Result<T, Errno>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_display() {
        assert_eq!(Errno::Enomem.name(), "ENOMEM");
        assert_eq!(Errno::Edeadlk.to_string(), "EDEADLK");
    }

    #[test]
    fn mem_error_conversion() {
        assert_eq!(Errno::from(fpr_mem::MemError::OutOfMemory), Errno::Enomem);
        assert_eq!(Errno::from(fpr_mem::MemError::CommitLimit), Errno::Enomem);
        assert_eq!(Errno::from(fpr_mem::MemError::NotMapped), Errno::Efault);
        assert_eq!(Errno::from(fpr_mem::MemError::Overlap), Errno::Einval);
        assert_eq!(Errno::from(fpr_mem::MemError::SwapIo), Errno::Eio);
    }
}
