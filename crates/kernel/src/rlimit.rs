//! Per-process resource limits (`setrlimit`-style).


/// A single limit: soft (enforced) and hard (ceiling for raising soft).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rlimit {
    /// Currently enforced value.
    pub soft: u64,
    /// Maximum the soft limit may be raised to without privilege.
    pub hard: u64,
}

impl Rlimit {
    /// An effectively unlimited limit.
    pub(crate) const INFINITY: Rlimit = Rlimit {
        soft: u64::MAX,
        hard: u64::MAX,
    };

    /// Creates a limit with equal soft and hard values.
    pub fn both(v: u64) -> Rlimit {
        Rlimit { soft: v, hard: v }
    }
}

/// The resources the simulator enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Maximum simultaneous processes per real user (`RLIMIT_NPROC`) —
    /// the classic fork-bomb containment knob.
    Nproc,
    /// Maximum open file descriptors (`RLIMIT_NOFILE`).
    Nofile,
    /// Maximum address-space pages (`RLIMIT_AS`, in pages here).
    AsPages,
    /// Maximum stack pages (`RLIMIT_STACK`, in pages).
    StackPages,
}

/// The full limit set of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RlimitSet {
    nproc: Rlimit,
    nofile: Rlimit,
    as_pages: Rlimit,
    stack_pages: Rlimit,
}

impl Default for RlimitSet {
    fn default() -> Self {
        RlimitSet {
            nproc: Rlimit::both(4096),
            nofile: Rlimit::both(1024),
            as_pages: Rlimit::INFINITY,
            stack_pages: Rlimit::both(2048), // 8 MiB of 4 KiB pages
        }
    }
}

impl RlimitSet {
    /// Reads a limit.
    pub fn get(&self, r: Resource) -> Rlimit {
        match r {
            Resource::Nproc => self.nproc,
            Resource::Nofile => self.nofile,
            Resource::AsPages => self.as_pages,
            Resource::StackPages => self.stack_pages,
        }
    }

    /// Sets a limit. The caller is responsible for privilege checks when
    /// raising the hard limit.
    pub fn set(&mut self, r: Resource, lim: Rlimit) {
        match r {
            Resource::Nproc => self.nproc = lim,
            Resource::Nofile => self.nofile = lim,
            Resource::AsPages => self.as_pages = lim,
            Resource::StackPages => self.stack_pages = lim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = RlimitSet::default();
        assert_eq!(s.get(Resource::Nofile).soft, 1024);
        assert_eq!(s.get(Resource::AsPages), Rlimit::INFINITY);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut s = RlimitSet::default();
        s.set(Resource::Nproc, Rlimit::both(10));
        assert_eq!(s.get(Resource::Nproc), Rlimit::both(10));
    }
}
