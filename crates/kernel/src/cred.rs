//! Process credentials: user/group IDs and a small capability set.
//!
//! Fork copies credentials wholesale — one of the paper's security
//! complaints (the child inherits privilege it may not need). The
//! cross-process API can instead start a child with reduced credentials.


/// Capability bits: a set of four, of which only the one something tests
/// for has a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Caps(pub u32);

impl Caps {
    /// Send signals to arbitrary processes.
    pub const KILL: Caps = Caps(1 << 1);

    /// The empty capability set.
    pub const fn none() -> Caps {
        Caps(0)
    }

    /// Full capabilities (root).
    pub const fn all() -> Caps {
        Caps(0b1111)
    }

    /// Returns true if every bit of `other` is held.
    pub(crate) const fn has(self, other: Caps) -> bool {
        self.0 & other.0 == other.0
    }

    /// Removes the bits of `other`.
    pub const fn drop(self, other: Caps) -> Caps {
        Caps(self.0 & !other.0)
    }
}

/// Credentials of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credentials {
    /// Real user ID.
    pub uid: u32,
    /// Effective user ID.
    pub euid: u32,
    /// Real group ID.
    pub gid: u32,
    /// Effective group ID.
    pub egid: u32,
    /// Capability set.
    pub caps: Caps,
}

impl Credentials {
    /// Root credentials with all capabilities.
    pub fn root() -> Credentials {
        Credentials {
            uid: 0,
            euid: 0,
            gid: 0,
            egid: 0,
            caps: Caps::all(),
        }
    }

    /// Returns true if the credentials carry root or the given capability.
    pub fn can(self, cap: Caps) -> bool {
        self.euid == 0 || self.caps.has(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(caps: Caps) -> Credentials {
        Credentials {
            uid: 1000,
            euid: 1000,
            gid: 1000,
            egid: 1000,
            caps,
        }
    }

    #[test]
    fn root_can_everything() {
        let r = Credentials::root();
        assert!(r.can(Caps::KILL));
        assert_eq!(r.caps, Caps::all());
    }

    #[test]
    fn user_without_caps_cannot() {
        let u = user(Caps::none());
        assert!(!u.can(Caps::KILL));
        assert_eq!(u.caps, Caps::none());
    }

    #[test]
    fn cap_algebra() {
        let c = Caps::all();
        assert!(c.has(Caps::KILL));
        let d = c.drop(Caps::KILL);
        assert!(!d.has(Caps::KILL));
        assert_eq!(d, Caps(0b1101), "the other three bits stay");
    }

    #[test]
    fn user_with_explicit_cap() {
        let u = user(Caps::KILL);
        assert!(u.can(Caps::KILL));
        assert!(!u.can(Caps::all()));
    }
}
