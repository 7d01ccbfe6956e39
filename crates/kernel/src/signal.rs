//! Signals: dispositions, pending sets, masks, and delivery.
//!
//! Fork copies the parent's signal dispositions and blocked mask but clears
//! the pending set; exec resets caught signals to their defaults while
//! keeping ignored ones ignored. Both rules are POSIX special cases the
//! paper cites, and both are exercised by the API tests.


/// Signal numbers (a practical subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sig {
    /// Hangup.
    Hup,
    /// Interrupt.
    Int,
    /// Quit.
    Quit,
    /// Kill (cannot be caught or ignored).
    Kill,
    /// Segmentation violation.
    Segv,
    /// Broken pipe.
    Pipe,
    /// Alarm clock.
    Alrm,
    /// Termination.
    Term,
    /// Child status changed.
    Chld,
    /// Continue.
    Cont,
    /// Stop (cannot be caught or ignored).
    Stop,
    /// User-defined 1.
    Usr1,
    /// User-defined 2.
    Usr2,
}

/// All modelled signals, in numbering order.
pub const ALL_SIGS: [Sig; 13] = [
    Sig::Hup,
    Sig::Int,
    Sig::Quit,
    Sig::Kill,
    Sig::Segv,
    Sig::Pipe,
    Sig::Alrm,
    Sig::Term,
    Sig::Chld,
    Sig::Cont,
    Sig::Stop,
    Sig::Usr1,
    Sig::Usr2,
];

impl Sig {
    /// Index into dispositions/masks.
    pub(crate) fn index(self) -> usize {
        ALL_SIGS
            .iter()
            .position(|s| *s == self)
            .expect("signal in ALL_SIGS")
    }

    /// The signal's number on Linux x86-64, which a death by it reports
    /// as exit status `128 + number`.
    pub(crate) fn number(self) -> i32 {
        match self {
            Sig::Hup => 1,
            Sig::Int => 2,
            Sig::Quit => 3,
            Sig::Kill => 9,
            Sig::Segv => 11,
            Sig::Pipe => 13,
            Sig::Alrm => 14,
            Sig::Term => 15,
            Sig::Chld => 17,
            Sig::Cont => 18,
            Sig::Stop => 19,
            Sig::Usr1 => 10,
            Sig::Usr2 => 12,
        }
    }

    /// True for signals whose disposition cannot be changed.
    pub(crate) fn unblockable(self) -> bool {
        matches!(self, Sig::Kill | Sig::Stop)
    }

    /// Default action when disposition is `Default`.
    pub(crate) fn default_action(self) -> DefaultAction {
        match self {
            Sig::Chld | Sig::Cont => DefaultAction::Ignore,
            Sig::Stop => DefaultAction::Stop,
            _ => DefaultAction::Terminate,
        }
    }
}

/// What the default disposition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DefaultAction {
    /// Terminate the process.
    Terminate,
    /// Ignore the signal.
    Ignore,
    /// Stop the process.
    Stop,
}

/// A registered handler, identified by a token (the simulator does not
/// execute user code; tests assert on tokens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerId(pub u64);

/// Disposition of one signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Default action.
    Default,
    /// Ignore.
    Ignore,
    /// User handler.
    Handler(HandlerId),
}

/// Per-process signal state.
#[derive(Debug, Clone)]
pub struct SignalState {
    dispositions: [Disposition; ALL_SIGS.len()],
    /// Bitmask of pending signals.
    pending: u32,
    /// Bitmask of blocked signals.
    blocked: u32,
}

impl Default for SignalState {
    fn default() -> Self {
        SignalState {
            dispositions: [Disposition::Default; ALL_SIGS.len()],
            pending: 0,
            blocked: 0,
        }
    }
}

impl SignalState {
    /// Fresh state with all defaults.
    pub(crate) fn new() -> SignalState {
        SignalState::default()
    }

    /// Reads a disposition.
    pub fn disposition(&self, sig: Sig) -> Disposition {
        self.dispositions[sig.index()]
    }

    /// Sets a disposition (`sigaction`). Ignored for unblockable signals.
    pub(crate) fn set_disposition(&mut self, sig: Sig, d: Disposition) {
        if !sig.unblockable() {
            self.dispositions[sig.index()] = d;
        }
    }

    /// Marks a signal pending.
    pub fn raise(&mut self, sig: Sig) {
        self.pending |= 1 << sig.index();
    }

    /// True if `sig` is pending.
    pub fn is_pending(&self, sig: Sig) -> bool {
        self.pending & (1 << sig.index()) != 0
    }

    /// Blocks or unblocks a signal (`sigprocmask`). KILL/STOP stay
    /// unblockable.
    pub(crate) fn set_blocked(&mut self, sig: Sig, blocked: bool) {
        if sig.unblockable() {
            return;
        }
        if blocked {
            self.blocked |= 1 << sig.index();
        } else {
            self.blocked &= !(1 << sig.index());
        }
    }

    /// True if `sig` is blocked.
    pub fn is_blocked(&self, sig: Sig) -> bool {
        self.blocked & (1 << sig.index()) != 0
    }

    /// Takes the next deliverable (pending, unblocked) signal.
    pub(crate) fn take_deliverable(&mut self) -> Option<Sig> {
        for sig in ALL_SIGS {
            let bit = 1u32 << sig.index();
            if self.pending & bit != 0 && self.blocked & bit == 0 {
                self.pending &= !bit;
                return Some(sig);
            }
        }
        None
    }

    /// Fork semantics: dispositions and mask copied, pending cleared.
    pub(crate) fn fork_clone(&self) -> SignalState {
        SignalState {
            dispositions: self.dispositions,
            pending: 0,
            blocked: self.blocked,
        }
    }

    /// Exec semantics: caught handlers reset to default, ignore/default
    /// kept, mask kept, pending kept.
    pub fn exec_reset(&mut self) {
        for d in &mut self.dispositions {
            if matches!(d, Disposition::Handler(_)) {
                *d = Disposition::Default;
            }
        }
    }

    /// Number of signals with user handlers installed.
    pub fn handler_count(&self) -> usize {
        self.dispositions
            .iter()
            .filter(|d| matches!(d, Disposition::Handler(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_take_in_numbering_order() {
        let mut s = SignalState::new();
        s.raise(Sig::Term);
        s.raise(Sig::Hup);
        assert_eq!(s.take_deliverable(), Some(Sig::Hup));
        assert_eq!(s.take_deliverable(), Some(Sig::Term));
        assert_eq!(s.take_deliverable(), None);
    }

    #[test]
    fn blocked_signals_stay_pending() {
        let mut s = SignalState::new();
        s.set_blocked(Sig::Usr1, true);
        s.raise(Sig::Usr1);
        assert_eq!(s.take_deliverable(), None);
        assert!(s.is_pending(Sig::Usr1));
        s.set_blocked(Sig::Usr1, false);
        assert_eq!(s.take_deliverable(), Some(Sig::Usr1));
    }

    #[test]
    fn kill_and_stop_are_unblockable() {
        let mut s = SignalState::new();
        s.set_blocked(Sig::Kill, true);
        assert!(!s.is_blocked(Sig::Kill));
        s.set_disposition(Sig::Kill, Disposition::Ignore);
        assert_eq!(s.disposition(Sig::Kill), Disposition::Default);
        s.set_disposition(Sig::Stop, Disposition::Handler(HandlerId(1)));
        assert_eq!(s.disposition(Sig::Stop), Disposition::Default);
    }

    #[test]
    fn fork_clone_copies_dispositions_clears_pending() {
        let mut s = SignalState::new();
        s.set_disposition(Sig::Int, Disposition::Handler(HandlerId(7)));
        s.set_blocked(Sig::Usr2, true);
        s.raise(Sig::Term);
        let c = s.fork_clone();
        assert_eq!(c.disposition(Sig::Int), Disposition::Handler(HandlerId(7)));
        assert!(c.is_blocked(Sig::Usr2));
        assert!(
            !c.is_pending(Sig::Term),
            "pending set must not be inherited"
        );
    }

    #[test]
    fn exec_reset_drops_handlers_keeps_ignore() {
        let mut s = SignalState::new();
        s.set_disposition(Sig::Int, Disposition::Handler(HandlerId(7)));
        s.set_disposition(Sig::Hup, Disposition::Ignore);
        s.exec_reset();
        assert_eq!(s.disposition(Sig::Int), Disposition::Default);
        assert_eq!(s.disposition(Sig::Hup), Disposition::Ignore);
        assert_eq!(s.handler_count(), 0);
    }

    #[test]
    fn default_actions() {
        assert_eq!(Sig::Chld.default_action(), DefaultAction::Ignore);
        assert_eq!(Sig::Term.default_action(), DefaultAction::Terminate);
        assert_eq!(Sig::Stop.default_action(), DefaultAction::Stop);
    }
}
