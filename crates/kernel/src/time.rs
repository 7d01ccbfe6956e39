//! Virtual time, advanced by timer ticks.

/// A monotonic virtual clock.
///
/// Only timers move it ([`crate::Kernel::tick_us`]); it never reads the
/// host clock, so simulated timestamps are deterministic across runs and
/// machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    ns: u64,
}

impl Clock {
    /// Creates a clock at time zero.
    pub(crate) fn new() -> Clock {
        Clock::default()
    }

    /// Advances by nanoseconds directly (timer ticks).
    pub(crate) fn advance_ns(&mut self, ns: u64) {
        self.ns += ns;
    }

    /// Current time in nanoseconds.
    pub(crate) fn now_ns(&self) -> u64 {
        self.ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_ns_advance() {
        let mut c = Clock::new();
        c.advance_ns(2_500);
        assert_eq!(c.now_ns(), 2_500);
    }
}
