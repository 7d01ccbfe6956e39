//! Interval timers: `alarm(2)` and a minimal tick pump.
//!
//! Timers are yet another POSIX special case in the fork contract: the
//! child does **not** inherit the parent's pending alarms (POSIX lists
//! them among the not-inherited properties) — one more asymmetry the
//! tests pin down.

use crate::error::KResult;
use crate::kernel::Kernel;
use crate::pid::Pid;
use crate::signal::Sig;

/// A pending alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Alarm {
    /// Process to signal.
    pub pid: Pid,
    /// Absolute expiry, virtual nanoseconds.
    pub deadline_ns: u64,
}

impl Kernel {
    /// Arms (or disarms, with `None`) an alarm that delivers `SIGALRM`
    /// after `after_us` virtual microseconds. Returns the previous
    /// remaining time in microseconds, like `alarm(2)`.
    pub fn alarm(&mut self, pid: Pid, after_us: Option<u64>) -> KResult<u64> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let now = self.clock.now_ns();
        let prev = self
            .alarms
            .iter()
            .find(|a| a.pid == pid)
            .map(|a| a.deadline_ns.saturating_sub(now) / 1_000)
            .unwrap_or(0);
        self.alarms.retain(|a| a.pid != pid);
        if let Some(us) = after_us {
            self.alarms.push(Alarm {
                pid,
                deadline_ns: now + us * 1_000,
            });
        }
        Ok(prev)
    }

    /// Advances the virtual clock by `us` microseconds and delivers any
    /// expired alarms. Returns how many fired.
    pub fn tick_us(&mut self, us: u64) -> usize {
        self.clock.advance_ns(us * 1_000);
        let now = self.clock.now_ns();
        let (due, rest): (Vec<Alarm>, Vec<Alarm>) =
            self.alarms.drain(..).partition(|a| a.deadline_ns <= now);
        self.alarms = rest;
        let mut fired = 0;
        for a in &due {
            if self.kill(a.pid, Sig::Alrm).is_ok() {
                fired += 1;
            }
        }
        fired
    }

    /// Clears `pid`'s alarms (fork children and exiting processes).
    pub(crate) fn clear_alarms(&mut self, pid: Pid) {
        self.alarms.retain(|a| a.pid != pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{Disposition, HandlerId};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn alarm_fires_after_deadline() {
        let (mut k, init) = boot();
        let c = k.allocate_process(init, "sleeper").unwrap();
        k.sigaction(c, Sig::Alrm, Disposition::Handler(HandlerId(7)))
            .unwrap();
        k.alarm(c, Some(100)).unwrap();
        assert_eq!(k.tick_us(50), 0, "not yet due");
        assert_eq!(k.tick_us(60), 1, "fires at 110us");
        assert_eq!(k.handler_log, vec![(c, 7)]);
        assert_eq!(k.tick_us(1000), 0, "one-shot");
    }

    #[test]
    fn default_sigalrm_terminates() {
        let (mut k, init) = boot();
        let c = k.allocate_process(init, "victim").unwrap();
        k.alarm(c, Some(10)).unwrap();
        k.tick_us(20);
        assert!(k.process(c).unwrap().is_zombie());
    }

    #[test]
    fn rearm_returns_remaining_and_disarm_works() {
        let (mut k, init) = boot();
        let c = k.allocate_process(init, "t").unwrap();
        assert_eq!(k.alarm(c, Some(1_000)).unwrap(), 0);
        k.tick_us(400);
        let remaining = k.alarm(c, Some(2_000)).unwrap();
        assert_eq!(remaining, 600);
        // Disarm entirely: nothing ever fires.
        assert_eq!(k.alarm(c, None).unwrap(), 2_000);
        assert_eq!(k.tick_us(10_000), 0);
        assert!(!k.process(c).unwrap().is_zombie());
    }

    #[test]
    fn alarms_are_per_process() {
        let (mut k, init) = boot();
        let a = k.allocate_process(init, "a").unwrap();
        let b = k.allocate_process(init, "b").unwrap();
        k.alarm(a, Some(10)).unwrap();
        k.alarm(b, Some(1_000)).unwrap();
        assert_eq!(k.tick_us(20), 1);
        assert!(k.process(a).unwrap().is_zombie());
        assert!(!k.process(b).unwrap().is_zombie());
    }
}
