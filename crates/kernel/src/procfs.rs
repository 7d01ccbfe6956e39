//! `/proc`-style introspection: textual views of process and machine
//! state, in the familiar Linux formats.
//!
//! Nothing here affects behaviour — it renders the state the rest of the
//! kernel maintains, and the examples/tests use it to *show* what fork
//! duplicated.

use crate::error::KResult;
use crate::kernel::Kernel;
use crate::pid::Pid;
use crate::task::ProcState;
use fpr_mem::{VmaKind, PAGE_SIZE};
use std::fmt::Write as _;

impl Kernel {
    /// Renders `/proc/<pid>/maps`: one line per VMA of the space `pid`
    /// runs in (a vfork borrower's lender's).
    pub fn proc_maps(&self, pid: Pid) -> KResult<String> {
        let mut out = String::new();
        for v in self.memory(pid)?.aspace.vmas() {
            let perms = format!(
                "{}{}{}{}",
                if v.prot.read { 'r' } else { '-' },
                if v.prot.write { 'w' } else { '-' },
                if v.prot.exec { 'x' } else { '-' },
                match v.share {
                    fpr_mem::Share::Private => 'p',
                    fpr_mem::Share::Shared => 's',
                },
            );
            let label = match v.kind {
                VmaKind::Text => "[text]",
                VmaKind::Data => "[data]",
                VmaKind::Heap => "[heap]",
                VmaKind::Stack => "[stack]",
                VmaKind::Guard => "[guard]",
                VmaKind::Mmap => "",
            };
            let mut flags = String::new();
            if v.fork_policy.dont_fork {
                flags.push_str(" dontfork");
            }
            if v.fork_policy.wipe_on_fork {
                flags.push_str(" wipeonfork");
            }
            let _ = writeln!(
                out,
                "{:012x}-{:012x} {} {:>8} {}{}",
                v.start.0 * PAGE_SIZE,
                v.end().0 * PAGE_SIZE,
                perms,
                v.pages,
                label,
                flags,
            );
        }
        Ok(out)
    }

    /// Renders `/proc/<pid>/status`: identity, state, memory and thread
    /// summary; the memory is the space `pid` runs in (a vfork borrower's
    /// lender's).
    pub fn proc_status(&self, pid: Pid) -> KResult<String> {
        let p = self.process(pid)?;
        let space = &self.memory(pid)?.aspace;
        let state = match p.state {
            ProcState::Running => "R (running)",
            ProcState::Zombie(_) => "Z (zombie)",
        };
        let mut out = String::new();
        let _ = writeln!(out, "Name:\t{}", p.name);
        let _ = writeln!(out, "State:\t{state}");
        let _ = writeln!(out, "Pid:\t{}", p.pid.0);
        let _ = writeln!(out, "PPid:\t{}", p.ppid.0);
        let _ = writeln!(out, "Uid:\t{}\t{}", p.cred.uid, p.cred.euid);
        let _ = writeln!(
            out,
            "VmSize:\t{} kB",
            space.virtual_pages() * PAGE_SIZE / 1024
        );
        let _ = writeln!(out, "VmRSS:\t{} kB", space.resident_pages() * PAGE_SIZE / 1024);
        let _ = writeln!(
            out,
            "VmSwap:\t{} kB",
            space.swapped_pages() * PAGE_SIZE / 1024
        );
        let _ = writeln!(
            out,
            "AnonHugePages:\t{} kB",
            space.huge_pages() * fpr_mem::HUGE_PAGE_SIZE / 1024
        );
        let _ = writeln!(out, "Threads:\t{}", p.threads.len());
        let _ = writeln!(out, "FDSize:\t{}", p.fds.open_count());
        let _ = writeln!(out, "SigBlk:\t{}", blocked_count(p));
        Ok(out)
    }

    /// Renders `/proc/meminfo`: machine memory summary.
    pub fn proc_meminfo(&self) -> String {
        let total = self.phys.total_frames() * PAGE_SIZE / 1024;
        let free = self.phys.free_frames() * PAGE_SIZE / 1024;
        let committed = self.commit.committed() * PAGE_SIZE / 1024;
        let swap_total = self.phys.swap().capacity() * PAGE_SIZE / 1024;
        let swap_free = self.phys.swap().free_slots() * PAGE_SIZE / 1024;
        let thp = self.phys.thp_stats();
        format!(
            "MemTotal:\t{total} kB\nMemFree:\t{free} kB\nSwapTotal:\t{swap_total} kB\n\
             SwapFree:\t{swap_free} kB\nCommitted_AS:\t{committed} kB\n\
             THP:\tpromoted {} demoted {} failed {}\n",
            thp.promoted, thp.demoted, thp.failed
        )
    }

    /// Renders `/proc/pressure/memory` (PSI): the share of simulated
    /// cycles spent stalled in reclaim instead of making progress. The
    /// simulation has no wall clock, so the three Linux averaging windows
    /// collapse to a single whole-run average; `total` is stall cycles
    /// (Linux reports microseconds).
    pub fn proc_pressure_memory(&self) -> String {
        let stalled = self.phys.stall_cycles_total();
        let pct = 100.0 * stalled as f64 / self.cycles.total().max(1) as f64;
        format!(
            "some avg10={pct:.2} avg60={pct:.2} avg300={pct:.2} total={stalled}\n\
             full avg10={pct:.2} avg60={pct:.2} avg300={pct:.2} total={stalled}\n"
        )
    }

    /// Renders a one-line-per-process table (a minimal `ps`).
    pub fn ps(&self) -> String {
        let mut out = String::from("  PID  PPID NTH    RSS STAT NAME\n");
        for pid in self.pids() {
            let p = match self.process(pid) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let stat = match p.state {
                ProcState::Running => "R",
                ProcState::Zombie(_) => "Z",
            };
            let _ = writeln!(
                out,
                "{:>5} {:>5} {:>3} {:>6} {:>4} {}",
                p.pid.0,
                p.ppid.0,
                p.threads.len(),
                p.resident_pages(),
                stat,
                p.name,
            );
        }
        out
    }
}

fn blocked_count(p: &crate::task::Process) -> usize {
    crate::signal::ALL_SIGS
        .iter()
        .filter(|s| p.signals.is_blocked(**s))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_mem::{Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn maps_shows_vmas_with_perms_and_policy() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 8, Prot::RW, Share::Private).unwrap();
        k.madvise(p, base, 4, crate::mm::Madvice::WipeOnFork)
            .unwrap();
        let maps = k.proc_maps(p).unwrap();
        assert!(maps.contains("rw-p"));
        assert!(maps.contains("wipeonfork"));
        assert_eq!(maps.lines().count(), 2, "split into policy + rest");
    }

    #[test]
    fn status_reports_identity_and_memory() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 16, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 4).unwrap();
        let st = k.proc_status(p).unwrap();
        assert!(st.contains("Name:\tinit"));
        assert!(st.contains("State:\tR (running)"));
        assert!(st.contains("VmSize:\t64 kB"));
        assert!(st.contains("VmRSS:\t16 kB"));
        assert!(st.contains("FDSize:\t3"));
    }

    #[test]
    fn meminfo_tracks_commit() {
        let (mut k, p) = boot();
        let before = k.proc_meminfo();
        assert!(before.contains("Committed_AS:\t0 kB"));
        k.mmap_anon(p, 256, Prot::RW, Share::Private).unwrap();
        let after = k.proc_meminfo();
        assert!(after.contains("Committed_AS:\t1024 kB"));
    }

    #[test]
    fn meminfo_and_status_report_swap() {
        let mut k = Kernel::new(crate::kernel::MachineConfig {
            swap_slots: 64,
            ..Default::default()
        });
        let p = k.create_init("init").unwrap();
        let mem = k.proc_meminfo();
        assert!(mem.contains("SwapTotal:\t256 kB"));
        assert!(mem.contains("SwapFree:\t256 kB"));
        let st = k.proc_status(p).unwrap();
        assert!(st.contains("VmSwap:\t0 kB"));
    }

    #[test]
    fn status_and_meminfo_report_thp() {
        let mut k = Kernel::new(crate::kernel::MachineConfig {
            thp: true,
            ..Default::default()
        });
        let p = k.create_init("init").unwrap();
        let base = k.mmap_anon(p, 512, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 512).unwrap();
        let st = k.proc_status(p).unwrap();
        assert!(
            st.contains("AnonHugePages:\t2048 kB"),
            "one 2 MiB block promoted:\n{st}"
        );
        let mem = k.proc_meminfo();
        assert!(
            mem.contains("THP:\tpromoted 1 demoted 0 failed 0"),
            "machine-wide THP counters:\n{mem}"
        );
    }

    #[test]
    fn thp_off_reports_zero_huge_pages() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 512, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 512).unwrap();
        let st = k.proc_status(p).unwrap();
        assert!(st.contains("AnonHugePages:\t0 kB"));
        let mem = k.proc_meminfo();
        assert!(mem.contains("THP:\tpromoted 0 demoted 0 failed 0"));
    }

    #[test]
    fn pressure_memory_reports_stalls() {
        let (mut k, p) = boot();
        let idle = k.proc_pressure_memory();
        assert!(idle.starts_with("some avg10=0.00"));
        assert!(idle.contains("full avg10=0.00"));
        let base = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 4).unwrap();
        k.phys.note_stall(1_000_000_000);
        let stalled = k.proc_pressure_memory();
        assert!(stalled.contains("total=1000000000"));
        assert!(!stalled.contains("avg10=0.00"));
    }

    #[test]
    fn ps_lists_zombies() {
        let (mut k, init) = boot();
        let c = k.allocate_process(init, "dead").unwrap();
        k.exit(c, 1).unwrap();
        let ps = k.ps();
        assert!(ps.contains("dead"));
        assert!(ps
            .lines()
            .any(|l| l.contains(" Z ") || l.ends_with("Z dead") || l.contains("Z dead")));
    }
}
