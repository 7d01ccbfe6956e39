//! E3b: fork doesn't scale — TLB shootdowns grow with running threads.
//!
//! Fork must write-protect the parent's mappings, which invalidates
//! cached translations on every CPU running the parent; each COW break
//! afterwards shoots down again. The more CPUs the parent occupies, the
//! more every fork and every fault costs — interrupt traffic that
//! serialises concurrent forks. The ablation series disables remote
//! shootdown accounting to isolate the effect.

use crate::kit::{machine_for, world};
use crate::os::Os;
use fpr_kernel::{MachineConfig, Pid};
use fpr_mem::{ForkMode, CYCLES_PER_US};
use fpr_trace::{FigureData, ProcessShape, Series};

/// One measurement at a given CPU occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScalePoint {
    /// CPUs running the parent's threads during the fork.
    pub cpus_running: u32,
    /// Fork cycles with shootdowns charged.
    pub fork_cycles: u64,
    /// One post-fork COW break with shootdowns charged.
    pub cow_break_cycles: u64,
    /// Fork cycles with remote shootdowns ablated.
    pub fork_cycles_no_shootdown: u64,
}

/// A `footprint`-page parent with `threads` threads, each on a CPU of its
/// own. With `thp` the heap is a single promotable VMA on a THP machine.
fn setup(threads: u32, footprint: u64, thp: bool) -> (Os, Pid) {
    let machine = MachineConfig {
        // Enough CPUs that init plus every parent thread gets a slot,
        // so `threads` alone sets the shootdown fan-out.
        cpus: 128,
        thp,
        ..machine_for(footprint)
    };
    let shape = ProcessShape {
        vma_count: if thp { 1 } else { 8 },
        extra_threads: threads - 1,
        ..ProcessShape::with_heap(footprint)
    };
    let (mut os, parent) = world(machine, shape);
    // Schedule: place the parent's threads on CPUs.
    os.kernel.sched.tick();
    assert_eq!(os.kernel.cpus_running(parent), threads);
    (os, parent)
}

/// Measures fork and COW-break cost with `threads` of the parent on CPU.
pub(crate) fn measure(threads: u32, footprint: u64) -> ScalePoint {
    let (mut os, parent) = setup(threads, footprint, false);
    let heap = os.first_mmap_base(parent).expect("heap");
    let (_, fork_cycles) = os.measure(|os| os.fork_stats(parent, ForkMode::Cow).expect("fork"));
    // Parent touches one page: a COW break with full shootdown fan-out.
    let (_, cow_break_cycles) =
        os.measure(|os| os.kernel.write_mem(parent, heap, 1).expect("write"));

    let (mut os2, parent2) = setup(threads, footprint, false);
    os2.kernel.tlb.shootdowns_enabled = false;
    let (_, fork_no) = os2.measure(|os| os.fork_stats(parent2, ForkMode::Cow).expect("fork"));
    ScalePoint {
        cpus_running: threads,
        fork_cycles,
        cow_break_cycles,
        fork_cycles_no_shootdown: fork_no,
    }
}

/// Fork cost with transparent huge pages and `threads` of the parent on
/// CPU. The parent's heap is a single promotable VMA, so the COW fork
/// write-protects and shares whole 2 MiB blocks: the shootdown becomes a
/// short ranged flush of huge entries instead of a page-count-sized one,
/// and the page-table pass touches block entries, not PTEs.
pub(crate) fn measure_thp(threads: u32, footprint: u64) -> u64 {
    let (mut os, parent) = setup(threads, footprint, true);
    let (_, cycles) = os.measure(|os| os.fork_stats(parent, ForkMode::Cow).expect("fork"));
    cycles
}

/// Runs the sweep.
pub fn run(thread_counts: &[u32], footprint: u64) -> FigureData {
    let mut fig = FigureData::new(
        "fig_fork_scaling",
        "fork and COW-break cost vs CPUs running the parent",
        "cpus running",
        "us",
    );
    let mut fork_s = Series::new("fork");
    let mut thp_s = Series::new("fork_thp");
    let mut cow_s = Series::new("cow_break");
    let mut ablate_s = Series::new("fork_no_shootdown");
    for &t in thread_counts {
        let p = measure(t, footprint);
        fork_s.push(t as f64, p.fork_cycles as f64 / CYCLES_PER_US as f64);
        thp_s.push(
            t as f64,
            measure_thp(t, footprint) as f64 / CYCLES_PER_US as f64,
        );
        cow_s.push(t as f64, p.cow_break_cycles as f64 / CYCLES_PER_US as f64);
        ablate_s.push(
            t as f64,
            p.fork_cycles_no_shootdown as f64 / CYCLES_PER_US as f64,
        );
    }
    fig.series = vec![fork_s, thp_s, cow_s, ablate_s];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_rises_with_cpu_occupancy() {
        let one = measure(1, 1024);
        let many = measure(16, 1024);
        assert!(many.fork_cycles > one.fork_cycles);
        assert!(many.cow_break_cycles > one.cow_break_cycles);
        // The delta is exactly the remote-ack cost (15 extra CPUs).
        let cost = fpr_mem::CostModel::default();
        assert_eq!(
            many.cow_break_cycles - one.cow_break_cycles,
            15 * cost.tlb_shootdown_per_cpu
        );
    }

    #[test]
    fn ablation_removes_the_growth() {
        let one = measure(1, 1024);
        let many = measure(16, 1024);
        assert_eq!(
            one.fork_cycles_no_shootdown, many.fork_cycles_no_shootdown,
            "without shootdowns fork cost is occupancy-independent"
        );
        assert!(many.fork_cycles > many.fork_cycles_no_shootdown);
    }

    #[test]
    fn figure_has_four_series() {
        let fig = run(&[1, 4], 512);
        assert_eq!(fig.series.len(), 4);
        assert!(fig.series("fork").is_some());
        assert!(fig.series("fork_thp").is_some());
        assert!(fig.series("fork_no_shootdown").is_some());
        assert!(fig.series("cow_break").is_some());
    }

    #[test]
    fn thp_fork_undercuts_small_page_fork() {
        // One promotable 2 MiB-per-block heap: the COW fork shares and
        // write-protects whole blocks, so its cost sits well under the
        // per-PTE small-page fork at the same footprint and occupancy.
        let small = measure(16, 4_096).fork_cycles;
        let huge = measure_thp(16, 4_096);
        assert!(
            huge * 2 < small,
            "THP fork {huge} should undercut small-page fork {small}"
        );
    }
}
