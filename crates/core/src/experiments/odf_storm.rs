//! E10: the on-demand fork fault storm.
//!
//! On-demand page-table copying makes fork itself O(VMAs + subtrees),
//! but the PTE-copy work does not vanish — it moves into the child's
//! fault storm. The first write into each shared 512-entry subtree pays
//! an extra structure fault: privatise the node (512 PTE copies), bump
//! the frame refcounts, shoot down the TLB, and *then* take the ordinary
//! COW break. This experiment sweeps the fraction of pages the child
//! writes after fork and compares COW fork against on-demand fork on
//! three axes: fork-time cost, worst-case first-touch latency, and total
//! (fork + storm) cost — which must be conserved, not reduced.

use crate::kit::{machine_for, world, CreationPath};
use fpr_mem::{AsStats, ForkMode, CYCLES_PER_US};
use fpr_trace::{FigureData, ProcessShape, Series, TouchPattern};

/// One fork-then-touch: what a fork under one mode charged, and what the
/// child's writes into the inherited heap charged after it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ForkTouch {
    /// Cycles the fork itself charged.
    pub fork_cycles: u64,
    /// Cycles the post-fork writes charged.
    pub storm_cycles: u64,
    /// Cycles of the single most expensive post-fork write (the
    /// first-touch latency the paper's tail-latency complaint is about).
    pub worst_touch_cycles: u64,
    /// The child's address-space counters after the writes: COW breaks,
    /// and the subtrees the storm privatised (none under COW).
    pub child: AsStats,
}

/// Measures one cell: fork `footprint` pages under `mode`, then write
/// `fraction` of them in the child. E3a's COW storm is this with
/// `ForkMode::Cow` and `ForkMode::Eager`.
pub(crate) fn measure(footprint: u64, fraction: f64, mode: ForkMode, seed: u64) -> ForkTouch {
    let (mut os, parent) = world(machine_for(footprint), ProcessShape::with_heap(footprint));
    let heap = os.first_mmap_base(parent).expect("heap mapped");
    let pages = TouchPattern::Random { fraction, seed }.expand(footprint);
    let (child, fork_cycles) = os.measure(|os| {
        os.create(parent, CreationPath::Fork(mode))
            .expect("fork fits")
    });
    let (worst_touch_cycles, storm_cycles) =
        os.measure(|os| os.touch(child, heap, &pages).expect("write"));
    ForkTouch {
        fork_cycles,
        storm_cycles,
        worst_touch_cycles,
        child: os.kernel.memory(child).unwrap().aspace.stats.clone(),
    }
}

/// Runs the sweep and returns the figure: fork-time and total cost per
/// mode as the child touches more of the inherited heap.
pub fn run(footprint: u64, fractions: &[f64]) -> FigureData {
    let mut fig = FigureData::new(
        "fig_odf_storm",
        "fork + child-write cost, COW vs on-demand page tables",
        "touch fraction",
        "us",
    );
    let mut cow_fork = Series::new("cow_fork");
    let mut odf_fork = Series::new("ondemand_fork");
    let mut cow_total = Series::new("cow_total");
    let mut odf_total = Series::new("ondemand_total");
    for (i, &f) in fractions.iter().enumerate() {
        let seed = 7000 + i as u64;
        let cow = measure(footprint, f, ForkMode::Cow, seed);
        let odf = measure(footprint, f, ForkMode::OnDemand, seed);
        let us = |c: u64| c as f64 / CYCLES_PER_US as f64;
        cow_fork.push(f, us(cow.fork_cycles));
        odf_fork.push(f, us(odf.fork_cycles));
        cow_total.push(f, us(cow.fork_cycles + cow.storm_cycles));
        odf_total.push(f, us(odf.fork_cycles + odf.storm_cycles));
    }
    fig.series = vec![cow_fork, odf_fork, cow_total, odf_total];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    const FP: u64 = 16_384;

    #[test]
    fn fork_time_cost_moves_into_the_storm() {
        let cow = measure(FP, 1.0, ForkMode::Cow, 1);
        let odf = measure(FP, 1.0, ForkMode::OnDemand, 1);
        // Fork itself: on-demand is dramatically cheaper.
        assert!(
            odf.fork_cycles * 20 < cow.fork_cycles,
            "on-demand fork {} must be >20x cheaper than COW fork {}",
            odf.fork_cycles,
            cow.fork_cycles
        );
        // The storm privatised every heap subtree (the ASLR'd heap base
        // is rarely node-aligned, so the span may straddle one extra).
        assert!(
            odf.child.pt_unshares == FP / 512 || odf.child.pt_unshares == FP / 512 + 1,
            "expected ~{} unshares, got {}",
            FP / 512,
            odf.child.pt_unshares
        );
        assert_eq!(cow.child.pt_unshares, 0);
        // Total work is conserved: deferring the PTE copies does not
        // change what a fully-written child ends up paying (within 5%).
        let cow_total = cow.fork_cycles + cow.storm_cycles;
        let odf_total = odf.fork_cycles + odf.storm_cycles;
        let ratio = odf_total as f64 / cow_total as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "total work must be conserved: {odf_total} vs {cow_total} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn first_touch_latency_is_higher_on_demand() {
        let cow = measure(FP, 0.25, ForkMode::Cow, 2);
        let odf = measure(FP, 0.25, ForkMode::OnDemand, 2);
        // The worst single write under on-demand pays the deferred node
        // copy (512 PTEs + node alloc + extra fault + shootdown) on top
        // of the ordinary COW break.
        assert!(
            odf.worst_touch_cycles as f64 > cow.worst_touch_cycles as f64 * 3.0,
            "on-demand first touch {} must dwarf the COW break {}",
            odf.worst_touch_cycles,
            cow.worst_touch_cycles
        );
    }

    #[test]
    fn untouched_child_never_pays_the_deferred_copy() {
        let odf = measure(FP, 0.0, ForkMode::OnDemand, 3);
        assert_eq!(odf.storm_cycles, 0);
        assert_eq!(odf.child.pt_unshares, 0);
    }

    #[test]
    fn totals_converge_as_touch_fraction_grows() {
        let fig = run(FP, &[0.0, 0.5, 1.0]);
        let cow = fig.series("cow_total").unwrap();
        let odf = fig.series("ondemand_total").unwrap();
        // At zero touches on-demand wins outright; fully touched the two
        // totals meet.
        assert!(odf.first_y().unwrap() < cow.first_y().unwrap() / 10.0);
        let gap = (odf.last_y().unwrap() - cow.last_y().unwrap()).abs() / cow.last_y().unwrap();
        assert!(gap < 0.05, "fully-touched totals must meet: gap {gap:.3}");
    }
}
