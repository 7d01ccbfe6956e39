//! E2b: fork is O(mappings), not just O(pages).
//!
//! Two parents with the *same* resident footprint but different VMA
//! counts fork at different costs: every mapping record must be cloned
//! and its range walked. Modern address spaces are mapping-heavy
//! (shared libraries, guard pages, arenas — thousands of VMAs), so this
//! term matters even when page counts are modest.

use crate::kit::{machine_for, world};
use fpr_mem::{ForkMode, CYCLES_PER_US};
use fpr_trace::{FigureData, ProcessShape, Series};

/// Measures fork cost for a parent with `pages` resident spread over
/// `vmas` mappings.
pub(crate) fn measure(pages: u64, vmas: u64) -> u64 {
    let shape = ProcessShape {
        vma_count: vmas,
        ..ProcessShape::with_heap(pages)
    };
    let (mut os, parent) = world(machine_for(pages), shape);
    let (_, cycles) = os.measure(|os| os.fork_stats(parent, ForkMode::Cow).expect("fork"));
    cycles
}

/// Sweeps VMA counts at a fixed footprint.
pub fn run(pages: u64, vma_counts: &[u64]) -> FigureData {
    let mut fig = FigureData::new(
        "fig_vma_sweep",
        "fork cost vs mapping count at fixed footprint",
        "VMAs",
        "fork us",
    );
    let mut s = Series::new("fork");
    for &v in vma_counts {
        s.push(v as f64, measure(pages, v) as f64 / CYCLES_PER_US as f64);
    }
    fig.series = vec![s];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_vmas_cost_more_at_same_footprint() {
        let few = measure(2048, 4);
        let many = measure(2048, 512);
        assert!(
            many > few,
            "512 VMAs {many} must cost more than 4 VMAs {few}"
        );
        // The delta is dominated by the per-VMA clone cost.
        let cost = fpr_mem::CostModel::default();
        let delta = many - few;
        let expected_min = (512 - 4) * cost.vma_clone;
        assert!(
            delta >= expected_min,
            "delta {delta} < VMA-clone floor {expected_min}"
        );
    }

    #[test]
    fn sweep_is_monotone() {
        let fig = run(1024, &[1, 16, 256]);
        let pts = &fig.series[0].points;
        assert!(pts.windows(2).all(|w| w[1].y >= w[0].y));
    }
}
