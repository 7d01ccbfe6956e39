//! E2: where fork's time goes.
//!
//! Decomposes the measured fork cost into page-table-entry copies,
//! page-table node allocations, VMA clones, descriptor duplications, and
//! the TLB shootdown, and checks the components reconcile with the
//! measured total. The paper's prose claim: beyond modest sizes, the
//! page-table copy dominates even though no data is copied.
//!
//! Component counts come from the [`fpr_trace::metrics`] registry — a
//! snapshot is taken before and after the fork and the decomposition is
//! priced from the counter deltas, exactly the attribution the runtime
//! tracing subsystem records.

use crate::kit::{machine_for, world};
use fpr_mem::ForkMode;
use fpr_trace::{metrics, ProcessShape, TableData};

/// One decomposed fork measurement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Breakdown {
    /// Parent footprint in pages.
    pub pages: u64,
    /// Cycles spent copying leaf PTEs.
    pub pte_cycles: u64,
    /// Cycles spent allocating the child's page-table nodes.
    pub node_cycles: u64,
    /// Cycles spent cloning VMA records.
    pub vma_cycles: u64,
    /// Cycles spent duplicating open descriptors (scales with *open*
    /// descriptors, not table capacity — the table is sparse).
    pub fd_cycles: u64,
    /// Cycles in the TLB shootdown.
    pub shootdown_cycles: u64,
    /// Everything else (syscall entry, FD table, bookkeeping).
    pub other_cycles: u64,
    /// Measured total.
    pub total_cycles: u64,
}

/// Measures and decomposes one fork of a parent with `pages` populated.
pub(crate) fn measure(pages: u64) -> Breakdown {
    measure_with_fds(pages, 0, false)
}

/// Like [`measure`], with `extra_fds` files opened first. When `sparse`,
/// the last one is also dup2'd to descriptor 1000, stretching the
/// nominal table capacity without adding open descriptors.
pub(crate) fn measure_with_fds(pages: u64, extra_fds: u32, sparse: bool) -> Breakdown {
    let (mut os, parent) = world(machine_for(pages), ProcessShape::with_heap(pages));
    for i in 0..extra_fds {
        let fd = os
            .kernel
            .open(parent, &format!("/tmp{i}"), fpr_kernel::OpenFlags::RDWR, true)
            .expect("open");
        if sparse && i == extra_fds - 1 {
            os.kernel
                .dup2(parent, fd, fpr_kernel::Fd(1000))
                .expect("dup2");
            os.kernel.close(parent, fd).expect("close");
        }
    }
    let cost = os.kernel.phys.cost().clone();
    let cpus = os.kernel.cpus_running(parent);
    let before = metrics::snapshot();
    let ((_, _stats), total) =
        os.measure(|os| os.fork_stats(parent, ForkMode::Cow).expect("fork fits"));
    let delta = metrics::snapshot().delta(&before);

    // Price each component from the metric deltas the fork recorded.
    let pte_cycles = delta.counter("mem.fork.pte_copy") * cost.pte_copy;
    let node_cycles = delta.counter("mem.fork.pt_node") * cost.pt_node_alloc;
    let vma_cycles = delta.counter("mem.fork.vma_clone") * cost.vma_clone;
    let fd_cycles = delta.counter("kernel.fd_clone") * cost.fd_clone;
    let shootdown_cycles = delta.counter("mem.tlb.shootdown")
        * (cost.tlb_shootdown_base + cost.tlb_shootdown_per_cpu * (cpus.max(1) as u64 - 1));
    let accounted = pte_cycles + node_cycles + vma_cycles + fd_cycles + shootdown_cycles;
    Breakdown {
        pages,
        pte_cycles,
        node_cycles,
        vma_cycles,
        fd_cycles,
        shootdown_cycles,
        other_cycles: total.saturating_sub(accounted),
        total_cycles: total,
    }
}

/// Runs the sweep and formats the table.
pub fn run(footprints: &[u64]) -> TableData {
    let mut t = TableData::new(
        "tab_fork_breakdown",
        "fork cost decomposition (cycles)",
        &[
            "pages",
            "pte_copy",
            "pt_nodes",
            "vma_clone",
            "fd_clone",
            "shootdown",
            "other",
            "total",
            "pte_%",
        ],
    );
    for &fp in footprints {
        let b = measure(fp);
        t.push_row(vec![
            b.pages.to_string(),
            b.pte_cycles.to_string(),
            b.node_cycles.to_string(),
            b.vma_cycles.to_string(),
            b.fd_cycles.to_string(),
            b.shootdown_cycles.to_string(),
            b.other_cycles.to_string(),
            b.total_cycles.to_string(),
            format!("{:.1}", 100.0 * b.pte_cycles as f64 / b.total_cycles as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_reconcile_with_total() {
        let b = measure(4096);
        let accounted = b.pte_cycles
            + b.node_cycles
            + b.vma_cycles
            + b.fd_cycles
            + b.shootdown_cycles
            + b.other_cycles;
        assert_eq!(accounted, b.total_cycles);
        // "other" must be small: the decomposition explains the cost.
        assert!(
            (b.other_cycles as f64) < 0.1 * b.total_cycles as f64,
            "unexplained cycles: {} of {}",
            b.other_cycles,
            b.total_cycles
        );
    }

    #[test]
    fn pte_copy_dominates_at_scale() {
        let small = measure(256);
        let big = measure(16_384);
        let share = |b: &Breakdown| b.pte_cycles as f64 / b.total_cycles as f64;
        assert!(
            share(&big) > share(&small),
            "PTE share must grow with footprint"
        );
        assert!(
            share(&big) > 0.4,
            "PTE copy should dominate at 64 MiB: {}",
            share(&big)
        );
    }

    #[test]
    fn fd_cost_scales_with_open_fds_not_capacity() {
        let none = measure_with_fds(256, 0, false);
        assert_eq!(none.fd_cycles, 0);
        let few = measure_with_fds(256, 4, false);
        assert!(few.fd_cycles > 0);
        // dup2 the last descriptor to 1000: nominal capacity stretches
        // ~250x, open count stays at 4 — fork must not notice.
        let sparse = measure_with_fds(256, 4, true);
        assert_eq!(
            sparse.fd_cycles, few.fd_cycles,
            "FD clone cost must track open descriptors, not the highest fd"
        );
        assert_eq!(
            sparse.total_cycles, few.total_cycles,
            "a sparse table must not make fork more expensive"
        );
    }

    #[test]
    fn table_renders_rows() {
        let t = run(&[256, 1024]);
        assert_eq!(t.rows.len(), 2);
        assert!(t.render().contains("pte_copy"));
    }
}
