//! E3a: the COW fault storm.
//!
//! COW makes fork itself cheaper, but every page the child (or parent)
//! subsequently writes costs a fault, a page copy and a TLB shootdown.
//! This experiment sweeps the fraction of pages the child touches after
//! fork and compares the *total* cost (fork + post-fork writes) of COW
//! fork against an eager-copying fork: past a crossover fraction, the
//! deferred machinery is the more expensive way to copy.

use super::odf_storm;
use fpr_mem::{ForkMode, CYCLES_PER_US};
use fpr_trace::{FigureData, Series};

/// Result of one COW-storm cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StormCell {
    /// Fraction of parent pages the child wrote after fork.
    pub touch_fraction: f64,
    /// Fork cycles + post-fork write cycles under COW.
    pub cow_total: u64,
    /// Fork cycles + post-fork write cycles under eager copying.
    pub eager_total: u64,
    /// COW faults actually taken.
    pub cow_faults: u64,
}

/// Measures one cell at `footprint` pages and `fraction` touched. A
/// total is the fork's cycles plus the writes': nothing is charged
/// between the two.
pub(crate) fn measure(footprint: u64, fraction: f64, seed: u64) -> StormCell {
    let [cow, eager] = [ForkMode::Cow, ForkMode::Eager]
        .map(|mode| odf_storm::measure(footprint, fraction, mode, seed));
    StormCell {
        touch_fraction: fraction,
        cow_total: cow.fork_cycles + cow.storm_cycles,
        eager_total: eager.fork_cycles + eager.storm_cycles,
        cow_faults: cow.child.cow_copies + cow.child.cow_reuses,
    }
}

/// Runs the sweep and returns the figure.
pub fn run(footprint: u64, fractions: &[f64]) -> FigureData {
    let mut fig = FigureData::new(
        "fig_cow_storm",
        "total cost of fork + child writes, COW vs eager",
        "touch fraction",
        "total us",
    );
    let mut cow = Series::new("cow_fork_total");
    let mut eager = Series::new("eager_fork_total");
    for (i, &f) in fractions.iter().enumerate() {
        let cell = measure(footprint, f, 1000 + i as u64);
        cow.push(f, cell.cow_total as f64 / CYCLES_PER_US as f64);
        eager.push(f, cell.eager_total as f64 / CYCLES_PER_US as f64);
    }
    fig.series = vec![cow, eager];
    fig
}

/// Finds the crossover fraction where COW stops winning, if any.
pub fn crossover(fig: &FigureData) -> Option<f64> {
    let cow = fig.series("cow_fork_total")?;
    let eager = fig.series("eager_fork_total")?;
    for (c, e) in cow.points.iter().zip(&eager.points) {
        if c.y > e.y {
            return Some(c.x);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cow_wins_untouched_loses_fully_touched() {
        let none = measure(2048, 0.0, 1);
        assert!(
            none.cow_total < none.eager_total / 2,
            "untouched: COW {} vs eager {}",
            none.cow_total,
            none.eager_total
        );
        assert_eq!(none.cow_faults, 0);

        let all = measure(2048, 1.0, 2);
        assert!(
            all.cow_total > all.eager_total,
            "fully touched: COW {} must exceed eager {}",
            all.cow_total,
            all.eager_total
        );
        assert_eq!(all.cow_faults, 2048);
    }

    #[test]
    fn crossover_exists_and_is_interior() {
        let fig = run(1024, &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]);
        let x = crossover(&fig).expect("COW must stop winning somewhere");
        assert!(x > 0.0 && x <= 1.0, "crossover at {x}");
    }

    #[test]
    fn cow_total_monotone_in_fraction() {
        let a = measure(1024, 0.2, 3);
        let b = measure(1024, 0.8, 3);
        assert!(b.cow_total > a.cow_total);
        assert!(b.cow_faults > a.cow_faults);
    }
}
