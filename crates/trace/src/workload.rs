//! Workload generation: process shapes and memory-touch patterns.
//!
//! The experiments sweep over synthetic parents whose footprint and
//! behaviour are controlled. A [`ProcessShape`] says how big the parent
//! is — a shell-sized one ([`ProcessShape::shell`]) or one of a given
//! heap ([`ProcessShape::with_heap`]), the two every experiment uses; a
//! [`TouchPattern`] expands to the pages a phase writes, which drives
//! the COW-fault-storm experiment.

use fpr_rng::Rng;

/// The memory shape of a synthetic parent process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessShape {
    /// Anonymous heap pages to map and populate.
    pub heap_pages: u64,
    /// Number of distinct VMAs the heap is split across (mapping-count
    /// cost, independent of page count).
    pub vma_count: u64,
    /// Open descriptors beyond stdio.
    pub extra_fds: u32,
    /// Extra threads beyond the main thread.
    pub extra_threads: u32,
}

impl ProcessShape {
    /// A shell-sized process: a few MiB, few descriptors.
    pub fn shell() -> ProcessShape {
        ProcessShape {
            heap_pages: 512,
            vma_count: 8,
            extra_fds: 4,
            extra_threads: 0,
        }
    }

    /// A shape with exactly `heap_pages` pages and defaults otherwise.
    pub fn with_heap(heap_pages: u64) -> ProcessShape {
        ProcessShape {
            heap_pages,
            vma_count: 8,
            extra_fds: 0,
            extra_threads: 0,
        }
    }
}

/// Which pages a workload phase writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TouchPattern {
    /// The first `fraction` of pages, in order.
    Sequential {
        /// Fraction of pages touched (0.0–1.0).
        fraction: f64,
    },
    /// A uniformly random `fraction` of pages.
    Random {
        /// Fraction of pages touched (0.0–1.0).
        fraction: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A hot/cold pattern: the hot `hot_fraction` of pages absorbs
    /// `hot_share` of the touches.
    Zipfian {
        /// Total touches as a fraction of pages.
        fraction: f64,
        /// Fraction of pages that are hot.
        hot_fraction: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl TouchPattern {
    /// Expands the pattern over `pages` pages into the ordered list of
    /// page offsets to write.
    pub fn expand(&self, pages: u64) -> Vec<u64> {
        match *self {
            TouchPattern::Sequential { fraction } => {
                let n = scaled(pages, fraction);
                (0..n).collect()
            }
            TouchPattern::Random { fraction, seed } => {
                let n = scaled(pages, fraction) as usize;
                let mut rng = Rng::seed_from_u64(seed);
                let mut all: Vec<u64> = (0..pages).collect();
                rng.shuffle(&mut all);
                all.truncate(n);
                all
            }
            TouchPattern::Zipfian {
                fraction,
                hot_fraction,
                seed,
            } => {
                let n = scaled(pages, fraction);
                let hot = scaled(pages, hot_fraction).max(1);
                let mut rng = Rng::seed_from_u64(seed);
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.9) {
                            rng.gen_range(0, hot)
                        } else {
                            rng.gen_range(0, pages.max(1))
                        }
                    })
                    .collect()
            }
        }
    }
}

fn scaled(pages: u64, fraction: f64) -> u64 {
    ((pages as f64) * fraction.clamp(0.0, 1.0)).round() as u64
}

/// The standard footprint sweep for Figure 1, in pages
/// (1 MiB → 4 GiB at 4 KiB pages, powers of 4).
pub fn fig1_footprints() -> Vec<u64> {
    vec![256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct pages among the ones a pattern touched.
    fn distinct(mut touched: Vec<u64>) -> usize {
        touched.sort_unstable();
        touched.dedup();
        touched.len()
    }

    #[test]
    fn sequential_touch_is_prefix() {
        let t = TouchPattern::Sequential { fraction: 0.5 };
        assert_eq!(t.expand(10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_touch_is_distinct_and_in_range() {
        let t = TouchPattern::Random {
            fraction: 0.3,
            seed: 7,
        };
        let v = t.expand(100);
        assert_eq!(v.len(), 30);
        assert!(v.iter().all(|p| *p < 100));
        assert_eq!(distinct(v), 30, "random sample has no repeats");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = TouchPattern::Random {
            fraction: 0.5,
            seed: 1,
        }
        .expand(50);
        let b = TouchPattern::Random {
            fraction: 0.5,
            seed: 1,
        }
        .expand(50);
        let c = TouchPattern::Random {
            fraction: 0.5,
            seed: 2,
        }
        .expand(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipfian_concentrates_on_hot_set() {
        let t = TouchPattern::Zipfian {
            fraction: 1.0,
            hot_fraction: 0.1,
            seed: 3,
        };
        let v = t.expand(1000);
        let hot_hits = v.iter().filter(|p| **p < 100).count();
        assert!(
            hot_hits as f64 / v.len() as f64 > 0.8,
            "hot set under-hit: {hot_hits}"
        );
        assert!(distinct(v) < 500, "zipfian repeats pages");
    }

    #[test]
    fn fraction_clamped() {
        assert_eq!(
            TouchPattern::Sequential { fraction: 2.0 }.expand(4),
            vec![0, 1, 2, 3]
        );
        assert!(TouchPattern::Sequential { fraction: -1.0 }
            .expand(4)
            .is_empty());
    }

    #[test]
    fn fig1_sweep_is_increasing() {
        let f = fig1_footprints();
        assert!(f.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*f.first().unwrap(), 256); // 1 MiB
        assert_eq!(*f.last().unwrap(), 1_048_576); // 4 GiB
    }
}
