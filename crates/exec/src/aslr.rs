//! Address-space layout randomisation.
//!
//! Each exec draws fresh random bases for text, heap, mmap arena and
//! stack. The security experiment (E8) contrasts this with zygote-style
//! forking, where every child *shares* the parent's layout: one
//! info-leak in any child reveals the layout of all of them — the attack
//! the paper cites against fork-based Android app startup.

use fpr_kernel::LayoutInfo;
use fpr_rng::Rng;

/// Most random bits any base may take (the Linux mmap default). Each
/// arena below is narrower, so in practice its span bounds the draw.
const ENTROPY_BITS: u32 = 28;

/// Fixed bases the randomised offsets are added to (VPNs).
mod bases {
    /// Text around 0x0000_5555_5000_0000-ish, scaled into VPN space.
    pub(crate) const TEXT: u64 = 0x0000_1000;
    /// Heap above text.
    pub(crate) const HEAP: u64 = 0x0010_0000;
    /// The mmap arena.
    pub(crate) const MMAP: u64 = 0x0400_0000;
    /// Stack near the top of the user half (grows down).
    pub(crate) const STACK: u64 = 0x7000_0000;
}

/// Draws a layout for one exec, using `seed` for determinism.
///
/// The same seed yields the same layout — which is exactly how the zygote
/// hazard is modelled: forked children inherit the parent's draw, while
/// spawned/exec'd processes get a fresh seed.
pub fn randomize(seed: u64) -> LayoutInfo {
    let mut rng = Rng::seed_from_u64(seed);
    let mask = (1u64 << ENTROPY_BITS) - 1;
    // Offsets are page-granular and kept within disjoint arenas so the
    // regions cannot collide regardless of the draw.
    let draw = |rng: &mut Rng, span: u64| rng.gen_u64() & mask & (span - 1);
    LayoutInfo {
        text_base: bases::TEXT + draw(&mut rng, 0x4_0000),
        heap_base: bases::HEAP + draw(&mut rng, 0x40_0000),
        mmap_base: bases::MMAP + draw(&mut rng, 0x100_0000),
        stack_base: bases::STACK + draw(&mut rng, 0x800_0000),
        aslr_seed: seed,
    }
}

/// Counts the layout base bits shared between two layouts — the measure
/// E8's `zygote_entropy` reports. Identical layouts share everything.
pub fn shared_bits(a: &LayoutInfo, b: &LayoutInfo) -> u32 {
    let fields = [
        (a.text_base, b.text_base),
        (a.heap_base, b.heap_base),
        (a.mmap_base, b.mmap_base),
        (a.stack_base, b.stack_base),
    ];
    fields
        .iter()
        .map(|(x, y)| (!(x ^ y)).trailing_ones().min(34))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_are_pinned() {
        let bases = |seed| {
            let l = randomize(seed);
            [l.text_base, l.heap_base, l.mmap_base, l.stack_base]
        };
        assert_eq!(bases(0), [0x1ddaf, 0x4965f4, 0x409454f, 0x724c81ec]);
        assert_eq!(bases(1), [0x26cc1, 0x1eec67, 0x432555e, 0x7642c90b]);
        assert_eq!(bases(42), [0x37e95, 0x36f103, 0x40f9f52, 0x764ae394]);
        assert_eq!(bases(u64::MAX), [0x13c20, 0x4682c9, 0x47281e9, 0x73a982d2]);
    }

    #[test]
    fn same_seed_same_layout() {
        assert_eq!(randomize(42), randomize(42));
    }

    #[test]
    fn different_seeds_differ() {
        let a = randomize(1);
        let b = randomize(2);
        assert_ne!(a, b);
        assert_ne!(a.stack_base, b.stack_base);
    }

    #[test]
    fn regions_stay_ordered_and_disjoint() {
        for seed in 0..200 {
            let l = randomize(seed);
            assert!(l.text_base < l.heap_base, "seed {seed}");
            assert!(l.heap_base < l.mmap_base, "seed {seed}");
            assert!(l.mmap_base < l.stack_base, "seed {seed}");
        }
    }

    #[test]
    fn shared_bits_full_for_identical() {
        let l = randomize(9);
        assert_eq!(shared_bits(&l, &l), 4 * 34);
        let other = randomize(10);
        assert!(shared_bits(&l, &other) < 4 * 34);
    }
}
