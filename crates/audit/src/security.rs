//! Shared ASLR layouts: how many layout bits sibling processes have in
//! common (the zygote problem).

use fpr_exec::shared_bits;
use fpr_kernel::{KResult, Kernel, Pid};

/// Maximum comparable layout bits (4 bases × 34 bits, see
/// [`fpr_exec::shared_bits`]).
pub const MAX_LAYOUT_BITS: u32 = 4 * 34;

/// Summary of layout diversity across a set of sibling processes.
#[derive(Debug, Clone, PartialEq)]
pub struct ZygoteReport {
    /// Number of children analysed.
    pub children: usize,
    /// Mean pairwise shared layout bits.
    pub mean_shared_bits: f64,
    /// Number of pairs sharing the complete layout.
    pub identical_pairs: usize,
    /// Effective residual entropy: layout bits *not* shared on average.
    pub effective_entropy_bits: f64,
}

/// Measures pairwise layout sharing among `pids` (e.g. all children of a
/// zygote, or all independently spawned workers).
pub fn zygote_entropy(kernel: &Kernel, pids: &[Pid]) -> KResult<ZygoteReport> {
    let layouts: Vec<_> = pids
        .iter()
        .map(|p| kernel.process(*p).map(|pr| pr.layout))
        .collect::<KResult<Vec<_>>>()?;
    let mut total = 0u64;
    let mut pairs = 0usize;
    let mut identical = 0usize;
    for i in 0..layouts.len() {
        for j in i + 1..layouts.len() {
            let bits = shared_bits(&layouts[i], &layouts[j]);
            total += bits as u64;
            pairs += 1;
            if bits == MAX_LAYOUT_BITS {
                identical += 1;
            }
        }
    }
    let mean = if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    };
    Ok(ZygoteReport {
        children: pids.len(),
        mean_shared_bits: mean,
        identical_pairs: identical,
        effective_entropy_bits: MAX_LAYOUT_BITS as f64 - mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_api::{fork, posix_spawn, SpawnAttrs};
    use fpr_exec::{Image, ImageRegistry};

    fn world() -> (Kernel, Pid, ImageRegistry) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        (k, init, reg)
    }

    #[test]
    fn zygote_children_share_everything() {
        let (mut k, p, reg) = world();
        fpr_exec::execve(&mut k, p, &reg, "/bin/tool", 1).unwrap();
        let children: Vec<Pid> = (0..5).map(|_| fork(&mut k, p).unwrap()).collect();
        let z = zygote_entropy(&k, &children).unwrap();
        assert_eq!(z.identical_pairs, 10, "all pairs identical");
        assert_eq!(z.mean_shared_bits, MAX_LAYOUT_BITS as f64);
        assert_eq!(z.effective_entropy_bits, 0.0);
    }

    #[test]
    fn spawned_siblings_have_entropy() {
        let (mut k, p, reg) = world();
        let children: Vec<Pid> = (0..5)
            .map(|i| {
                posix_spawn(
                    &mut k,
                    p,
                    &reg,
                    "/bin/tool",
                    &[],
                    &SpawnAttrs::default(),
                    1000 + i,
                    None,
                )
                .unwrap()
            })
            .collect();
        let z = zygote_entropy(&k, &children).unwrap();
        assert_eq!(z.identical_pairs, 0);
        assert!(
            z.effective_entropy_bits > 50.0,
            "entropy = {}",
            z.effective_entropy_bits
        );
    }

    #[test]
    fn zygote_entropy_degenerate_cases() {
        let (k, p, _) = world();
        let z = zygote_entropy(&k, &[]).unwrap();
        assert_eq!(z.children, 0);
        assert_eq!(z.mean_shared_bits, 0.0);
        let z1 = zygote_entropy(&k, &[p]).unwrap();
        assert_eq!(z1.identical_pairs, 0);
    }
}
