//! The API capability matrix (experiment E7).
//!
//! For each class of process state, records how each creation API can
//! control it in the child: implicitly (copied whether you want it or
//! not), explicitly (expressible on request), or not at all. The matrix
//! quantifies the paper's qualitative comparison in §5: fork covers
//! everything *implicitly* (and pays for it), posix_spawn has a closed
//! vocabulary with gaps, and the cross-process API covers everything
//! explicitly.


/// The five creation APIs under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Api {
    /// `fork()` (+`exec` for a new image).
    Fork,
    /// `vfork()` (+`exec`).
    Vfork,
    /// `clone()` with flags.
    Clone,
    /// `posix_spawn()`.
    PosixSpawn,
    /// The cross-process builder.
    CrossProcess,
}

/// All APIs in presentation order.
pub(crate) const ALL_APIS: [Api; 5] = [
    Api::Fork,
    Api::Vfork,
    Api::Clone,
    Api::PosixSpawn,
    Api::CrossProcess,
];

impl Api {
    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Api::Fork => "fork",
            Api::Vfork => "vfork",
            Api::Clone => "clone",
            Api::PosixSpawn => "posix_spawn",
            Api::CrossProcess => "xproc",
        }
    }

    /// Asymptotic creation cost in the size of the parent.
    pub(crate) fn cost_class(self) -> CostClass {
        match self {
            Api::Fork => CostClass::OParent,
            Api::Clone => CostClass::OParent, // default flags = fork
            Api::Vfork | Api::PosixSpawn | Api::CrossProcess => CostClass::OImage,
        }
    }
}

/// Asymptotic creation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CostClass {
    /// Grows with the parent's memory (page-table/VMA duplication).
    OParent,
    /// Depends only on the new image and explicit grants.
    OImage,
}

/// Classes of child state a creation API may need to control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Capability {
    /// Child runs a different program image.
    NewImage,
    /// Child runs the same code/data as the parent (checkpoint-style).
    MemorySnapshot,
    /// Select which descriptors the child gets.
    FdSelection,
    /// Redirect stdio / plumb pipes.
    StdioRedirect,
    /// Set the child's signal mask.
    SigMask,
    /// Reset signal dispositions.
    SigDefaults,
    /// Run with reduced credentials (uid/caps).
    ReducedPrivilege,
    /// Per-child resource limits.
    RlimitControl,
    /// Pre-populate child memory from the parent.
    MemorySetup,
    /// Fresh ASLR layout for the child.
    FreshAslr,
    /// Child safely created from a multithreaded parent.
    ThreadSafe,
    /// Composes with user-space buffered I/O (no duplicated output).
    StdioCompose,
    /// Creation cost independent of parent footprint.
    FlatCost,
    /// Error reported cleanly in the parent (no in-child failure limbo).
    CleanErrors,
}

/// All capability rows in presentation order.
pub(crate) const ALL_CAPABILITIES: [Capability; 14] = [
    Capability::NewImage,
    Capability::MemorySnapshot,
    Capability::FdSelection,
    Capability::StdioRedirect,
    Capability::SigMask,
    Capability::SigDefaults,
    Capability::ReducedPrivilege,
    Capability::RlimitControl,
    Capability::MemorySetup,
    Capability::FreshAslr,
    Capability::ThreadSafe,
    Capability::StdioCompose,
    Capability::FlatCost,
    Capability::CleanErrors,
];

impl Capability {
    /// Row label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Capability::NewImage => "new image",
            Capability::MemorySnapshot => "memory snapshot",
            Capability::FdSelection => "fd selection",
            Capability::StdioRedirect => "stdio redirect",
            Capability::SigMask => "signal mask",
            Capability::SigDefaults => "signal defaults",
            Capability::ReducedPrivilege => "reduced privilege",
            Capability::RlimitControl => "rlimit control",
            Capability::MemorySetup => "memory setup",
            Capability::FreshAslr => "fresh ASLR",
            Capability::ThreadSafe => "thread safe",
            Capability::StdioCompose => "stdio composes",
            Capability::FlatCost => "flat cost",
            Capability::CleanErrors => "clean errors",
        }
    }
}

/// How an API provides a capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Support {
    /// Happens by default (whether wanted or not); arbitrary code can run
    /// between fork and exec, so anything is *possible* — at the price of
    /// copying first.
    Implicit,
    /// Expressible through the API's explicit vocabulary.
    Explicit,
    /// Not expressible.
    No,
}

/// The matrix entry for (`api`, `cap`).
pub(crate) fn supports(api: Api, cap: Capability) -> Support {
    use Api::*;
    use Capability::*;
    use Support::*;
    match (api, cap) {
        // fork: everything implicit (run code before exec), but none of
        // the safety/perf rows hold.
        (Fork, ThreadSafe) | (Fork, StdioCompose) | (Fork, FlatCost) => No,
        (Fork, FreshAslr) => No,   // children share the parent's layout
        (Fork, CleanErrors) => No, // exec failures surface in the child
        (Fork, _) => Implicit,

        // vfork: like fork minus the snapshot (memory is shared, not
        // copied) and even less safe; flat cost is its one virtue.
        (Vfork, MemorySnapshot) => No,
        (Vfork, ThreadSafe) | (Vfork, StdioCompose) => No,
        (Vfork, FreshAslr) | (Vfork, CleanErrors) => No,
        (Vfork, FlatCost) => Explicit,
        (Vfork, _) => Implicit,

        // clone: fork's semantics with flags; flags make sharing explicit
        // but none of the hazards go away.
        (Clone, ThreadSafe) | (Clone, StdioCompose) | (Clone, FlatCost) => No,
        (Clone, FreshAslr) | (Clone, CleanErrors) => No,
        (Clone, FdSelection) | (Clone, MemorySnapshot) => Explicit,
        (Clone, _) => Implicit,

        // posix_spawn: the closed world. File actions and sig attrs are
        // explicit; snapshotting, memory setup, privilege reduction and
        // rlimits are outside the vocabulary (POSIX standard form).
        (PosixSpawn, NewImage) | (PosixSpawn, StdioRedirect) | (PosixSpawn, FdSelection) => {
            Explicit
        }
        (PosixSpawn, SigMask) | (PosixSpawn, SigDefaults) => Explicit,
        (PosixSpawn, ThreadSafe) | (PosixSpawn, StdioCompose) => Explicit,
        (PosixSpawn, FlatCost) | (PosixSpawn, FreshAslr) | (PosixSpawn, CleanErrors) => Explicit,
        (PosixSpawn, MemorySnapshot)
        | (PosixSpawn, MemorySetup)
        | (PosixSpawn, ReducedPrivilege)
        | (PosixSpawn, RlimitControl) => No,

        // cross-process: everything explicit except the one thing it
        // refuses by design — an implicit whole-parent snapshot (use
        // explicit memory grants instead).
        (CrossProcess, MemorySnapshot) => No,
        (CrossProcess, _) => Explicit,
    }
}

/// Number of capabilities an API covers (implicit or explicit).
pub(crate) fn coverage(api: Api) -> usize {
    ALL_CAPABILITIES
        .iter()
        .filter(|c| supports(api, **c) != Support::No)
        .count()
}

/// Renders the matrix as aligned text rows (used by `tab_api_matrix`).
pub fn render_matrix() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "capability"));
    for api in ALL_APIS {
        out.push_str(&format!("{:>13}", api.name()));
    }
    out.push('\n');
    for cap in ALL_CAPABILITIES {
        out.push_str(&format!("{:<18}", cap.name()));
        for api in ALL_APIS {
            let s = match supports(api, cap) {
                Support::Implicit => "implicit",
                Support::Explicit => "explicit",
                Support::No => "-",
            };
            out.push_str(&format!("{:>13}", s));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<18}", "coverage"));
    for api in ALL_APIS {
        out.push_str(&format!("{:>13}", format!("{}/14", coverage(api))));
    }
    out.push('\n');
    out.push_str(&format!("{:<18}", "creation cost"));
    for api in ALL_APIS {
        let c = match api.cost_class() {
            CostClass::OParent => "O(parent)",
            CostClass::OImage => "O(image)",
        };
        out.push_str(&format!("{:>13}", c));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_is_implicit_everything_with_known_gaps() {
        assert_eq!(
            supports(Api::Fork, Capability::MemorySnapshot),
            Support::Implicit
        );
        assert_eq!(supports(Api::Fork, Capability::ThreadSafe), Support::No);
        assert_eq!(supports(Api::Fork, Capability::FlatCost), Support::No);
        assert_eq!(supports(Api::Fork, Capability::FreshAslr), Support::No);
    }

    #[test]
    fn posix_spawn_closed_world_gaps() {
        assert_eq!(
            supports(Api::PosixSpawn, Capability::MemorySetup),
            Support::No
        );
        assert_eq!(
            supports(Api::PosixSpawn, Capability::ReducedPrivilege),
            Support::No
        );
        assert_eq!(
            supports(Api::PosixSpawn, Capability::StdioRedirect),
            Support::Explicit
        );
    }

    #[test]
    fn cross_process_has_highest_coverage() {
        let x = coverage(Api::CrossProcess);
        for api in [Api::Fork, Api::Vfork, Api::Clone, Api::PosixSpawn] {
            assert!(x >= coverage(api), "{:?} out-covers xproc", api);
        }
        assert_eq!(x, 13, "everything except implicit snapshot");
    }

    #[test]
    fn cost_classes_match_the_figure() {
        assert_eq!(Api::Fork.cost_class(), CostClass::OParent);
        assert_eq!(Api::PosixSpawn.cost_class(), CostClass::OImage);
        assert_eq!(Api::CrossProcess.cost_class(), CostClass::OImage);
        assert_eq!(Api::Vfork.cost_class(), CostClass::OImage);
    }

    #[test]
    fn render_has_all_rows() {
        let m = render_matrix();
        for cap in ALL_CAPABILITIES {
            assert!(m.contains(cap.name()), "missing row {}", cap.name());
        }
        assert!(m.contains("coverage"));
        assert!(m.contains("O(parent)"));
    }
}
