//! Documentation link gate: every relative markdown link in the
//! repository's docs must point at a file that exists, and the
//! load-bearing cross-references (README ↔ ARCHITECTURE ↔
//! OBSERVABILITY ↔ BENCHMARKS ↔ EXPERIMENTS) must stay present —
//! renaming or dropping a doc fails `make verify`, not a reader.

use std::path::{Path, PathBuf};

/// The documents the gate covers (relative to the repo root).
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/OBSERVABILITY.md",
    "docs/BENCHMARKS.md",
];

/// Cross-references that must exist, as (source doc, link target
/// exactly as written in the source). These are the edges the docs
/// lean on when pointing readers around; the reverse direction of
/// each pair keeps the set a connected web, not a tree.
const REQUIRED_EDGES: &[(&str, &str)] = &[
    ("README.md", "docs/ARCHITECTURE.md"),
    ("README.md", "docs/OBSERVABILITY.md"),
    ("README.md", "docs/BENCHMARKS.md"),
    ("README.md", "EXPERIMENTS.md"),
    ("README.md", "DESIGN.md"),
    ("EXPERIMENTS.md", "docs/OBSERVABILITY.md"),
    ("EXPERIMENTS.md", "docs/BENCHMARKS.md"),
    ("DESIGN.md", "docs/ARCHITECTURE.md"),
    ("docs/ARCHITECTURE.md", "OBSERVABILITY.md"),
    ("docs/ARCHITECTURE.md", "BENCHMARKS.md"),
    ("docs/OBSERVABILITY.md", "BENCHMARKS.md"),
    ("docs/BENCHMARKS.md", "../EXPERIMENTS.md"),
    ("docs/BENCHMARKS.md", "ARCHITECTURE.md"),
    ("docs/BENCHMARKS.md", "OBSERVABILITY.md"),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts inline-link targets (`[text](target)`) from markdown,
/// skipping fenced code blocks (``` ... ```), where `](` can occur in
/// code without being a link.
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                let start = i + 2;
                if let Some(len) = line[start..].find(')') {
                    targets.push(line[start..start + len].to_string());
                    i = start + len;
                } else {
                    break;
                }
            }
            i += 1;
        }
    }
    targets
}

/// True for targets the existence check should skip: external URLs
/// and in-page anchors.
fn is_external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn every_relative_link_resolves() {
    let root = repo_root();
    let mut broken = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{doc}: gate doc missing or unreadable: {e}"));
        let dir = path.parent().unwrap_or(Path::new("."));
        for target in link_targets(&text) {
            if is_external(&target) {
                continue;
            }
            let file = target.split('#').next().unwrap_or(&target);
            if file.is_empty() {
                continue;
            }
            if !dir.join(file).exists() {
                broken.push(format!("{doc} -> {target}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn required_cross_references_are_present() {
    let root = repo_root();
    let mut missing = Vec::new();
    for (doc, target) in REQUIRED_EDGES {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("{doc}: gate doc missing or unreadable: {e}"));
        let found = link_targets(&text)
            .iter()
            .any(|t| t.split('#').next() == Some(target));
        if !found {
            missing.push(format!("{doc} must link to {target}"));
        }
    }
    assert!(
        missing.is_empty(),
        "required doc cross-references missing:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn benchmarks_doc_covers_every_gate() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("docs/BENCHMARKS.md")).expect("BENCHMARKS.md");
    let gates: Vec<String> = std::fs::read_dir(&root)
        .expect("repo root")
        .map(|f| f.expect("dir entry").file_name())
        .map(|name| name.into_string().expect("utf-8 name"))
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    assert!(!gates.is_empty(), "no BENCH_*.json snapshot at the repo root");
    for gate in gates {
        assert!(
            text.contains(&gate),
            "docs/BENCHMARKS.md must document {gate}"
        );
    }
}
