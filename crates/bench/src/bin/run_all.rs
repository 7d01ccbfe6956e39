//! Regenerates the evaluation: `run_all` runs every row of the
//! catalogue in order, `run_all <id>…` just the rows named. Each
//! artifact is printed and saved where it is committed (see `emit`).

use fpr_bench::CATALOGUE;

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| CATALOGUE.iter().all(|e| e.id != **w))
    {
        let ids: Vec<&str> = CATALOGUE.iter().map(|e| e.id).collect();
        eprintln!(
            "run_all: no experiment '{unknown}'; the catalogue has: {}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    println!("=== forkroad evaluation ===\n");
    for e in CATALOGUE {
        if wanted.is_empty() || wanted.iter().any(|w| w == e.id) {
            e.run_and_emit();
        }
    }
    println!("=== done ===");
}
