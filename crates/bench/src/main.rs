//! `repro [ID …]`: runs the named experiments of the paper's evaluation,
//! or all of them without arguments; prints each one's tables, then one
//! table of the paper's claims with our value and verdict beside each. An
//! unknown id exits 2 and lists the valid ones.

use bench::{find, Scale, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut chosen = Vec::new();
    for id in std::env::args().skip(1) {
        let Some(experiment) = find(&id) else {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            let valid = valid.join(" ");
            eprintln!("error: unknown experiment `{id}`; valid: {valid}");
            return ExitCode::from(2);
        };
        chosen.push(experiment);
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.iter().collect();
    }
    let scale = Scale::from_env();
    let Scale { n, queries, c, r } = scale;
    let level = simdops::detect_level().name();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# Reproduction of the paper's evaluation\n");
    println!("Output of `cargo run --release -p bench --bin repro` at:");
    println!("n = {n} vectors per dataset, {queries} queries, C = {c}, R = {r}.");
    println!("SIMD level {level}, {cores} cores.\n");
    let mut claims = Vec::new();
    for e in chosen {
        let (tables, verdicts) = e.execute(scale);
        println!("## {}: {}\n\n{tables}", e.id, e.title);
        claims.extend(verdicts.into_iter().map(|claim| (e.id, claim)));
    }
    println!("## Claims\n\n| id | paper | ours | holds |\n|---|---|---|---|");
    for (id, claim) in claims {
        let holds = if claim.holds { "yes" } else { "no" };
        println!("| {id} | {} | {} | {holds} |", claim.paper, claim.ours);
    }
    ExitCode::SUCCESS
}
