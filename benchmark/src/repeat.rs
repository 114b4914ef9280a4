//! Child-process runs, and the calibration the bounds come from: the
//! driver's own acceptance test, run here first.

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use hnsw_flash::metrics::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The parsed last line of a run.
pub struct RunResult {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

pub struct Child {
    pub success: bool,
    pub stdout: String,
    pub result: Option<RunResult>,
}

fn parse_result(stdout: &str) -> Option<RunResult> {
    let json = Json::parse(stdout.lines().last()?).ok()?;
    let Json::Obj(metrics) = json.get("metrics")? else {
        return None;
    };
    Some(RunResult {
        correct: matches!(json.get("correct")?, Json::Bool(true)),
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Runs one workload in a child process of this executable and waits for it.
pub fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Child {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    match command.output() {
        Ok(output) => {
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            Child {
                success: output.status.success(),
                result: parse_result(&stdout),
                stdout,
            }
        }
        Err(e) => Child {
            success: false,
            stdout: format!("# cannot start the child: {e}\n"),
            result: None,
        },
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs `sets` sets of `runs` runs per workload, each run on another seed,
/// alternating the workload order between sets; the first set also makes
/// the traced run on each seed and requires it correct. For every end-to-end
/// metric and workload it prints each set's median and spread (IQR as a
/// share of the median) and whether the later sets hold the bound against
/// the first. Writes `spread.json` into `results_dir`.
pub fn calibrate(sets: usize, runs: usize, seed: u64, seconds: u64, results_dir: &str) -> ExitCode {
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(&str, String), Vec<Vec<f64>>> = BTreeMap::new();
    let mut all_correct = true;
    // Every run's full output stays on disk: the per-run values behind the
    // medians, and the `#` lines (checkpoint recalls, ungated tails).
    let keep = |child: &Child, name: &str| {
        let dir = format!("{results_dir}/runs");
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(format!("{dir}/{name}.out"), &child.stdout))
        {
            eprintln!("cannot keep {name}.out: {e}");
        }
    };
    for set in 0..sets {
        let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for run in 0..runs {
            for &workload in &order {
                eprintln!("set {}/{sets} run {}/{runs} {workload}", set + 1, run + 1);
                let child = run_child(workload, seed + run as u64, seconds, false, false);
                keep(
                    &child,
                    &format!("{workload}_set{set}_seed{}", seed + run as u64),
                );
                let Some(result) = child.result.filter(|r| child.success && r.correct) else {
                    eprintln!("{}", child.stdout);
                    all_correct = false;
                    continue;
                };
                for (name, value) in result.metrics {
                    let per_set = values.entry((workload, name)).or_default();
                    per_set.resize(sets, Vec::new());
                    per_set[set].push(value);
                }
                // The traced run has gates of its own; they must hold on
                // every seed too. Once per seed is enough: they are counts.
                if set == 0 {
                    let traced = run_child(workload, seed + run as u64, seconds, true, false);
                    keep(
                        &traced,
                        &format!("{workload}_traced_seed{}", seed + run as u64),
                    );
                    if !(traced.success && traced.result.is_some_and(|r| r.correct)) {
                        eprintln!("{}", traced.stdout);
                        all_correct = false;
                    }
                }
            }
        }
    }

    let mut all_hold = all_correct;
    let mut rows = Vec::new();
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median[0]", "median[last]", "ratio", "spread0", "spreadN", "bound"
    );
    for ((workload, name), per_set) in &values {
        let Some(decl) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        if per_set.iter().any(|v| v.len() < 2) {
            all_hold = false;
            continue;
        }
        let bound = decl.bound.expect("end-to-end metrics are bounded");
        let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
        let spreads: Vec<f64> = per_set.iter().map(|v| spread(v)).collect();
        let worst = medians[1..]
            .iter()
            .map(|&m| worsening(decl.better, medians[0], m))
            .fold(f64::MIN, f64::max);
        let widest = spreads.iter().copied().fold(0.0, f64::max);
        // The driver exempts setup_s from the spread test only.
        let holds = worst <= bound && (name == "setup_s" || widest <= bound);
        let steady = widest <= bound / 3.0;
        all_hold &= holds;
        let last = medians.len() - 1;
        println!(
            "{:<18} {:<24} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>8.4} {:>6.3}  {}{}",
            workload,
            name,
            medians[0],
            medians[last],
            medians[last] / medians[0],
            spreads[0],
            spreads[last],
            bound,
            if holds { "PASS" } else { "FAIL" },
            if holds && !steady {
                " (spread above bound/3)"
            } else {
                ""
            },
        );
        rows.push(Json::Obj(vec![
            ("workload".into(), Json::str(*workload)),
            ("metric".into(), Json::str(name.as_str())),
            ("bound".into(), Json::Num(bound)),
            (
                "medians".into(),
                Json::Arr(medians.iter().map(|&m| Json::num(m)).collect()),
            ),
            (
                "spreads".into(),
                Json::Arr(spreads.iter().map(|&s| Json::num(s)).collect()),
            ),
            ("worsening".into(), Json::num(worst)),
            ("pass".into(), Json::Bool(holds)),
        ]));
    }
    let report = Json::Obj(vec![
        ("sets".into(), Json::uint(sets as u64)),
        ("runs_per_set".into(), Json::uint(runs as u64)),
        ("first_seed".into(), Json::uint(seed)),
        ("seconds".into(), Json::uint(seconds)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    let path = format!("{results_dir}/spread.json");
    if let Err(e) = std::fs::create_dir_all(results_dir)
        .and_then(|()| std::fs::write(&path, report.to_pretty_string()))
    {
        eprintln!("cannot write {path}: {e}");
        all_hold = false;
    }
    println!(
        "# {} ({path})",
        if all_hold {
            "every bound holds"
        } else {
            "FAILED"
        }
    );
    if all_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
