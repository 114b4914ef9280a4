//! `run.sh` builds this binary and hands it its arguments.
//!
//! ```text
//! flash-benchmark --workload W [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
//! flash-benchmark [--seed S] [--seconds N] [--trace [0|1]] [--smoke]   # every workload
//! flash-benchmark --repeat [--sets N] [--runs R] [--seed S]            # calibrate bounds
//! flash-benchmark --manifest                                           # BENCHMARK.json
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the JSON result. Without it each workload runs in a
//! child process of its own, so `VmHWM` is that workload's alone.

use flash_benchmark::check::Tally;
use flash_benchmark::report::{print_fingerprint, print_result};
use flash_benchmark::spec::{
    manifest, Spec, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, SMOKE_SECONDS, WORKLOADS,
};
use flash_benchmark::{layers, repeat, workloads};
use std::process::ExitCode;

/// Where traces and spread reports go (ignored by git): relative to the
/// repository root, which `run.sh` makes the working directory.
const RESULTS_DIR: &str = "benchmark/results";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// `None`: `RUN_SECONDS`, or `SMOKE_SECONDS` under `--smoke`.
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    repeat: bool,
    manifest: bool,
    sets: usize,
    runs: usize,
}

impl Args {
    fn seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        })
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    value
        .as_deref()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: false,
        manifest: false,
        sets: 2,
        runs: 10,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(argv.next().ok_or("--workload needs a name")?);
            }
            "--seed" => args.seed = number(&flag, argv.next())?,
            "--seconds" => args.seconds = Some(number::<u64>(&flag, argv.next())?.max(1)),
            "--sets" => args.sets = number::<usize>(&flag, argv.next())?.max(2),
            "--runs" => args.runs = number::<usize>(&flag, argv.next())?.max(2),
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat" => args.repeat = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process; the last line printed is the result.
fn run_workload(spec: Spec, args: &Args) -> ExitCode {
    let spec = if args.smoke { spec.smoke() } else { spec };
    print_fingerprint(&spec, args.seed, args.seconds(), args.trace);
    let mut tally = Tally::default();
    if args.trace {
        let (measured, rec) = layers::run(&spec, args.seed, args.seconds(), &mut tally);
        let path = format!("{RESULTS_DIR}/trace_{}.jsonl", spec.name);
        let written = std::fs::create_dir_all(RESULTS_DIR)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                rec.write_jsonl(&mut out)?;
                std::io::Write::flush(&mut out)
            });
        match written {
            Ok(()) => println!("# spans: {path}"),
            Err(e) => tally.gate(false, || format!("cannot write {path}: {e}")),
        }
        print_result(PER_LAYER, &measured, &tally);
    } else {
        let measured = workloads::run(&spec, args.seed, args.seconds(), &mut tally);
        print_result(END_TO_END, &measured, &tally);
    }
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own child process, and adds the
/// paper's fig06 ratio as an informational line.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut build_s = Vec::new();
    for spec in WORKLOADS {
        let child = repeat::run_child(spec.name, args.seed, args.seconds(), args.trace, args.smoke);
        print!("{}", child.stdout);
        match &child.result {
            Some(result) if child.success => {
                if let Some(v) = result.metrics.iter().find(|(n, _)| n == "build_s") {
                    build_s.push((spec.name, v.1));
                }
            }
            _ => {
                println!("# {} FAILED", spec.name);
                ok = false;
            }
        }
        println!();
    }
    if let [(flash, a), (full, b), ..] = build_s[..] {
        println!(
            "# fig06 speedup (informational): {full}.build_s / {flash}.build_s = {:.3}",
            b / a
        );
    }
    println!("# {}", if ok { "all workloads passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest().to_pretty_string());
        return ExitCode::SUCCESS;
    }
    if args.repeat {
        return repeat::calibrate(args.sets, args.runs, args.seed, args.seconds(), RESULTS_DIR);
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match Spec::by_name(name) {
            Some(spec) => run_workload(spec, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload `{name}` (one of {})", names.join(", "));
                ExitCode::from(2)
            }
        },
    }
}
