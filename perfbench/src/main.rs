//! `pm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `name value unit` line per metric, then, as the last line,
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! Exit codes: 0 when every verdict matched its oracle, 1 when one did
//! not, 2 for bad arguments, 3 when set-up failed.

use std::path::Path;
use std::process::ExitCode;

use pm_perfbench::{Scale, WorkDir, PINNED_DIGESTS, PINNED_SEED};

/// Scratch files (trace images, sockets, journals) live here, under the
/// directory the benchmark is run from, and are removed at exit.
const WORK_BASE: &str = ".bench_tmp";

/// Traced runs write their spans here.
const SPANS_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(Path::new(WORK_BASE)) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("pm-perfbench: cannot create {WORK_BASE}: {e}");
            return ExitCode::from(3);
        }
    };
    let spans_out =
        Path::new(SPANS_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} available_parallelism {parallelism}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = pm_perfbench::run(
        &args.workload,
        work.path(),
        args.seed,
        args.seconds,
        &Scale::FULL,
        args.trace.then_some(spans_out.as_path()),
    );
    drop(work);
    let (mut result, digest) = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pm-perfbench: {e}");
            return ExitCode::from(if e.starts_with("unknown workload") {
                2
            } else {
                3
            });
        }
    };
    if args.trace {
        println!("spans {}", spans_out.display());
    } else {
        println!("input digest {digest:016x}");
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(name, _)| *name == args.workload)
            .map(|&(_, d)| d);
        if args.seed == PINNED_SEED && pinned != Some(digest) {
            eprintln!(
                "input digest {digest:016x} differs from the pinned {:016x}: the detector's \
                 verdicts or the input generators changed",
                pinned.unwrap_or(0)
            );
            result.correct = false;
        }
    }
    for (name, unit, value) in result.metrics.rows() {
        println!("{name} {value} {unit}");
    }
    println!("failed_frac {} ratio", result.failed_frac());
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
