//! `fragbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero on bad arguments.

use std::process::ExitCode;

use fragbench::bench;
use fragbench::workloads::Shape;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fragbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(shape) = Shape::named(&args.workload) else {
        eprintln!(
            "fragbench: unknown workload {:?}; one of {:?}",
            args.workload,
            Shape::NAMES
        );
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        bench::per_layer(&shape, args.seed, args.seconds)
    } else {
        bench::end_to_end(&shape, args.seed, args.seconds)
    };
    print!("{}", outcome.report);
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
