//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-panels|mesh-mix|scale-implicit> --seed <n> \
//!     --seconds <s> --trace <0|1> [--size full|reduced] [--print-digests]
//! ```
//!
//! Prints notes and one `name value unit` line per metric, then the result
//! as one JSON object on the last line of standard output. Exits 2 on bad
//! arguments and 1 when a workload cannot run at all; no result is printed
//! in either case.

use perfbench::workloads::Size;
use perfbench::{run, Options};

fn parse() -> Result<(Options, bool), String> {
    let mut opts = Options {
        workload: String::new(),
        seed: perfbench::DEFAULT_SEED,
        // BENCHMARK.json's run_seconds, the run length its bounds assume.
        seconds: 30.0,
        trace: false,
        size: Size::Full,
        out_dir: Some("perfbench/out".into()),
    };
    let mut print_digests = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "reduced" => Size::Reduced,
                    _ => return Err(bad(&"expected full or reduced")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok((opts, print_digests))
}

fn main() {
    let (opts, print_digests) = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        println!("# {}: {note}", opts.workload);
    }
    if print_digests {
        for (name, digest) in &report.digests {
            println!("digest {name} {digest}");
        }
    }
    println!(
        "{} failed_frac {} ratio ({} of {} jobs failed)",
        opts.workload,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for m in &report.metrics {
        println!("{} {} {} {}", opts.workload, m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
}
