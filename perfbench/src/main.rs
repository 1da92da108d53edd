//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload perf_inproc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one seeded, closed-loop workload for `--seconds` after a
//! warm-up, checks every output, and prints one JSON result object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric map.

use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::gen::Inputs;
use perfbench::{host, trace};

mod perf;
mod report;
mod rpc;
mod run;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["perf_inproc", "rpc_socket", "perf_federated"];

/// Where the traced run writes its spans, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::from_seed(args.seed);
    let mut out = match args.workload.as_str() {
        "perf_inproc" => perf::run(&inputs, false, args.seconds, args.trace),
        "perf_federated" => perf::run(&inputs, true, args.seconds, args.trace),
        _ => rpc::run(&inputs, args.seconds, args.trace),
    };

    let metrics = if args.trace {
        let (lo, hi) = out.ops;
        let mut spans: Vec<_> = trace::take()
            .into_iter()
            .filter(|s| s.op >= lo && s.op < hi)
            .collect();
        report::derive_spoke_spans(&mut spans);
        if let Err(e) = write_spans(&args.workload, &spans) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        report::per_layer(&args.workload, &mut out, &spans)
    } else {
        report::end_to_end(&mut out)
    };
    // Fingerprinted after the run: it starts `git` and `rustc`, which
    // would otherwise share the CPUs with the timed set-up.
    println!("# host {}", host::fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    report::print_result(correct, out.attempted.max(1), out.failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_spans(workload: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/{workload}.spans.csv");
    let mut w = BufWriter::new(fs::File::create(&path)?);
    trace::write_csv(&mut w, spans)?;
    println!("# spans: {} written to {path}", spans.len());
    Ok(())
}
