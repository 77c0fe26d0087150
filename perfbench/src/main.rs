//! Benchmark of the uncertainty-aware predictor and its service.
//!
//! ```text
//! uaq-perfbench --workload <serve-novel|serve-repeat|paper-eval> --seed <n>
//!               --seconds <s> --trace <0|1>
//! uaq-perfbench --probe
//! ```
//!
//! With `--trace 0` the last stdout line is one JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run. Lines starting with `#` are commentary. The exit code
//! is 0 only when every operation passed its checks.

mod env;
mod layers;
mod paper;
mod serve;
mod util;

/// Worker threads of the service, and the requests the client keeps in
/// flight.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            args.probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.probe {
        let (register_ms, memory_ms) = util::host_probes();
        println!("# host probes: register_loop_ms={register_ms:.1} memory_loop_ms={memory_ms:.1}");
        return;
    }
    let report = match args.workload.as_str() {
        "serve-novel" => serve::run(serve::Kind::Novel, args.seed, args.seconds, args.trace),
        "serve-repeat" => serve::run(serve::Kind::Repeat, args.seed, args.seconds, args.trace),
        "paper-eval" => paper::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!("# in-flight depth {0}, workers {0}", nproc());
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
