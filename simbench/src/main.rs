//! End-to-end and per-layer benchmark of the PABST simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <read_stream|write_stream|mesh_chase> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--digest-only` skips timing and
//! prints the workload's correctness digest for the seed (how
//! `digests.txt` is made). See `README.md` in this directory.

mod catalog;
mod digest;
mod run;
mod spec;
mod stats;
mod trace;
mod units;

use std::process::ExitCode;
use std::time::Instant;

use run::Request;
use spec::Spec;

#[derive(Debug)]
struct Args {
    req: Request,
    trace: bool,
    digest_only: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut digest_only = false;
    while let Some(flag) = argv.next() {
        if flag == "--digest-only" {
            digest_only = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
                let spec = Spec::by_name(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {names:?}"))?;
                workload = Some(spec);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 100.0) {
                    return Err(format!("--seconds {s} is outside (0, 100]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        req: Request {
            spec: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(spec::DEFAULT_SEED),
            seconds: seconds.unwrap_or(10.0),
        },
        trace: trace.unwrap_or(false),
        digest_only,
    })
}

fn main() -> ExitCode {
    let began = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let req = args.req;
    if args.digest_only {
        return match run::digest_only(&req) {
            Ok(d) => {
                println!("{} {} {d:016x}", req.spec.name, req.seed);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("simbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "simbench {} seed {} ({}), {} s, {}",
        req.spec.name,
        req.seed,
        match (digest::recorded(req.spec.name, req.seed), req.seed == spec::HELD_OUT_SEED) {
            (Some(_), true) => "held-out seed, recorded digest",
            (Some(_), false) => "recorded digest",
            (None, _) => "no recorded digest: runs cross-check",
        },
        req.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let out = if args.trace { run::traced(&req, began) } else { run::untraced(&req, began) };
    let list = if args.trace { catalog::per_layer() } else { catalog::end_to_end() };
    assert!(
        out.failed > 0 || out.metrics.covers(list),
        "a clean run must report every listed metric"
    );
    out.metrics.print();
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("runs_failed_share {share} ({} of {} runs)", out.failed, out.attempted);
    for f in &out.failures {
        println!("failure: {f}");
    }
    println!("{}", out.metrics.result_line(out.failed == 0, out.attempted, out.failed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload mesh_chase --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.req.spec.name, a.req.seed, a.req.seconds, a.trace),
            ("mesh_chase", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload read_stream --trace 2",
            "--workload read_stream --seconds 0",
            "--workload read_stream --seed -1",
            "--workload read_stream --bogus 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
