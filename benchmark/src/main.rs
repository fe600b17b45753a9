//! The repo's benchmark: four wall-clock serving workloads over the
//! real `frontend::Server`, eight end-to-end metrics, and — in a
//! separate traced run — per-layer numbers measured from outside the
//! program.
//! See `benchmark/README.md`.
//!
//! With `--workload` it runs that one workload in this process and
//! prints its table, then the contract's JSON object as the last line.
//! Without, it runs all four, each in a child process of its own (so
//! `live_heap_mib` is one workload's memory), and ends with a JSON array
//! of their result objects.

mod corpus;
mod drive;
mod mem;
mod probes;
mod report;
mod run;
mod spec;
mod stack;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use spec::Workload;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    pair: bool,
    repeat: usize,
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <1-60>] \
[--trace [0|1]] [--repeat <n>] [--smoke] [--pair] [--describe]
  workloads: ingest_wal point_read graph_query mixed_closure (default: all, one child each)
  --smoke    one-second runs (tiny counts), for CI wiring
  --pair     the traced run's two-thread phase alone (a traced run starts it as a child)
  --describe print BENCHMARK.json";

/// Accepts `--key value` and `--key=value`.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 2009,
        seconds: spec::RUN_SECONDS,
        trace: false,
        pair: false,
        repeat: 1,
    };
    let mut i = 0;
    while i < args.len() {
        let (key, inline) = match args[i].split_once('=') {
            Some((key, value)) => (key, Some(value.to_string())),
            None => (args[i].as_str(), None),
        };
        i += 1;
        let mut value = |required: bool| -> Result<Option<String>, String> {
            if inline.is_some() {
                return Ok(inline.clone());
            }
            match args.get(i) {
                Some(next) if !next.starts_with("--") => {
                    i += 1;
                    Ok(Some(next.clone()))
                }
                _ if required => Err(format!("{key} needs a value")),
                _ => Ok(None),
            }
        };
        let number = |v: Option<String>| -> Result<u64, String> {
            let v = v.expect("required values are present");
            v.parse()
                .map_err(|_| format!("{key}: `{v}` is not a whole number"))
        };
        match key {
            "--workload" => {
                let name = value(true)?.expect("required");
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => out.seed = number(value(true)?)?,
            "--seconds" => out.seconds = number(value(true)?)?,
            "--repeat" => out.repeat = number(value(true)?)? as usize,
            "--trace" => out.trace = value(false)?.is_none_or(|v| v != "0"),
            "--pair" => out.pair = true,
            "--smoke" => out.seconds = 1,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(1..=60).contains(&out.seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    Ok(out)
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let result = if args.pair {
        // The one kind of run that keeps glibc's heap as it comes.
        trace::run_pair(workload, args.seed)
    } else {
        mem::retain_and_prefault(workload.spec().heap_at(args.seconds, args.trace));
        if args.trace {
            trace::run_traced(workload, args.seed, args.seconds)
        } else {
            run::run_end_to_end(workload, args.seed, args.seconds)
        }
    };
    print!("{}", report::table(workload.spec().name, &result));
    println!("{}", report::json_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, `repeat` times, untraced and (with `--trace`) also
/// traced, each run in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut lines = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let name = workload.spec().name;
        let traces: &[u8] = if args.trace { &[0, 1] } else { &[0] };
        for _ in 0..args.repeat {
            for trace in traces {
                let output = Command::new(&exe)
                    .args(["--workload", name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("start a child run");
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (table, json) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
                println!("{table}");
                ok &= output.status.success();
                lines.push(format!(
                    "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {trace}, \"result\": {}}}",
                    args.seed,
                    args.seconds,
                    if json.starts_with('{') { json } else { "null" }
                ));
            }
        }
    }
    println!("[{}]", lines.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--describe") {
        print!("{}", spec::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_drivers_spelling_and_the_issues() {
        let a = args(&[
            "--workload",
            "point_read",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::PointRead), 7, 3, false)
        );
        let b = args(&[
            "--workload=graph_query",
            "--seed=9",
            "--trace",
            "--repeat=2",
        ])
        .unwrap();
        assert_eq!(
            (b.workload, b.seed, b.trace, b.repeat),
            (Some(Workload::GraphQuery), 9, true, 2)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert_eq!(args(&["--smoke"]).unwrap().seconds, 1);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
