//! The repo benchmark: `run`, `selfcheck` and `compare`. See README.md.

mod compare;
mod host;
mod json;
mod run;
mod selfcheck;
mod sut;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use run::PassResult;
use workloads::{MetricDef, END_TO_END, PER_LAYER};

/// Counts allocations while the traced pass switches it on; a plain
/// pass-through to the system allocator otherwise.
#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc::new();

const USAGE: &str = "usage:
  qosc-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]
  qosc-benchmark selfcheck [--sets <n>] [--seeds <n>] [--seconds <s>] [--smoke] [--out <file>] [--benchmark-json <file>]
  qosc-benchmark compare <a.json> <b.json> [--benchmark-json <file>]
workloads: t5_overload_1024 nego_churn_4096 gossip_4096 mc_2x2_drop";

/// Options of `run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One workload, or all of them in child processes.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Budget of measured wall per untraced pass, s.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Cut every workload to well under a second.
    pub smoke: bool,
    /// Also write the result, with per-part detail, to this file.
    pub out: Option<String>,
}

/// Pulls `--flag value` out of `args`; `Ok(None)` when absent.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_num<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
    default: T,
) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")),
    }
}

fn parse_run(mut args: Vec<String>) -> Result<RunArgs, String> {
    let parsed = RunArgs {
        workload: take_value(&mut args, "--workload")?,
        seed: parse_num("--seed", take_value(&mut args, "--seed")?, 1)?,
        seconds: parse_num("--seconds", take_value(&mut args, "--seconds")?, 25.0)?,
        trace: match take_value(&mut args, "--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
        },
        smoke: take_flag(&mut args, "--smoke"),
        out: take_value(&mut args, "--out")?,
    };
    if let Some(extra) = args.first() {
        return Err(format!("run: unexpected argument `{extra}`"));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(parsed)
}

/// The last output line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(result: &PassResult, defs: &[MetricDef]) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "metrics",
            Json::Obj(
                result
                    .readings
                    .iter()
                    .zip(defs)
                    .map(|(r, def)| {
                        (
                            r.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(r.value)),
                                ("unit", Json::str(def.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// First line a tool prints, for the provenance fields of `--out` files.
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn git_rev() -> String {
    tool_output("git", &["rev-parse", "--short", "HEAD"])
}

fn rustc_version() -> String {
    tool_output("rustc", &["-V"])
}

/// One (workload, pass) in this process.
fn run_one(args: &RunArgs, name: &str, started: Instant) -> Result<bool, String> {
    let workload = workloads::by_name(name, args.smoke)
        .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let (result, defs): (PassResult, &[MetricDef]) = if args.trace {
        (traced::traced(&workload, args.seed, args.smoke), &PER_LAYER)
    } else {
        (
            run::untraced(&workload, args.seed, args.seconds, started),
            &END_TO_END,
        )
    };
    assert_eq!(result.readings.len(), defs.len(), "one reading per metric");
    for note in &result.notes {
        println!("note {name} {note}");
    }
    for (r, def) in result.readings.iter().zip(defs) {
        println!(
            "metric {name} {} {} {} {}",
            r.name,
            Json::Num(r.value),
            def.unit,
            def.better.as_str()
        );
    }
    println!(
        "metric {name} failed_over_attempted {}/{} count lower",
        result.failed, result.attempted
    );
    let line = result_line(&result, defs);
    if let Some(path) = &args.out {
        let full = Json::obj([
            ("workload", Json::str(name)),
            ("trace", Json::Num(f64::from(u8::from(args.trace)))),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("host_cores", Json::Num(host::host_cores() as f64)),
            ("git_rev", Json::str(git_rev())),
            ("rustc", Json::str(rustc_version())),
            ("result", line.clone()),
            ("detail", result.detail.clone()),
        ]);
        std::fs::write(path, full.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(result.correct && result.failed == 0)
}

/// Every workload, both passes, one child process each; `--out` collects
/// the children's files into one document.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = trace::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut ok = true;
    let mut collected = Vec::new();
    for name in workloads::NAMES {
        for trace in [false, true] {
            let part = out_dir.join(format!("run-{name}-trace{}.json", u8::from(trace)));
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("run")
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| e.to_string())?;
            ok &= status.success();
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            collected.push(Json::parse(&text)?);
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("host_cores", Json::Num(host::host_cores() as f64)),
            ("git_rev", Json::str(git_rev())),
            ("rustc", Json::str(rustc_version())),
            ("seed", Json::Num(args.seed as f64)),
            ("runs", Json::Arr(collected)),
        ]);
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let outcome = match command.as_str() {
        "run" => parse_run(args).and_then(|parsed| match parsed.workload.clone() {
            Some(name) => run_one(&parsed, &name, started),
            None => run_all(&parsed),
        }),
        "selfcheck" => selfcheck::main(args),
        "compare" => compare::main(args),
        _ => Err(format!("unknown command `{command}`\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
