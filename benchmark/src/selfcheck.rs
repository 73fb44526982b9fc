//! The noise study: do two sets of runs of the same code agree?
//!
//! Runs every workload's untraced pass for `--seeds` seeds in `--sets`
//! interleaved sets (A₁B₁A₂B₂…, each run its own process), and demands of
//! every (workload, end-to-end metric) that the interquartile range of a
//! set stays within a third of the bound `BENCHMARK.json` declares for the
//! metric, as a share of the set's median, and that the sets' medians stay
//! as close to each other — so the pipeline's own two sets, held to the
//! whole bound, have headroom.

use crate::compare;
use crate::host;
use crate::json::Json;
use crate::workloads::{self, END_TO_END};

/// Share of a metric's bound that the spread within a set, and the
/// relative difference between set medians, may reach.
pub const SHARE_OF_BOUND: f64 = 1.0 / 3.0;

/// One child run; returns the parsed last stdout line.
fn child_run(name: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("run")
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name} seed {seed}: no output"))?;
    let result = Json::parse(last).map_err(|e| format!("{name} seed {seed}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{name} seed {seed}: exit {} with {last}",
            output.status
        ));
    }
    Ok(result)
}

fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `selfcheck` entry point; `Ok(true)` when every spread and difference
/// is within [`SHARE_OF_BOUND`] of its metric's bound.
pub fn main(mut args: Vec<String>) -> Result<bool, String> {
    let sets: usize = crate::parse_num("--sets", crate::take_value(&mut args, "--sets")?, 2)?;
    let seeds: u64 = crate::parse_num("--seeds", crate::take_value(&mut args, "--seeds")?, 10)?;
    let seconds: f64 = crate::parse_num(
        "--seconds",
        crate::take_value(&mut args, "--seconds")?,
        25.0,
    )?;
    let smoke = crate::take_flag(&mut args, "--smoke");
    let out = crate::take_value(&mut args, "--out")?;
    let declared_path = crate::take_value(&mut args, "--benchmark-json")?
        .unwrap_or_else(compare::default_benchmark_json);
    let declared = compare::load_declared(&declared_path)?;
    if let Some(extra) = args.first() {
        return Err(format!("selfcheck: unexpected argument `{extra}`"));
    }
    if sets < 2 || seeds < 2 {
        return Err("selfcheck needs at least 2 sets of at least 2 seeds".into());
    }

    let mut runs = Vec::new();
    for seed in 1..=seeds {
        for set in 0..sets {
            for name in workloads::NAMES {
                let result = child_run(name, seed, seconds, smoke)?;
                println!("run set {set} seed {seed} {name} {result}");
                runs.push(Json::obj([
                    ("workload", Json::str(name)),
                    ("set", Json::Num(set as f64)),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(0.0)),
                    ("result", result),
                ]));
            }
        }
    }

    let mut pass = true;
    let mut summary = Vec::new();
    for name in workloads::NAMES {
        for def in END_TO_END {
            let limit = declared
                .iter()
                .find(|d| d.name == def.name)
                .and_then(|d| d.bound)
                .ok_or_else(|| format!("{declared_path}: no bound for `{}`", def.name))?
                * SHARE_OF_BOUND;
            let per_set: Vec<Vec<f64>> = (0..sets)
                .map(|set| {
                    runs.iter()
                        .filter(|r| {
                            r.get("workload").and_then(Json::as_str) == Some(name)
                                && r.get("set").and_then(Json::as_f64) == Some(set as f64)
                        })
                        .filter_map(|r| metric_value(r.get("result")?, def.name))
                        .collect()
                })
                .collect();
            let medians: Vec<f64> = per_set.iter().map(|v| host::median(v)).collect();
            let spreads: Vec<f64> = per_set.iter().map(|v| host::spread(v)).collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let difference = if lo > 0.0 {
                (hi - lo) / lo
            } else {
                f64::INFINITY
            };
            let ok = spreads.iter().all(|s| *s <= limit) && difference <= limit;
            pass &= ok;
            let set_rows: Vec<Json> = per_set
                .iter()
                .map(|v| {
                    let (q1, q2, q3) = host::quartiles(v);
                    Json::obj([
                        ("q1", Json::Num(q1)),
                        ("median", Json::Num(q2)),
                        ("q3", Json::Num(q3)),
                        ("spread", Json::Num(host::spread(v))),
                    ])
                })
                .collect();
            println!(
                "check {name} {} {} medians {:?} spreads {:?} difference {difference:.4} limit {limit:.4} {}",
                def.name,
                def.unit,
                medians,
                spreads
                    .iter()
                    .map(|s| (s * 1e4).round() / 1e4)
                    .collect::<Vec<_>>(),
                if ok { "ok" } else { "TOO NOISY" }
            );
            summary.push(Json::obj([
                ("workload", Json::str(name)),
                ("metric", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("sets", Json::Arr(set_rows)),
                ("median_difference", Json::Num(difference)),
                ("limit", Json::Num(limit)),
                ("ok", Json::Bool(ok)),
            ]));
        }
    }
    let all_correct = runs.iter().all(|r| {
        r.get("result").is_some_and(|res| {
            res.get("correct") == Some(&Json::Bool(true))
                && res.get("failed").and_then(Json::as_f64) == Some(0.0)
        })
    });
    if !all_correct {
        println!("check correctness: a run failed a check or an operation");
    }
    pass &= all_correct;
    println!("selfcheck {}", if pass { "passed" } else { "FAILED" });

    if let Some(path) = out {
        let doc = Json::obj([
            ("host_cores", Json::Num(host::host_cores() as f64)),
            ("git_rev", Json::str(crate::git_rev())),
            ("rustc", Json::str(crate::rustc_version())),
            ("seconds", Json::Num(seconds)),
            ("sets", Json::Num(sets as f64)),
            ("seeds", Json::Num(seeds as f64)),
            ("share_of_bound", Json::Num(SHARE_OF_BOUND)),
            ("pass", Json::Bool(pass)),
            ("summary", Json::Arr(summary)),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(pass)
}
