//! `compare <a.json> <b.json>`: one row per (workload, metric), judged
//! by the bounds and directions `BENCHMARK.json` declares.
//!
//! Either file is what `run --out` or `selfcheck --out` wrote: a
//! document with a `runs` array (or a single run record). `a` is the
//! base of every ratio.

use std::collections::BTreeMap;

use crate::host;
use crate::json::Json;
use crate::workloads::{self, Better};

/// Units whose per-layer values are simulated or counted, hence exact
/// for a seed: they must match, not merely stay within a bound.
const EXACT_UNITS: [&str; 3] = ["count", "ratio", "sim_ms"];

/// How one row reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or an exact row that matches.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The spread inside either file is wider than the bound, and the
    /// runs of `b` are not all better than all runs of `a`.
    Unresolved,
    /// An exact row whose values differ at an equal seed.
    Changed,
    /// A timing with no bound, or an exact row without a common seed.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Info => "info",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Changed)
    }
}

/// Whether `b` reads better than `a`.
fn better_than(b: f64, a: f64, better: Better) -> bool {
    match better {
        Better::Higher => b > a,
        Better::Lower => b < a,
    }
}

/// Share of the base by which `b`'s median is worse than `a`'s
/// (negative when it is better).
pub fn worsening(a_median: f64, b_median: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => a_median - b_median,
        Better::Lower => b_median - a_median,
    };
    delta / a_median.abs()
}

/// Judges a bounded (end-to-end) row from every sample of both files.
pub fn judge_bounded(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Info;
    }
    if host::spread(a) > bound || host::spread(b) > bound {
        let all_better = b
            .iter()
            .all(|y| a.iter().all(|x| better_than(*y, *x, better)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(host::median(a), host::median(b), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Judges an exact row: values must be equal wherever both files ran
/// the same seed.
pub fn judge_exact(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> Verdict {
    let mut common = a
        .iter()
        .filter_map(|(seed, x)| b.get(seed).map(|y| (x, y)))
        .peekable();
    if common.peek().is_none() {
        return Verdict::Info;
    }
    if common.all(|(x, y)| x == y) {
        Verdict::Ok
    } else {
        Verdict::Changed
    }
}

/// One run record of an input file.
struct Run {
    workload: String,
    seed: u64,
    traced: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let records: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![&doc],
    };
    let mut out = Vec::new();
    for r in records {
        let field = |k: &str| {
            r.get(k)
                .ok_or_else(|| format!("{path}: a run record lacks `{k}`"))
        };
        let result = field("result")?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: a result lacks `metrics`"))?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Run {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            traced: field("trace")?.as_f64() == Some(1.0),
            attempted: result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            metrics,
        });
    }
    Ok(out)
}

/// A metric as `BENCHMARK.json` declares it.
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// `Some` for end-to-end metrics.
    pub bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` at `path` declares, end-to-end first.
pub fn load_declared(path: &str) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no `{section}` array"))?;
        for m in list {
            let text_of = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{path}: a `{section}` metric lacks `{k}`"))
            };
            let better = match text_of("better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("{path}: direction `{other}`")),
            };
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{path}: an end-to-end metric lacks `bound`"))?,
                )
            } else {
                None
            };
            out.push(Declared {
                name: text_of("name")?,
                unit: text_of("unit")?,
                better,
                bound,
            });
        }
    }
    Ok(out)
}

/// The root `BENCHMARK.json`, two levels above the benchmark's `out/`.
pub fn default_benchmark_json() -> String {
    crate::trace::out_dir()
        .parent()
        .and_then(|bench| bench.parent())
        .map(|root| root.join("BENCHMARK.json"))
        .unwrap_or_else(|| "BENCHMARK.json".into())
        .to_string_lossy()
        .into_owned()
}

/// `compare` entry point; `Ok(true)` when nothing regressed, no exact
/// row changed and no workload fails more often.
pub fn main(mut args: Vec<String>) -> Result<bool, String> {
    let declared_path =
        crate::take_value(&mut args, "--benchmark-json")?.unwrap_or_else(default_benchmark_json);
    let [a_path, b_path] = args.as_slice() else {
        return Err("compare takes exactly two result files".into());
    };
    let declared = load_declared(&declared_path)?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);
    let mut pass = true;
    println!("workload metric unit better a b ratio_b_over_a verdict");
    for workload in workloads::NAMES {
        for d in &declared {
            let traced = d.bound.is_none();
            let by_seed = |runs: &[Run]| -> BTreeMap<u64, f64> {
                runs.iter()
                    .filter(|r| r.workload == workload && r.traced == traced)
                    .filter_map(|r| Some((r.seed, *r.metrics.get(&d.name)?)))
                    .collect()
            };
            let samples = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == workload && r.traced == traced)
                    .filter_map(|r| r.metrics.get(&d.name).copied())
                    .collect()
            };
            let (xa, xb) = (samples(&a), samples(&b));
            if xa.is_empty() && xb.is_empty() {
                continue;
            }
            let verdict = match d.bound {
                Some(bound) => judge_bounded(&xa, &xb, d.better, bound),
                None if EXACT_UNITS.contains(&d.unit.as_str()) => {
                    judge_exact(&by_seed(&a), &by_seed(&b))
                }
                None => Verdict::Info,
            };
            pass &= !verdict.fails();
            let (ma, mb) = (host::median(&xa), host::median(&xb));
            println!(
                "{workload} {} {} {} {} {} {} {}",
                d.name,
                d.unit,
                d.better.as_str(),
                Json::Num(ma),
                Json::Num(mb),
                if ma != 0.0 {
                    format!("{:.4}", mb / ma)
                } else {
                    "-".into()
                },
                verdict.as_str()
            );
        }
        let failure_rate = |runs: &[Run]| -> f64 {
            let (failed, attempted) = runs
                .iter()
                .filter(|r| r.workload == workload)
                .fold((0.0, 0.0), |(f, n), r| (f + r.failed, n + r.attempted));
            if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }
        };
        let (fa, fb) = (failure_rate(&a), failure_rate(&b));
        let worse = fb > fa;
        pass &= !worse;
        println!(
            "{workload} failed_over_attempted ratio lower {fa} {fb} - {}",
            if worse { "regressed" } else { "ok" }
        );
    }
    println!("compare {}", if pass { "passed" } else { "FAILED" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        // 20 % fewer ops/s is a regression at a 10 % bound; 20 % more is not.
        assert_eq!(
            judge_bounded(&[100.0], &[80.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge_bounded(&[100.0], &[120.0], Better::Higher, 0.1),
            Verdict::Ok
        );
        // The same numbers on a lower-is-better metric read the other way.
        assert_eq!(
            judge_bounded(&[100.0], &[80.0], Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(&[100.0], &[120.0], Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Inside the bound either way.
        assert_eq!(
            judge_bounded(&[100.0], &[95.0], Better::Higher, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(&[100.0], &[105.0], Better::Lower, 0.1),
            Verdict::Ok
        );
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, Better::Lower) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge_bounded(&noisy, &[95.0, 100.0, 105.0], Better::Higher, 0.1),
            Verdict::Unresolved
        );
        // Every run of b beats every run of a: a win despite the spread.
        assert_eq!(
            judge_bounded(&noisy, &[130.0, 140.0, 150.0], Better::Higher, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(&noisy, &[130.0, 140.0, 150.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_rows_match_at_equal_seeds_only() {
        let a: BTreeMap<u64, f64> = [(1, 30.0), (2, 31.0)].into();
        let same: BTreeMap<u64, f64> = [(2, 31.0), (3, 99.0)].into();
        let moved: BTreeMap<u64, f64> = [(1, 30.0), (2, 31.5)].into();
        let disjoint: BTreeMap<u64, f64> = [(7, 30.0)].into();
        assert_eq!(judge_exact(&a, &same), Verdict::Ok);
        assert_eq!(judge_exact(&a, &moved), Verdict::Changed);
        assert_eq!(judge_exact(&a, &disjoint), Verdict::Info);
        assert!(Verdict::Changed.fails() && Verdict::Regressed.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Info.fails());
    }
}
