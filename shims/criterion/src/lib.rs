//! Offline shim for `criterion`: enough of the API to compile and run
//! the workspace's benches. Each benchmark runs one discarded warm-up
//! batch followed by `sample_size` timed batches and reports
//! mean/median/stddev/min — no adaptive warm-up tuning, outlier analysis,
//! or HTML reports.
//!
//! Set `BENCH_SMOKE=1` to cap every benchmark at 3 timed samples: CI runs
//! the suites in this mode on pull requests — enough to keep the benches
//! compiling and running without burning minutes on statistical
//! confidence.

use std::fmt::Display;
use std::time::Instant;

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, 10, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed batches each benchmark runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Declares the per-iteration throughput (recorded, not reported).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: IntoBenchmarkId,
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.sample_size, f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I, T, F>(&mut self, id: I, input: &T, mut f: F) -> &mut Self
    where
        I: IntoBenchmarkId,
        T: ?Sized,
        F: FnMut(&mut Bencher, &T),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (no-op; provided for API parity).
    pub fn finish(self) {}
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id of the form `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            text: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id from a bare parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

/// Conversion into a printable benchmark id.
pub trait IntoBenchmarkId {
    /// Renders the id text.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.text
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Per-iteration work declaration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timing handle passed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    samples_ns: Vec<u128>,
}

impl Bencher {
    /// Times `routine`, recording one sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        black_box(routine());
        self.samples_ns.push(start.elapsed().as_nanos());
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    // Smoke mode (CI on pull requests): a handful of samples proves the
    // bench runs without the full batch count.
    let samples = if std::env::var_os("BENCH_SMOKE").is_some() {
        samples.min(3)
    } else {
        samples
    };
    let mut b = Bencher::default();
    // Warm-up sample, discarded (caches, branch predictors, allocator).
    f(&mut b);
    b.samples_ns.clear();
    for _ in 0..samples.max(1) {
        f(&mut b);
    }
    let stats = Stats::of(&mut b.samples_ns);
    println!(
        "{label:<60} mean {:>10} ns  median {:>10} ns  min {:>10} ns  stddev {:>8.0} ns  ({} samples)",
        stats.mean, stats.median, stats.min, stats.stddev, stats.samples
    );
}

/// Summary statistics over one benchmark's timed samples.
#[derive(Debug, Clone, Copy)]
struct Stats {
    mean: u128,
    median: u128,
    min: u128,
    stddev: f64,
    samples: usize,
}

impl Stats {
    fn of(samples_ns: &mut [u128]) -> Self {
        samples_ns.sort_unstable();
        let n = samples_ns.len().max(1);
        let mean = samples_ns.iter().sum::<u128>() / n as u128;
        let median = if samples_ns.is_empty() {
            0
        } else if n % 2 == 1 {
            samples_ns[n / 2]
        } else {
            (samples_ns[n / 2 - 1] + samples_ns[n / 2]) / 2
        };
        let min = samples_ns.first().copied().unwrap_or(0);
        let var = samples_ns
            .iter()
            .map(|&x| {
                let d = x as f64 - mean as f64;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        Self {
            mean,
            median,
            min,
            stddev: var.sqrt(),
            samples: samples_ns.len(),
        }
    }
}

/// Bundles benchmark functions into one runner, mirroring criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
