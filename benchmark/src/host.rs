//! Host-side measurement: the reference slice, the part clock that
//! reports walls at nominal host speed, peak RSS, and order statistics.
//!
//! Nothing here calls into the repo, so no repo change can move the
//! slice.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Working set of the slice's memory leg, subtracted from peak RSS.
pub const SLICE_WORKING_SET_MB: f64 = 8.0;

/// Walls of the slice's two legs on this class of host in its fast
/// state, ms: compute (cache-resident table and sort work) and memory
/// (dependent accesses scattered over 8 MB). Walls are reported as if
/// every slice took this long; they are units, not measurements, and
/// must only change together with the baselines.
pub const NOMINAL_LEG_MS: [f64; 2] = [10.0, 10.0];

const SCATTER_WORDS: usize = 1 << 20; // 8 MB of u64
const TABLE_KEYS: u64 = 4096;

type FixedState = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// A fixed piece of the benchmark's own work, run between the timed
/// parts: the walls of its two legs say how fast the host computes and
/// how fast it reaches memory right now.
pub struct Slice {
    scatter: Vec<u64>,
    table: HashMap<u64, u64, FixedState>,
    short: Vec<u64>,
    state: u64,
}

impl Slice {
    /// Allocates and touches the working set.
    pub fn new() -> Slice {
        let mut scatter = vec![0u64; SCATTER_WORDS];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for w in scatter.iter_mut() {
            x = splitmix(x);
            *w = x;
        }
        let mut table =
            HashMap::with_capacity_and_hasher(TABLE_KEYS as usize, FixedState::default());
        for k in 0..TABLE_KEYS {
            table.insert(k, k);
        }
        Slice {
            scatter,
            table,
            short: Vec::with_capacity(64),
            state: 1,
        }
    }

    /// Runs the slice once; returns the walls of its compute and memory
    /// legs, ms.
    pub fn run(&mut self) -> [f64; 2] {
        // Off the clock, read the working set back into the caches: the
        // work before the slice evicted some of it, and how much depends
        // on that work's footprint, which is not the host's speed.
        let mut x = self.scatter.iter().fold(self.state, |acc, w| acc ^ w);
        let t0 = Instant::now();
        // Compute leg: HashMap traffic in a cache-resident table, then
        // short vectors filled and sorted.
        for _ in 0..150_000 {
            x = splitmix(x);
            let k = x % TABLE_KEYS;
            let v = self.table.get(&k).copied().unwrap_or(0);
            self.table.insert((k + v) % TABLE_KEYS, x);
        }
        for _ in 0..7_000 {
            self.short.clear();
            for _ in 0..64 {
                x = splitmix(x);
                self.short.push(x >> 40);
            }
            self.short.sort_unstable();
            x ^= self.short[31];
        }
        let t1 = Instant::now();
        // Memory leg: dependent reads and writes scattered over the 8 MB.
        let mask = (SCATTER_WORDS - 1) as u64;
        let mut i = (x & mask) as usize;
        for _ in 0..65_000 {
            let v = self.scatter[i];
            self.scatter[i] = v.wrapping_add(x);
            x = splitmix(x ^ v);
            i = (x & mask) as usize;
        }
        self.state = std::hint::black_box(x);
        let t2 = Instant::now();
        [(t1 - t0).as_secs_f64() * 1e3, (t2 - t1).as_secs_f64() * 1e3]
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed from a run seed and a stream index.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix(splitmix(seed) ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// One timed part: the wall the clock read, when it ran, and — once
/// [`PartClock::finish`] has looked at the slices around it — the wall at
/// nominal host speed.
#[derive(Debug, Clone)]
pub struct PartRecord {
    /// What ran.
    pub name: &'static str,
    /// Start, s since the clock's epoch.
    pub start_s: f64,
    /// Wall as the clock read it, s.
    pub raw_s: f64,
    /// Median walls of the slice legs around the part, ms.
    pub legs_ms: [f64; 2],
    /// `raw_s × Π (nominal leg ÷ leg)^exponent`, s.
    pub scaled_s: f64,
}

/// How far around a part a slice still speaks for it, s. The host's slow
/// state lasts seconds to minutes, so slices this close saw the same
/// state; taking their median rather than the two adjacent readings
/// keeps a single slice's own jitter (a few %) out of the scaled wall.
const SLICE_WINDOW_S: f64 = 1.0;

/// A part at least this long is followed by three slices instead of one.
const LONG_PART_S: f64 = 0.4;

/// One slice reading.
#[derive(Debug, Clone, Copy)]
pub struct SliceRecord {
    /// Midpoint, s since the clock's epoch.
    pub at_s: f64,
    /// Walls of the compute and memory legs, ms.
    pub legs_ms: [f64; 2],
}

/// Times parts between reference slices. The clock is stopped while a
/// slice runs, so slices cost run time but never measured time.
pub struct PartClock {
    slice: Slice,
    exponents: [f64; 2],
    epoch: Instant,
    /// Every part timed so far, in order (scaled by `finish`).
    pub parts: Vec<PartRecord>,
    /// Every slice reading, in order.
    pub slices: Vec<SliceRecord>,
}

impl PartClock {
    /// A clock scaling by `(nominal ÷ leg)^exponent` per slice leg.
    pub fn new(exponents: [f64; 2]) -> PartClock {
        let mut slice = Slice::new();
        // First touch and branch-predictor warm-up.
        slice.run();
        PartClock {
            slice,
            exponents,
            epoch: Instant::now(),
            parts: Vec::new(),
            slices: Vec::new(),
        }
    }

    fn take_slices(&mut self, count: usize) {
        for _ in 0..count {
            let start = self.epoch.elapsed().as_secs_f64();
            let legs_ms = self.slice.run();
            self.slices.push(SliceRecord {
                at_s: start + (legs_ms[0] + legs_ms[1]) / 2e3,
                legs_ms,
            });
        }
    }

    /// Slices owed before the next part (or the end): three ahead of the
    /// first part and after a long one, which has few neighbours inside
    /// the window, otherwise one — the slice before a part is also the
    /// slice after the part before it.
    fn slices_due(&self) -> usize {
        match self.parts.last() {
            Some(p) if p.raw_s < LONG_PART_S => 1,
            _ => 3,
        }
    }

    /// Times `work` as one part; returns its result.
    pub fn part<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        self.take_slices(self.slices_due());
        let start_s = self.epoch.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let out = work();
        let raw_s = t0.elapsed().as_secs_f64();
        self.parts.push(PartRecord {
            name,
            start_s,
            raw_s,
            legs_ms: NOMINAL_LEG_MS,
            scaled_s: raw_s,
        });
        out
    }

    /// Times `work` as more of part `index`: whatever ran since that part
    /// stopped stays off its clock, and no slice is taken for it.
    pub fn resume_part<T>(&mut self, index: usize, work: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = work();
        let part = &mut self.parts[index];
        part.raw_s += t0.elapsed().as_secs_f64();
        part.scaled_s = part.raw_s;
        out
    }

    /// Scales every part by the medians of the slice legs within
    /// [`SLICE_WINDOW_S`] of it, after the slices the last part is still
    /// owed. Call once, when no more parts will be timed.
    pub fn finish(&mut self) {
        self.take_slices(self.slices_due());
        for p in &mut self.parts {
            let (from, to) = (
                p.start_s - SLICE_WINDOW_S,
                p.start_s + p.raw_s + SLICE_WINDOW_S,
            );
            let near: Vec<&SliceRecord> = self
                .slices
                .iter()
                .filter(|s| (from..=to).contains(&s.at_s))
                .collect();
            if near.is_empty() {
                continue;
            }
            p.scaled_s = p.raw_s;
            for (leg, nominal_ms) in NOMINAL_LEG_MS.iter().enumerate() {
                let walls: Vec<f64> = near.iter().map(|s| s.legs_ms[leg]).collect();
                p.legs_ms[leg] = median(&walls);
                p.scaled_s *= (nominal_ms / p.legs_ms[leg]).powf(self.exponents[leg]);
            }
        }
    }

    /// Σ raw walls of parts `indices`.
    pub fn raw_of(&self, indices: &[usize]) -> f64 {
        indices.iter().map(|&i| self.parts[i].raw_s).sum()
    }

    /// Σ scaled walls of parts `indices` (after [`PartClock::finish`]).
    pub fn scaled_of(&self, indices: &[usize]) -> f64 {
        indices.iter().map(|&i| self.parts[i].scaled_s).sum()
    }

    /// Scaled wall of a typical pass over the same work: `passes` list
    /// the parts of each pass, all of one shape; each part position is
    /// taken at its median over the passes, and the positions are summed.
    /// The host's slow bursts last from tens of milliseconds to a second
    /// or two, so one spoils a few parts of a repetition, not all of them:
    /// the median per position drops those samples, where the median of
    /// whole-repetition walls would keep every repetition a burst touched.
    pub fn typical_of(&self, passes: &[Vec<usize>]) -> f64 {
        let Some(first) = passes.first() else {
            return 0.0;
        };
        assert!(
            passes.iter().all(|p| p.len() == first.len()),
            "passes over the same work have the same parts"
        );
        (0..first.len())
            .map(|k| {
                let walls: Vec<f64> = passes.iter().map(|p| self.parts[p[k]].scaled_s).collect();
                median(&walls)
            })
            .sum()
    }
}

/// `VmHWM` of this process in MB (0 where /proc is unreadable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the scheduler will give this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// so spreads here read the same as the pipeline's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let q = |i: usize| {
                // Position i·(n+1)/4 in 1-based ranks, clamped into the data.
                let pos = i as f64 * (n as f64 + 1.0) / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + frac * (v[j] - v[j - 1])
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
