//! The untraced pass: set-up rounds, then timed repetitions of identical
//! work, each checked against the first round's digest.

use std::time::Instant;

use crate::host::{self, derive_seed, PartClock};
use crate::json::Json;
use crate::sut::{self, GossipWorld, NegoInputs, Outcomes};
use crate::workloads::{Kind, Workload, END_TO_END};

/// A metric value on its way to the output.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one pass of one workload produced.
pub struct PassResult {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted over the timed repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The pass's metrics, in catalogue order.
    pub readings: Vec<Reading>,
    /// Human-readable lines: failed checks first, then details.
    pub notes: Vec<String>,
    /// Machine-readable detail for `--out`.
    pub detail: Json,
}

/// Inputs of a workload, generated once from the seed in the set-up
/// phase and reused by every repetition.
pub enum Inputs {
    /// One entry per scenario of a negotiation repetition.
    Nego(Vec<NegoInputs>),
    /// Gossip placement seed.
    Gossip(u64),
    /// Proof input seed.
    Proof(u64),
}

impl Inputs {
    /// Generates the workload's inputs from the run seed.
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        match workload.kind {
            Kind::Nego { size, scenarios } => Inputs::Nego(
                (0..scenarios as u64)
                    .map(|k| NegoInputs::generate(size, derive_seed(seed, k)))
                    .collect(),
            ),
            Kind::Gossip { .. } => Inputs::Gossip(derive_seed(seed, 0)),
            Kind::Proof { .. } => Inputs::Proof(derive_seed(seed, 0)),
        }
    }
}

/// What one repetition did.
#[derive(Debug, Clone, Default)]
pub struct Repetition {
    /// Operations attempted (negotiations, 1 gossip window, 1 proof).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Units of work for `ops_per_s` (negotiations, events, proofs).
    pub ops: f64,
    /// Digest of the simulated state the repetition ended in.
    pub digest: u64,
    /// Failed checks inside the repetition.
    pub errors: Vec<String>,
    /// Simulated outcomes (negotiation workloads).
    pub outcomes: Outcomes,
    /// The clock's parts that timed the repetition's work, in order: the
    /// same shape in every pass over the same inputs.
    pub work: Vec<usize>,
    /// The parts that timed the checks (set-up rounds only).
    pub checks: Vec<usize>,
}

/// Runs one repetition, its work timed as parts of `clock`; with
/// `time_checks` the digest/verify/outcome work is timed too, as parts of
/// its own (a set-up round times everything), otherwise it runs off the
/// clock.
pub fn repetition(
    workload: &Workload,
    inputs: &Inputs,
    clock: &mut PartClock,
    time_checks: bool,
) -> Repetition {
    let mut rep = Repetition::default();
    match (&workload.kind, inputs) {
        (Kind::Nego { .. }, Inputs::Nego(scenarios)) => {
            let mut h = 0u64;
            for (k, inputs) in scenarios.iter().enumerate() {
                // A scenario's life is one part — build, drive, drop, what
                // every cell of a sweep pays — with the checks between
                // drive and drop off its clock. A churn build is 14 ms and
                // a drop 57 ms: parts of their own, each with its 20 ms
                // slice, would cost more run time than they measure.
                let (world, report) = clock.part("scenario", || {
                    let mut world = inputs.build();
                    let report = sut::drive(inputs, &mut world);
                    (world, report)
                });
                let scenario = clock.parts.len() - 1;
                rep.work.push(scenario);
                let check = |rep: &mut Repetition| {
                    let digest = sut::world_digest(&world, inputs.nodes());
                    if let Err(e) = sut::verify_world(&world, inputs.nodes()) {
                        rep.errors.push(format!("scenario {k}: {e}"));
                    }
                    let out = sut::outcomes(inputs, &world);
                    if out.submitted != report.submitted {
                        rep.errors.push(format!(
                            "scenario {k}: {} submitted, {} in the report",
                            out.submitted, report.submitted
                        ));
                    }
                    rep.outcomes.merge(&out);
                    digest
                };
                let digest = if time_checks {
                    let digest = clock.part("check", || check(&mut rep));
                    rep.checks.push(clock.parts.len() - 1);
                    digest
                } else {
                    check(&mut rep)
                };
                h = derive_seed(h ^ digest, k as u64);
                clock.resume_part(scenario, || drop(world));
            }
            rep.digest = h;
            rep.attempted = rep.outcomes.submitted as u64;
            rep.failed = rep.outcomes.without_verdict() as u64;
            rep.ops = rep.outcomes.submitted as f64;
        }
        (
            Kind::Gossip {
                nodes,
                window_us,
                chunks,
            },
            Inputs::Gossip(seed),
        ) => {
            let first = clock.parts.len();
            let mut world = clock.part("build", || GossipWorld::build(*nodes, *seed));
            let mut events = 0u64;
            for c in 1..=*chunks {
                let deadline = window_us * c / chunks;
                events += clock.part("run", || world.run_until(deadline));
            }
            rep.work.extend(first..clock.parts.len());
            // The digest covers every network counter; the event count is
            // hashed in so a repetition that simulated something else
            // cannot pass.
            rep.digest = derive_seed(world.digest(), events);
            rep.attempted = 1;
            rep.ops = events as f64;
        }
        (Kind::Proof { drops }, Inputs::Proof(seed)) => {
            let proof = clock.part("prove", || sut::prove_2x2(*seed, *drops));
            rep.work.push(clock.parts.len() - 1);
            rep.attempted = 1;
            rep.failed = u64::from(!proof.verified);
            rep.ops = 1.0;
            rep.digest = derive_seed(
                derive_seed(proof.transitions, proof.distinct_states),
                proof.quiescent_states ^ (proof.max_depth << 32),
            );
        }
        _ => unreachable!("inputs are generated from the workload"),
    }
    rep
}

/// Rounds of the set-up phase, and fewest timed repetitions.
const MIN_PASSES: usize = 3;

/// The untraced pass of `workload`: end-to-end metrics. `seconds` is the
/// budget of measured wall, set-up rounds and timed repetitions together
/// (the reference slices run off the clock and come on top).
pub fn untraced(workload: &Workload, seed: u64, seconds: f64, started: Instant) -> PassResult {
    let mut clock = PartClock::new(workload.speed_exponents);
    let mut notes = Vec::new();
    let mut errors = Vec::new();

    // Set-up phase, several rounds: from the seed to a checked first
    // repetition (inputs, world build, one repetition, every check). The
    // first round runs on a cold heap and is the run's reference.
    let mut round_works = Vec::new();
    let mut round_extras = Vec::new();
    let mut reference: Option<(Inputs, Repetition)> = None;
    let mut measured_raw = 0.0;
    for round in 0..MIN_PASSES {
        let inputs = clock.part("inputs", || Inputs::generate(workload, seed));
        let mut extras = vec![clock.parts.len() - 1];
        let mut rep = repetition(workload, &inputs, &mut clock, true);
        extras.append(&mut rep.checks);
        measured_raw += clock.raw_of(&extras) + clock.raw_of(&rep.work);
        round_extras.push(extras);
        round_works.push(std::mem::take(&mut rep.work));
        errors.extend(
            rep.errors
                .iter()
                .map(|e| format!("set-up round {round}: {e}")),
        );
        match &reference {
            None => reference = Some((inputs, rep)),
            Some((_, first)) => {
                if rep.digest != first.digest || rep.ops != first.ops {
                    errors.push(format!(
                        "set-up round {round}: digest {:016x} / {} ops, the first round had {:016x} / {}",
                        rep.digest, rep.ops, first.digest, first.ops
                    ));
                }
            }
        }
    }
    let (inputs, warm) = reference.expect("at least one set-up round");
    let setup_wall_s = started.elapsed().as_secs_f64();

    // Timed repetitions: identical work, same seed, until the budget of
    // measured wall (as the clock read it) is spent.
    let mut rep_works = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    while rep_works.len() < MIN_PASSES || measured_raw < seconds {
        let mut rep = repetition(workload, &inputs, &mut clock, false);
        let n = rep_works.len();
        errors.extend(rep.errors.iter().map(|e| format!("repetition {n}: {e}")));
        let whole_failed = rep.digest != warm.digest || rep.ops != warm.ops;
        if whole_failed {
            errors.push(format!(
                "repetition {n}: digest {:016x} / {} ops, the set-up had {:016x} / {}",
                rep.digest, rep.ops, warm.digest, warm.ops
            ));
        }
        attempted += rep.attempted;
        failed += if whole_failed {
            rep.attempted
        } else {
            rep.failed
        };
        measured_raw += clock.raw_of(&rep.work);
        rep_works.push(std::mem::take(&mut rep.work));
    }
    clock.finish();

    // A round does a repetition's work between generating the inputs and
    // checking the result, on the same inputs: the work's parts are
    // estimated from every pass, rounds and repetitions alike, and only
    // the inputs and checks from the rounds alone.
    let passes: Vec<Vec<usize>> = round_works.iter().chain(&rep_works).cloned().collect();
    let typical_s = clock.typical_of(&passes);
    let extras_s = clock.typical_of(&round_extras);
    let ops_per_s = warm.ops / typical_s;
    let setup_s = extras_s + typical_s;
    let scaled: Vec<f64> = rep_works.iter().map(|w| clock.scaled_of(w)).collect();
    let raw: Vec<f64> = rep_works.iter().map(|w| clock.raw_of(w)).collect();
    let (q1, q2, q3) = host::quartiles(&scaled);
    let rounds = || round_works.iter().zip(&round_extras);
    let setup_scaled: Vec<f64> = rounds()
        .map(|(w, x)| clock.scaled_of(w) + clock.scaled_of(x))
        .collect();
    let setup_raw: Vec<f64> = rounds()
        .map(|(w, x)| clock.raw_of(w) + clock.raw_of(x))
        .collect();
    let peak_rss_mb = host::peak_rss_mb() - host::SLICE_WORKING_SET_MB;
    let values = [ops_per_s, peak_rss_mb, setup_s];
    let readings = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Reading {
            name: def.name,
            value,
        })
        .collect();

    notes.push(format!(
        "ops_per_s = {} ops / {typical_s:.6} s, the scaled wall of a typical repetition (every part at its median over {} passes: {} set-up rounds and {} timed repetitions); whole timed repetitions, scaled: q1 {q1:.6} s, median {q2:.6} s, q3 {q3:.6} s; as the clock read them: median {:.6} s",
        warm.ops,
        passes.len(),
        round_works.len(),
        rep_works.len(),
        host::median(&raw),
    ));
    notes.push(format!(
        "setup_s = {typical_s:.6} s, a typical repetition, + {extras_s:.6} s, generating the inputs and checking the result (every part at its median over the rounds); whole rounds, scaled {setup_scaled:.6?} s, as the clock read them {setup_raw:.6?} s; first timed repetition {setup_wall_s:.6} s after process start, slices included"
    ));
    for (leg, name) in ["compute", "memory"].iter().enumerate() {
        let walls: Vec<f64> = clock.slices.iter().map(|s| s.legs_ms[leg]).collect();
        let (s1, s2, s3) = host::quartiles(&walls);
        notes.push(format!(
            "reference slice, {name} leg over {} runs: q1 {s1:.4} ms, median {s2:.4} ms, q3 {s3:.4} ms (nominal {} ms, exponent {})",
            walls.len(),
            host::NOMINAL_LEG_MS[leg],
            workload.speed_exponents[leg]
        ));
    }
    if warm.outcomes.submitted > 0 {
        notes.push(format!(
            "per repetition: {} negotiations, {} formed, {} given up, {} without a verdict, digest {:016x}",
            warm.outcomes.submitted,
            warm.outcomes.formed,
            warm.outcomes.given_up,
            warm.outcomes.without_verdict(),
            warm.digest
        ));
    } else {
        notes.push(format!(
            "per repetition: {} ops, digest {:016x}",
            warm.ops, warm.digest
        ));
    }

    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    let indices = |lists: &[Vec<usize>]| {
        Json::Arr(
            lists
                .iter()
                .map(|l| Json::Arr(l.iter().map(|i| Json::Num(*i as f64)).collect()))
                .collect(),
        )
    };
    let detail = Json::obj([
        ("speed_exponents", nums(&workload.speed_exponents)),
        ("nominal_leg_ms", nums(&host::NOMINAL_LEG_MS)),
        ("digest", Json::str(format!("{:016x}", warm.digest))),
        ("ops_per_repetition", Json::Num(warm.ops)),
        ("typical_repetition_s", Json::Num(typical_s)),
        ("pass_parts", indices(&passes)),
        ("round_extra_parts", indices(&round_extras)),
        ("setup_scaled_s", nums(&setup_scaled)),
        ("setup_raw_s", nums(&setup_raw)),
        ("repetition_scaled_s", nums(&scaled)),
        ("repetition_raw_s", nums(&raw)),
        (
            "part_columns",
            Json::Arr(
                [
                    "name",
                    "start_s",
                    "raw_s",
                    "compute_ms",
                    "memory_ms",
                    "scaled_s",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        (
            "parts",
            Json::Arr(
                clock
                    .parts
                    .iter()
                    .map(|p| {
                        Json::Arr(vec![
                            Json::str(p.name),
                            Json::Num(p.start_s),
                            Json::Num(p.raw_s),
                            Json::Num(p.legs_ms[0]),
                            Json::Num(p.legs_ms[1]),
                            Json::Num(p.scaled_s),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "slice_columns",
            Json::Arr(["at_s", "compute_ms", "memory_ms"].map(Json::str).to_vec()),
        ),
        (
            "slices",
            Json::Arr(
                clock
                    .slices
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Num(s.at_s),
                            Json::Num(s.legs_ms[0]),
                            Json::Num(s.legs_ms[1]),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    let correct = errors.is_empty();
    errors.extend(notes);
    PassResult {
        correct,
        attempted,
        failed,
        readings,
        notes: errors,
        detail,
    }
}
