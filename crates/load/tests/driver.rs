//! End-to-end load-driver behaviour against real scenario runtimes:
//! the open-loop accounting adds up, and the batched Direct backend
//! (same-instant CFP coalescing + warm-started provider formulation)
//! reaches the same aggregate outcomes as the plain Direct backend on
//! the same pre-sampled plan.

use qosc_load::{LoadDriver, LoadPlan, PoissonArrivals};
use qosc_netsim::SimDuration;
use qosc_workloads::{AppTemplate, Backend, ScenarioConfig};

fn plan(seed: u64) -> LoadPlan {
    LoadPlan::sampled(
        &PoissonArrivals::new(1.5),
        SimDuration::secs(20),
        (0..6).collect(),
        AppTemplate::Surveillance,
        2,
        seed,
    )
}

fn drive(backend: Backend, seed: u64) -> qosc_load::LoadReport {
    let config = ScenarioConfig::dense(24, 0xD21_5EED ^ seed);
    let mut rt = config.build_backend(backend);
    LoadDriver::new(&plan(seed)).run(rt.as_mut())
}

#[test]
fn open_loop_accounting_adds_up() {
    let report = drive(Backend::Direct, 3);
    assert!(report.submitted > 10, "plan too thin: {report:?}");
    assert!(report.settled() <= report.submitted);
    assert!(report.formed > 0, "nothing formed: {report:?}");
    assert_eq!(report.latency.count() as usize, report.formed);
    assert!(report.messages > 0);
    assert!(report.formed_ratio() > 0.0 && report.formed_ratio() <= 1.0);
    assert!(report.sustained_per_s() > 0.0);
    let p50 = report.latency.quantile(0.5).expect("formed > 0");
    let p99 = report.latency.quantile(0.99).expect("formed > 0");
    assert!(p50 <= p99);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = drive(Backend::Direct, 7);
    let b = drive(Backend::Direct, 7);
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.formed, b.formed);
    assert_eq!(a.incomplete, b.incomplete);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.latency.quantile(0.9), b.latency.quantile(0.9));
}

/// CFP batching is an engine-side optimisation; driven with the same
/// plan it must reach the same aggregate outcomes as unbatched Direct.
/// (Per-message traces may interleave differently inside one virtual
/// instant; outcomes and latency quantiles may not.)
#[test]
fn batched_backend_matches_direct_outcomes() {
    for seed in [1u64, 11, 42] {
        let direct = drive(Backend::Direct, seed);
        let batched = drive(Backend::DirectBatched, seed);
        assert_eq!(direct.submitted, batched.submitted, "seed {seed}");
        assert_eq!(direct.formed, batched.formed, "seed {seed}");
        assert_eq!(direct.incomplete, batched.incomplete, "seed {seed}");
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(
                direct.latency.quantile(q),
                batched.latency.quantile(q),
                "seed {seed}, q {q}"
            );
        }
    }
}

/// An empty plan, and a zero window sampled at any rate (hostile ones
/// included), submit nothing and report zeros.
#[test]
fn empty_plan_yields_an_empty_report() {
    let empty = LoadPlan {
        arrivals: Vec::new(),
        ..plan(0)
    };
    let zero_windows = [1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300].map(|rate| {
        LoadPlan::sampled(
            &PoissonArrivals::new(rate),
            SimDuration::ZERO,
            (0..6).collect(),
            AppTemplate::Surveillance,
            2,
            0,
        )
    });
    for plan in std::iter::once(&empty).chain(&zero_windows) {
        assert!(plan.arrivals.is_empty());
        let config = ScenarioConfig::dense(8, 99);
        let mut rt = config.build_backend(Backend::Direct);
        let report = LoadDriver::new(plan).run(rt.as_mut());
        assert_eq!(report.submitted, 0);
        assert_eq!(report.settled(), 0);
        assert_eq!(report.formed_ratio(), 0.0);
        assert_eq!(report.sustained_per_s(), 0.0);
        assert!(report.latency.is_empty());
    }
}
