//! Open-loop load driving.
//!
//! A [`LoadPlan`] fixes everything about an offered load before the run
//! starts: the arrival instants (pre-sampled from a
//! [`PoissonArrivals`] stream), the organizer pool the requests rotate
//! through, and the application template. The
//! [`LoadDriver`] then submits *all* arrivals up front and lets the
//! runtime execute — arrivals fire at their sampled instants whether or
//! not earlier negotiations have finished, which is what makes the load
//! open-loop: a saturated system falls behind instead of silently
//! throttling the generator, so the measured sustained rate and latency
//! tail reflect the engine, not the harness.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_core::{NegoEvent, Pid, Runtime};
use qosc_netsim::{SimDuration, SimTime};
use qosc_workloads::AppTemplate;

use crate::arrivals::PoissonArrivals;
use crate::histogram::LatencyHistogram;

/// A fully pre-sampled offered load: every arrival instant is fixed
/// before the runtime starts, so the generator cannot react to (or be
/// slowed by) the system under test.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Arrival instants, in any order (submission sorts logically via
    /// the runtime's event queue).
    pub arrivals: Vec<SimTime>,
    /// Organizer pool; arrival `i` is submitted at `organizers[i % len]`.
    pub organizers: Vec<Pid>,
    /// Application template each request instantiates.
    pub template: AppTemplate,
    /// Tasks per submitted service.
    pub tasks_per_service: usize,
    /// Seed for per-request payload sampling.
    pub seed: u64,
    /// The sampling window the arrivals were drawn over — offered and
    /// sustained rates are normalised by this, not by the drain.
    pub window: SimDuration,
    /// Extra time after the window closes for in-flight negotiations to
    /// settle before the run is cut off.
    pub drain: SimDuration,
}

impl LoadPlan {
    /// Samples a plan from a Poisson stream over `[0, window)`.
    pub fn sampled(
        process: &PoissonArrivals,
        window: SimDuration,
        organizers: Vec<Pid>,
        template: AppTemplate,
        tasks_per_service: usize,
        seed: u64,
    ) -> LoadPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA881_0A11);
        let arrivals = process.sample_until(SimTime::ZERO, SimTime::ZERO + window, &mut rng);
        LoadPlan {
            arrivals,
            organizers,
            template,
            tasks_per_service,
            seed,
            window,
            drain: SimDuration::secs(5),
        }
    }
}

/// Outcome of driving one [`LoadPlan`] against a runtime.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests submitted (one per arrival).
    pub submitted: usize,
    /// Negotiations that formed a full coalition.
    pub formed: usize,
    /// Negotiations that ended with unassigned tasks.
    pub incomplete: usize,
    /// The plan's sampling window (rate normaliser).
    pub window: SimDuration,
    /// Formation-latency sketch over formed negotiations.
    pub latency: LatencyHistogram,
    /// Messages the runtime sent during this run.
    pub messages: u64,
}

impl LoadReport {
    /// Negotiations that reached a terminal outcome before cut-off.
    pub fn settled(&self) -> usize {
        self.formed + self.incomplete
    }

    /// Fraction of submitted requests that formed (0 when none
    /// submitted). Requests still in flight at cut-off count against it
    /// — deliberately, since a saturated system's backlog is the signal.
    pub fn formed_ratio(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.formed as f64 / self.submitted as f64
        }
    }

    /// Formed coalitions per second of window.
    pub fn sustained_per_s(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs > 0.0 {
            self.formed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Submits a plan's arrivals and harvests outcome counts and latencies.
#[derive(Debug, Clone)]
pub struct LoadDriver<'a> {
    plan: &'a LoadPlan,
}

impl<'a> LoadDriver<'a> {
    /// A driver for `plan`.
    pub fn new(plan: &'a LoadPlan) -> Self {
        LoadDriver { plan }
    }

    /// Drives the plan: submits every arrival up front (true open loop),
    /// runs the runtime to window + drain, and scans the event log
    /// emitted during this call.
    ///
    /// The runtime may carry state and events from earlier runs; only
    /// events logged by this call are counted.
    pub fn run(&self, rt: &mut dyn Runtime) -> LoadReport {
        let plan = self.plan;
        assert!(
            !plan.organizers.is_empty() || plan.arrivals.is_empty(),
            "load plan with arrivals needs at least one organizer"
        );
        let events_before = rt.events().len();
        let messages_before = rt.messages_sent();
        let mut rng = ChaCha8Rng::seed_from_u64(plan.seed ^ 0x10AD_10AD);
        let mut last = SimTime::ZERO;
        for (i, &at) in plan.arrivals.iter().enumerate() {
            let org = plan.organizers[i % plan.organizers.len()];
            let svc = plan
                .template
                .service(format!("load-{i}"), plan.tasks_per_service, &mut rng);
            rt.submit(org, svc, at)
                .expect("load plan organizers must be registered in the runtime");
            last = last.max(at);
        }
        let deadline = last.max(SimTime::ZERO + plan.window) + plan.drain;
        rt.run(deadline);

        let mut report = LoadReport {
            submitted: plan.arrivals.len(),
            formed: 0,
            incomplete: 0,
            window: plan.window,
            latency: LatencyHistogram::new(),
            messages: rt.messages_sent().saturating_sub(messages_before),
        };
        for logged in &rt.events()[events_before..] {
            match &logged.event {
                NegoEvent::Formed { metrics, .. } => {
                    report.formed += 1;
                    if let Some(lat) = metrics.formation_latency() {
                        report.latency.record(lat);
                    }
                }
                NegoEvent::FormationIncomplete { .. } => report.incomplete += 1,
                _ => {}
            }
        }
        report
    }
}
