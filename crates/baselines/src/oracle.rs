//! The §5 and §6 reference oracles: the paper's formulas evaluated
//! literally, once per call, with nothing compiled or cached. The engines
//! run compiled forms of the same formulas (`qosc_core::CompiledRequest`
//! for §6, `qosc_core::Formulator` and its bundle plans for §5). These
//! oracles are what the `compiled_props` and `formulation_props` property
//! tests pin those forms to, and the baseline legs of the B1/B2 benches.
//!
//! * [`Evaluator`] — eqs. 2–5 per proposal, walking the spec for every
//!   weight, normaliser and Quality-Index position.
//! * [`formulate_reference`] — the §5 degradation as a per-step argmin
//!   scan over every task × attribute. It asks the reward model for each
//!   penalty it compares and rebuilds the quality vector at every step.

use std::cmp::Ordering;

use qosc_core::{DifMode, EvalConfig, Formulated, FormulationError, Inadmissible, RewardModel};
use qosc_resources::{AdmissionControl, DemandModel, ResourceVector};
use qosc_spec::{QosSpec, ResolvedAttrPref, ResolvedRequest, Value};

/// The §6 distance evaluator (stateless; all inputs passed per call).
#[derive(Debug, Clone, Copy, Default)]
pub struct Evaluator {
    /// Configuration knobs.
    pub config: EvalConfig,
}

impl Evaluator {
    /// Creates an evaluator with the given knobs.
    pub fn new(config: EvalConfig) -> Self {
        Self { config }
    }

    /// Checks admissibility: the proposal must offer, for every requested
    /// attribute (in [`ResolvedRequest::iter_attrs`] order), a value from
    /// the user's acceptable ladder.
    pub fn admissible(
        &self,
        request: &ResolvedRequest,
        offered: &[Value],
    ) -> Result<(), Inadmissible> {
        if offered.len() != request.attr_count() {
            return Err(Inadmissible::WrongShape);
        }
        for (((k, _i), pref), v) in request.iter_attrs().zip(offered.iter()) {
            if !pref.levels.contains(v) {
                return Err(Inadmissible::UnacceptableValue {
                    dimension: request.dimensions[k].name.clone(),
                    attribute: pref.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Eq. 5 for one attribute.
    fn dif(&self, spec: &QosSpec, pref: &ResolvedAttrPref, offered: &Value) -> f64 {
        let attr = spec
            .attribute_at(pref.path)
            .expect("resolved request paths are in-bounds");
        let preferred = &pref.levels[0];
        let raw = if attr.domain.is_discrete() {
            let len = attr.domain.len().unwrap_or(1);
            if len <= 1 {
                0.0
            } else {
                let pp = attr.domain.position(offered).unwrap_or(0) as f64;
                let pr = attr.domain.position(preferred).unwrap_or(0) as f64;
                (pp - pr) / (len - 1) as f64
            }
        } else {
            let span = attr.domain.span().unwrap_or(0.0);
            if span <= 0.0 {
                0.0
            } else {
                let pv = offered.as_f64().unwrap_or(0.0);
                let rv = preferred.as_f64().unwrap_or(0.0);
                (pv - rv) / span
            }
        };
        match self.config.dif {
            DifMode::Absolute => raw.abs(),
            DifMode::SignedPaperLiteral => raw,
        }
    }

    /// Eq. 2: the full weighted distance of an *admissible* proposal.
    /// `offered` is one value per requested attribute in
    /// [`ResolvedRequest::iter_attrs`] order.
    ///
    /// Call [`Evaluator::admissible`] first; this method assumes shape
    /// validity (it will still compute a score for unacceptable values,
    /// which the organizer never does).
    pub fn distance(&self, spec: &QosSpec, request: &ResolvedRequest, offered: &[Value]) -> f64 {
        let n = request.dim_count();
        let mut total = 0.0;
        let mut flat = 0usize;
        for (k, dim) in request.dimensions.iter().enumerate() {
            let wk = self.config.weights.weight(k, n);
            let attrk = dim.attributes.len();
            let mut dist_k = 0.0;
            for (i, pref) in dim.attributes.iter().enumerate() {
                let wi = self.config.weights.weight(i, attrk);
                let offered_v = &offered[flat];
                dist_k += wi * self.dif(spec, pref, offered_v);
                flat += 1;
            }
            total += wk * dist_k;
        }
        total
    }

    /// Distance of the proposal expressed as level indexes into the
    /// request's ladders. `None` when the vector's length is not the
    /// request's attribute count or an index is out of its ladder.
    pub fn distance_of_levels(
        &self,
        spec: &QosSpec,
        request: &ResolvedRequest,
        level_indexes: &[usize],
    ) -> Option<f64> {
        if level_indexes.len() != request.attr_count() {
            return None;
        }
        let offered: Vec<Value> = request
            .iter_attrs()
            .zip(level_indexes)
            .map(|((_, a), &i)| a.levels.get(i).cloned())
            .collect::<Option<_>>()?;
        Some(self.distance(spec, request, &offered))
    }
}

/// The §5 heuristic as the paper states it: start from the preferred
/// levels and, while the tasks are not schedulable and
/// dependency-consistent on `admission`, degrade the task attribute whose
/// eq. 1 reward decrease is smallest. Each task is `(spec, resolved
/// request, demand model)`.
///
/// The scan keeps the first strict minimum under `f64::total_cmp`, so a
/// NaN from a custom [`RewardModel`] orders deterministically instead of
/// silently skipping or retaining candidates. For a deterministic reward
/// model the outcome is bit-identical to `qosc_core::Formulator`'s.
pub fn formulate_reference(
    tasks: &[(&QosSpec, &ResolvedRequest, &dyn DemandModel)],
    admission: &AdmissionControl,
    reward_model: &dyn RewardModel,
) -> Result<Formulated, FormulationError> {
    // Per task, per requested attribute in `iter_attrs` order: the
    // arguments eq. 1's penalty is asked at, bar the level.
    let shapes: Vec<Vec<[usize; 5]>> = tasks
        .iter()
        .map(|&(_, request, _)| {
            request
                .iter_attrs()
                .map(|((k, i), pref)| {
                    let attr_count = request.dimensions[k].attributes.len();
                    [k, request.dim_count(), i, attr_count, pref.levels.len()]
                })
                .collect()
        })
        .collect();
    let penalty = |ti: usize, flat: usize, lvl: usize| {
        let [k, dims, i, attrs, len] = shapes[ti][flat];
        reward_model.penalty(k, dims, i, attrs, lvl, len)
    };
    // Eq. 1: `n − Σ penalty` over the attributes below their preferred level.
    let reward = |ti: usize, lv: &[usize]| {
        let mut penalty_sum = 0.0;
        for (flat, &lvl) in lv.iter().enumerate() {
            if lvl > 0 {
                penalty_sum += penalty(ti, flat, lvl);
            }
        }
        lv.len() as f64 - penalty_sum
    };
    let eval_task = |ti: usize, lv: &[usize]| {
        let (spec, request, demand) = tasks[ti];
        let qv = request
            .quality_vector(spec, lv)
            .expect("levels are kept within ladder bounds");
        let ok = qv.satisfies_dependencies(spec);
        (demand.demand(spec, &qv), ok)
    };

    let mut levels: Vec<Vec<usize>> = shapes.iter().map(|s| vec![0usize; s.len()]).collect();
    let mut degradations = 0u32;
    let mut demands: Vec<ResourceVector> = Vec::with_capacity(tasks.len());
    let mut deps_ok_v: Vec<bool> = Vec::with_capacity(tasks.len());
    let mut total = ResourceVector::ZERO;
    for (ti, lv) in levels.iter().enumerate() {
        let (d, ok) = eval_task(ti, lv);
        total += d;
        demands.push(d);
        deps_ok_v.push(ok);
    }

    loop {
        let deps_ok = deps_ok_v.iter().all(|&x| x);
        if deps_ok && admission.schedulable_total(&total, tasks.len()) {
            let reward = levels
                .iter()
                .enumerate()
                .map(|(ti, lv)| reward(ti, lv))
                .sum();
            return Ok(Formulated {
                levels,
                demands,
                reward,
                degradations,
            });
        }

        let mut best: Option<(usize, usize, f64)> = None; // (task, flat attr, decrease)
        for (ti, shape) in shapes.iter().enumerate() {
            for (flat, &[.., len]) in shape.iter().enumerate() {
                let lvl = levels[ti][flat];
                if lvl + 1 >= len {
                    continue; // already at Q_kn
                }
                let decrease = penalty(ti, flat, lvl + 1) - penalty(ti, flat, lvl);
                let better = match best {
                    None => true,
                    Some((_, _, d)) => decrease.total_cmp(&d) == Ordering::Less,
                };
                if better {
                    best = Some((ti, flat, decrease));
                }
            }
        }
        match best {
            Some((ti, flat, _)) => {
                levels[ti][flat] += 1;
                degradations += 1;
                total -= demands[ti];
                let (d, ok) = eval_task(ti, &levels[ti]);
                total += d;
                demands[ti] = d;
                deps_ok_v[ti] = ok;
            }
            None => return Err(FormulationError::Infeasible),
        }
    }
}
