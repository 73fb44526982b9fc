//! Compiled, batched proposal evaluation (§6 on the hot path).
//!
//! Scoring a proposal straight from the formulas recomputes, for every
//! proposal, the eq. 3 weight products, the per-domain normalizers and
//! the Quality-Index positions by walking the spec. All of those are
//! functions of the *(spec, request, config)* triple alone, and the
//! negotiation fixes that triple once per resolved request — so a
//! [`CompiledRequest`] hoists them out of the per-proposal loop:
//!
//! * the flat per-attribute weight products `w_k·w_i` (eq. 3 applied at
//!   both ranks);
//! * the domain normalizers — `1/(len−1)` for discrete ladders and
//!   `1/span` for continuous intervals, with the ≤1-level and zero-span
//!   domains compiled to a zero factor (matching the reference guards);
//! * the Quality-Index position table `pos(·)` per discrete domain;
//! * the per-ladder-level score table, so proposals expressed as level
//!   indexes (the protocol's native encoding) price in one lookup per
//!   attribute.
//!
//! [`CompiledRequest::evaluate_batch`] scores a whole slate of proposals
//! against the tables and returns the §6 winner in one call. The
//! per-proposal evaluator that walks the spec is kept as an oracle in
//! `qosc_baselines`; its `compiled_props` integration test pins the two
//! to each other within 1e-12 across random specs, requests and
//! proposals.

use qosc_spec::{Domain, QosSpec, ResolvedRequest, Value};

use crate::evaluation::{DifMode, EvalConfig, Inadmissible};

/// Quality-Index position table: the domain's values in declaration
/// order, specialised by value type. QoS domains are tiny (a handful of
/// levels), so a typed linear probe beats any hashing scheme — hashing a
/// [`Value`] costs more than scanning the whole table.
#[derive(Debug, Clone)]
enum PositionTable {
    /// Integer domain values.
    Int(Vec<i64>),
    /// Float or symbolic domain values.
    Other(Vec<Value>),
}

impl PositionTable {
    /// `pos(v)`, with the reference's `unwrap_or(0)` fallback for values
    /// outside the declaration (and for type mismatches).
    fn position(&self, v: &Value) -> f64 {
        let pos = match (self, v) {
            (PositionTable::Int(d), Value::Int(i)) => d.iter().position(|x| x == i),
            (PositionTable::Int(_), _) => None,
            (PositionTable::Other(d), v) => d.iter().position(|x| x == v),
        };
        pos.unwrap_or(0) as f64
    }
}

/// Compiled eq. 5 state for one attribute's domain.
#[derive(Debug, Clone)]
enum DifTable {
    /// Discrete domain: Quality-Index positions plus `1/(len−1)`.
    Discrete {
        /// `pos(v)` for every declared domain value.
        positions: PositionTable,
        /// `pos(Pref_ki)` — position of the user's preferred value.
        pref_pos: f64,
        /// `1/(len−1)`, or `0.0` when the domain has ≤ 1 level (such a
        /// domain cannot differentiate proposals).
        inv_norm: f64,
    },
    /// Continuous domain: preferred value plus `1/(max−min)`.
    Continuous {
        /// The user's preferred value, as a float.
        pref: f64,
        /// `1/span`, or `0.0` when the interval has zero width.
        inv_span: f64,
    },
}

/// One requested attribute, fully compiled.
#[derive(Debug, Clone)]
struct CompiledAttr {
    /// Dimension name (for [`Inadmissible`] diagnostics).
    dimension: String,
    /// Attribute name (for [`Inadmissible`] diagnostics).
    attribute: String,
    /// `w_k · w_i` — the eq. 3 weight product of the dimension rank and
    /// the attribute rank within the dimension.
    weight: f64,
    /// The user's acceptable ladder, most-preferred first (admissibility).
    ladder: Vec<Value>,
    /// Weighted score contribution per ladder level:
    /// `level_scores[j] = weight · dif(ladder[j])`.
    level_scores: Vec<f64>,
    /// Compiled eq. 5 difference state.
    dif: DifTable,
}

/// A [`ResolvedRequest`] compiled against its [`QosSpec`] for batched
/// evaluation. Build one per resolved request (the organizer does this at
/// `start_service`) and score any number of proposals against it.
#[derive(Debug, Clone)]
pub struct CompiledRequest {
    config: EvalConfig,
    attrs: Vec<CompiledAttr>,
}

impl CompiledRequest {
    /// Compiles `request` (already resolved against `spec`) under the
    /// given evaluation knobs.
    pub fn compile(spec: &QosSpec, request: &ResolvedRequest, config: EvalConfig) -> Self {
        let n = request.dim_count();
        let mut attrs = Vec::with_capacity(request.attr_count());
        for (k, dim) in request.dimensions.iter().enumerate() {
            let wk = config.weights.weight(k, n);
            let attrk = dim.attributes.len();
            for (i, pref) in dim.attributes.iter().enumerate() {
                let weight = wk * config.weights.weight(i, attrk);
                let attr = spec
                    .attribute_at(pref.path)
                    .expect("resolved request paths are in-bounds");
                let preferred = &pref.levels[0];
                let dif = if attr.domain.is_discrete() {
                    let len = attr.domain.len().unwrap_or(1);
                    let positions = match &attr.domain {
                        Domain::DiscreteInt(v) => PositionTable::Int(v.clone()),
                        d => PositionTable::Other(d.enumerate(0)),
                    };
                    DifTable::Discrete {
                        pref_pos: positions.position(preferred),
                        inv_norm: if len <= 1 {
                            0.0
                        } else {
                            1.0 / (len - 1) as f64
                        },
                        positions,
                    }
                } else {
                    let span = attr.domain.span().unwrap_or(0.0);
                    DifTable::Continuous {
                        pref: preferred.as_f64().unwrap_or(0.0),
                        inv_span: if span <= 0.0 { 0.0 } else { 1.0 / span },
                    }
                };
                let mut compiled = CompiledAttr {
                    dimension: dim.name.clone(),
                    attribute: pref.name.clone(),
                    weight,
                    ladder: pref.levels.clone(),
                    level_scores: Vec::with_capacity(pref.levels.len()),
                    dif,
                };
                compiled.level_scores = pref
                    .levels
                    .iter()
                    .map(|v| compiled.score_one(v, config.dif))
                    .collect();
                attrs.push(compiled);
            }
        }
        Self { config, attrs }
    }

    /// Number of requested attributes (expected proposal width).
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Admissibility (§6): the proposal must offer, for every requested
    /// attribute in `iter_attrs` order, a value from the user's acceptable
    /// ladder. Mirrors the `qosc_baselines::Evaluator` oracle.
    pub fn admissible(&self, offered: &[Value]) -> Result<(), Inadmissible> {
        if offered.len() != self.attrs.len() {
            return Err(Inadmissible::WrongShape);
        }
        for (a, v) in self.attrs.iter().zip(offered.iter()) {
            if !a.ladder.contains(v) {
                return Err(Inadmissible::UnacceptableValue {
                    dimension: a.dimension.clone(),
                    attribute: a.attribute.clone(),
                });
            }
        }
        Ok(())
    }

    /// Eq. 2 distance of one proposal against the compiled tables.
    /// Assumes shape validity (the same contract as the
    /// `qosc_baselines::Evaluator` oracle).
    pub fn distance(&self, offered: &[Value]) -> f64 {
        debug_assert_eq!(offered.len(), self.attrs.len(), "proposal shape");
        self.attrs
            .iter()
            .zip(offered.iter())
            .map(|(a, v)| a.score_one(v, self.config.dif))
            .sum()
    }

    /// Distance of a proposal expressed as level indexes into the
    /// request's ladders — one table lookup per attribute. `None` when
    /// the shape or any index is out of range.
    pub fn distance_of_levels(&self, level_indexes: &[usize]) -> Option<f64> {
        if level_indexes.len() != self.attrs.len() {
            return None;
        }
        let mut total = 0.0;
        for (a, &idx) in self.attrs.iter().zip(level_indexes.iter()) {
            total += a.level_scores.get(idx)?;
        }
        Some(total)
    }

    /// Admissibility check and eq. 2 distance fused into one pass over the
    /// attributes: `None` when the proposal is inadmissible, `Some(d)`
    /// otherwise. The organizer's per-proposal hot path and the batch
    /// evaluator both use this to avoid walking the attribute tables
    /// twice per proposal.
    pub(crate) fn score(&self, offered: &[Value]) -> Option<f64> {
        if offered.len() != self.attrs.len() {
            return None;
        }
        let mut total = 0.0;
        for (a, v) in self.attrs.iter().zip(offered.iter()) {
            if !a.ladder.contains(v) {
                return None;
            }
            total += a.score_one(v, self.config.dif);
        }
        Some(total)
    }

    /// Scores a batch of proposals and selects the §6 winner: the
    /// admissible proposal with the lowest eq. 2 distance (first such
    /// index on ties). Inadmissible proposals score `f64::INFINITY` and
    /// never win. Returns `(best_index, scores)` with `best_index = None`
    /// when no proposal is admissible.
    pub fn evaluate_batch<P: AsRef<[Value]>>(&self, proposals: &[P]) -> (Option<usize>, Vec<f64>) {
        let mut best: Option<(usize, f64)> = None;
        let mut scores = Vec::with_capacity(proposals.len());
        for (i, p) in proposals.iter().enumerate() {
            let score = match self.score(p.as_ref()) {
                Some(d) => {
                    match best {
                        Some((_, b)) if d >= b => {}
                        _ => best = Some((i, d)),
                    }
                    d
                }
                None => f64::INFINITY,
            };
            scores.push(score);
        }
        (best.map(|(i, _)| i), scores)
    }
}

impl CompiledAttr {
    /// Weighted eq. 5 contribution of one offered value.
    fn score_one(&self, offered: &Value, mode: DifMode) -> f64 {
        let raw = match &self.dif {
            DifTable::Discrete {
                positions,
                pref_pos,
                inv_norm,
            } => (positions.position(offered) - pref_pos) * inv_norm,
            DifTable::Continuous { pref, inv_span } => {
                (offered.as_f64().unwrap_or(0.0) - pref) * inv_span
            }
        };
        let dif = match mode {
            DifMode::Absolute => raw.abs(),
            DifMode::SignedPaperLiteral => raw,
        };
        self.weight * dif
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::WeightScheme;
    use crate::oracle::Evaluator;
    use qosc_spec::catalog;

    fn setup() -> (QosSpec, ResolvedRequest) {
        let spec = catalog::av_spec();
        let req = catalog::surveillance_request().resolve(&spec).unwrap();
        (spec, req)
    }

    #[test]
    fn compiled_matches_reference_on_catalog_offers() {
        let (spec, req) = setup();
        for dif in [DifMode::Absolute, DifMode::SignedPaperLiteral] {
            for weights in [
                WeightScheme::PaperLinear,
                WeightScheme::Uniform,
                WeightScheme::Harmonic,
            ] {
                let config = EvalConfig { weights, dif };
                let ev = Evaluator::new(config);
                let compiled = CompiledRequest::compile(&spec, &req, config);
                for offered in [
                    vec![Value::Int(10), Value::Int(3), Value::Int(8), Value::Int(8)],
                    vec![Value::Int(5), Value::Int(1), Value::Int(8), Value::Int(8)],
                    vec![Value::Int(1), Value::Int(3), Value::Int(8), Value::Int(8)],
                    // Out-of-ladder values still price identically.
                    vec![Value::Int(20), Value::Int(24), Value::Int(8), Value::Int(8)],
                ] {
                    let d_ref = ev.distance(&spec, &req, &offered);
                    let d_new = compiled.distance(&offered);
                    assert!((d_ref - d_new).abs() < 1e-12, "{d_ref} vs {d_new}");
                    assert_eq!(ev.admissible(&req, &offered), compiled.admissible(&offered));
                }
            }
        }
    }

    #[test]
    fn level_tables_match_value_scoring() {
        let (spec, req) = setup();
        let ev = Evaluator::default();
        let compiled = CompiledRequest::compile(&spec, &req, EvalConfig::default());
        for levels in [[0, 0, 0, 0], [3, 1, 0, 0], [9, 1, 0, 0]] {
            let offered: Vec<Value> = req
                .iter_attrs()
                .zip(levels)
                .map(|((_, a), i)| a.levels[i].clone())
                .collect();
            let d_ref = ev.distance_of_levels(&spec, &req, &levels).unwrap();
            let d_values = compiled.distance(&offered);
            let d_levels = compiled.distance_of_levels(&levels).unwrap();
            assert!((d_ref - d_levels).abs() < 1e-12);
            assert!((d_values - d_levels).abs() < 1e-12);
        }
        assert!(compiled.distance_of_levels(&[99, 0, 0, 0]).is_none());
        assert!(compiled.distance_of_levels(&[0, 0]).is_none());
    }

    #[test]
    fn batch_selects_lowest_admissible_distance() {
        let (spec, req) = setup();
        let compiled = CompiledRequest::compile(&spec, &req, EvalConfig::default());
        let proposals = vec![
            vec![Value::Int(7), Value::Int(3), Value::Int(8), Value::Int(8)],
            // Inadmissible: frame_rate 20 is outside the acceptable ladder.
            vec![Value::Int(20), Value::Int(3), Value::Int(8), Value::Int(8)],
            vec![Value::Int(10), Value::Int(3), Value::Int(8), Value::Int(8)],
            vec![Value::Int(9), Value::Int(1), Value::Int(8), Value::Int(8)],
        ];
        let (best, scores) = compiled.evaluate_batch(&proposals);
        assert_eq!(best, Some(2));
        assert_eq!(scores.len(), 4);
        assert_eq!(scores[2], 0.0);
        assert_eq!(scores[1], f64::INFINITY);
        assert!(scores[0] > 0.0 && scores[3] > 0.0);
    }

    #[test]
    fn batch_of_inadmissible_proposals_has_no_winner() {
        let (spec, req) = setup();
        let compiled = CompiledRequest::compile(&spec, &req, EvalConfig::default());
        let proposals = vec![
            vec![Value::Int(20), Value::Int(3), Value::Int(8), Value::Int(8)],
            vec![Value::Int(10)], // wrong shape
        ];
        let (best, scores) = compiled.evaluate_batch(&proposals);
        assert_eq!(best, None);
        assert!(scores.iter().all(|s| s.is_infinite()));
        let empty: Vec<Vec<Value>> = Vec::new();
        assert_eq!(compiled.evaluate_batch(&empty), (None, Vec::new()));
    }

    #[test]
    fn ties_keep_the_first_proposal() {
        let (spec, req) = setup();
        let compiled = CompiledRequest::compile(&spec, &req, EvalConfig::default());
        let p = vec![Value::Int(9), Value::Int(3), Value::Int(8), Value::Int(8)];
        let (best, scores) = compiled.evaluate_batch(&[p.clone(), p]);
        assert_eq!(best, Some(0));
        assert_eq!(scores[0], scores[1]);
    }
}
