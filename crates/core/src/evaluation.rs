//! Multi-attribute proposal evaluation (paper §6, equations 2–5).
//!
//! A proposal is scored by its *distance* from the user's preferences:
//!
//! ```text
//! distance = Σ_k  w_k · dist(Q_k)                        (eq. 2)
//! w_k      = (n − k + 1) / n                             (eq. 3)
//! dist(Q_k)= Σ_i  w_i · dif(Prop_ki, Pref_ki)            (eq. 4)
//! dif      = (Prop−Pref)/(max−min)        continuous     (eq. 5)
//!          = (pos(Prop)−pos(Pref))/(len−1) discrete
//! ```
//!
//! with `k` the rank of the dimension in the user's request and `i` the
//! rank of the attribute inside its dimension — preference is *qualitative*
//! (order), turned into weights by eq. 3. `pos(·)` is the Quality-Index
//! position in the application's domain declaration (after Lee et al.).
//! The best proposal is the admissible one with the lowest distance.
//!
//! Two deliberate knobs beyond the paper's letter, both ablated by the
//! experiment suite:
//!
//! * [`DifMode`] — taken literally, eq. 5 is *signed*: a proposal numerically
//!   below the preferred value gets a negative difference and would beat the
//!   preferred value itself (e.g. preferring frame rate 10, an offer of 5
//!   scores −5/29 < 0). That cannot be the intent — §6 says the winner
//!   "contains the attributes' values more closely related to user's
//!   preferences". [`DifMode::Absolute`] (default) uses |·|;
//!   [`DifMode::SignedPaperLiteral`] reproduces the formula as printed for
//!   the T2/T3 ablations.
//! * [`WeightScheme`] — eq. 3's linear rank map is one choice among many;
//!   uniform and harmonic alternatives quantify how much the scheme matters
//!   (experiment T2).

/// Rank-to-weight map for dimensions and attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// The paper's eq. 3: `w_k = (n − k + 1)/n` (1-based rank `k`).
    #[default]
    PaperLinear,
    /// Every rank weighs 1.
    Uniform,
    /// `w_k = 1/k`: steeper head emphasis than the paper's.
    Harmonic,
}

impl WeightScheme {
    /// Weight of 0-based rank `k0` among `n` ranked elements.
    pub fn weight(&self, k0: usize, n: usize) -> f64 {
        let k = (k0 + 1) as f64;
        let n = n.max(1) as f64;
        match self {
            WeightScheme::PaperLinear => (n - k + 1.0) / n,
            WeightScheme::Uniform => 1.0,
            WeightScheme::Harmonic => 1.0 / k,
        }
    }
}

/// Interpretation of eq. 5's difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DifMode {
    /// `|Prop − Pref|`, normalised — deviation in either direction moves
    /// the proposal away from the user's stated preference.
    #[default]
    Absolute,
    /// The formula exactly as printed (signed). Kept for ablation; under
    /// this mode "undershooting" a numeric preference is rewarded.
    SignedPaperLiteral,
}

/// Evaluator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalConfig {
    /// Dimension/attribute rank weighting (eq. 3).
    pub weights: WeightScheme,
    /// Difference semantics (eq. 5).
    pub dif: DifMode,
}

/// Why a proposal was rejected as inadmissible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inadmissible {
    /// The proposal does not cover every requested attribute.
    WrongShape,
    /// The value offered for `dimension.attribute` is not among the user's
    /// acceptable levels — the proposal "cannot satisfy all the QoS
    /// dimensions requested by the user" (§6).
    UnacceptableValue {
        /// Dimension name.
        dimension: String,
        /// Attribute name.
        attribute: String,
    },
}

/// Eqs. 2–5 worked by hand, through the compiled evaluator the engines
/// run.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledRequest;
    use qosc_spec::{catalog, ResolvedRequest, Value};

    /// The surveillance request and its compilation under `config`.
    fn setup(config: EvalConfig) -> (ResolvedRequest, CompiledRequest) {
        let spec = catalog::av_spec();
        let req = catalog::surveillance_request().resolve(&spec).unwrap();
        let ev = CompiledRequest::compile(&spec, &req, config);
        (req, ev)
    }

    #[test]
    fn weight_scheme_matches_eq3() {
        let w = WeightScheme::PaperLinear;
        // n = 2 dimensions: w1 = 2/2 = 1, w2 = 1/2.
        assert_eq!(w.weight(0, 2), 1.0);
        assert_eq!(w.weight(1, 2), 0.5);
        // n = 3: 1, 2/3, 1/3.
        assert!((w.weight(1, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(WeightScheme::Uniform.weight(5, 9), 1.0);
        assert_eq!(WeightScheme::Harmonic.weight(1, 9), 0.5);
    }

    #[test]
    fn preferred_everywhere_scores_zero() {
        let (req, ev) = setup(EvalConfig::default());
        let offered: Vec<Value> = req
            .preferred_choices()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert!(ev.admissible(&offered).is_ok());
        assert_eq!(ev.distance(&offered), 0.0);
    }

    #[test]
    fn continuous_dif_normalises_by_domain_span() {
        let (_, ev) = setup(EvalConfig::default());
        // frame_rate preferred 10, offer 5: |5-10| / (30-1) = 5/29.
        // frame_rate is (k=1, i=1): wk = 1, wi = 1 => contribution 5/29.
        let offered = vec![Value::Int(5), Value::Int(3), Value::Int(8), Value::Int(8)];
        let d = ev.distance(&offered);
        assert!((d - 5.0 / 29.0).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn discrete_dif_uses_quality_index_positions() {
        let (_, ev) = setup(EvalConfig::default());
        // color_depth domain {1,3,8,16,24}: pos(1)=0, pos(3)=1 => |0-1|/4.
        // color_depth is (k=1 video, i=2 of 2): wk=1, wi=1/2 => 1/8.
        let offered = vec![Value::Int(10), Value::Int(1), Value::Int(8), Value::Int(8)];
        let d = ev.distance(&offered);
        assert!((d - 0.125).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn dimension_rank_discounts_later_dimensions() {
        // Same degradation magnitude placed in the audio dimension must
        // cost less than in the video dimension (video ranks first).
        let spec = catalog::av_spec();
        let req = catalog::video_conference_request().resolve(&spec).unwrap();
        let ev = CompiledRequest::compile(&spec, &req, EvalConfig::default());
        let pref: Vec<Value> = req
            .preferred_choices()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        // Degrade color_depth one ladder step (24 -> 16).
        let mut video_deg = pref.clone();
        video_deg[1] = Value::Int(16);
        // Degrade sampling_rate one ladder step (44 -> 24).
        let mut audio_deg = pref.clone();
        audio_deg[2] = Value::Int(24);
        let dv = ev.distance(&video_deg);
        let da = ev.distance(&audio_deg);
        // Identical positional magnitude (one domain step), same in-dimension
        // rank (i=2? no: color_depth i=2/2 wi=0.5; sampling_rate i=1/2 wi=1).
        // Compute explicitly instead: dv = 1*0.5*(1/4), da = 0.5*1*(1/3).
        assert!((dv - 0.125).abs() < 1e-12);
        assert!((da - 1.0 / 6.0).abs() < 1e-12);
        assert!(dv < da);
    }

    #[test]
    fn admissibility_rejects_values_outside_ladders() {
        let (_, ev) = setup(EvalConfig::default());
        // frame_rate 20 is inside the domain but outside the user's
        // acceptable ladder [10..1].
        let offered = vec![Value::Int(20), Value::Int(3), Value::Int(8), Value::Int(8)];
        match ev.admissible(&offered) {
            Err(Inadmissible::UnacceptableValue {
                dimension,
                attribute,
            }) => {
                assert_eq!(dimension, "Video Quality");
                assert_eq!(attribute, "frame_rate");
            }
            other => panic!("expected UnacceptableValue, got {other:?}"),
        }
        // Wrong shape.
        assert_eq!(
            ev.admissible(&[Value::Int(10)]),
            Err(Inadmissible::WrongShape)
        );
    }

    #[test]
    fn lower_distance_means_closer_to_preferences() {
        let (_, ev) = setup(EvalConfig::default());
        let best = vec![Value::Int(10), Value::Int(3), Value::Int(8), Value::Int(8)];
        let mid = vec![Value::Int(8), Value::Int(3), Value::Int(8), Value::Int(8)];
        let worst = vec![Value::Int(1), Value::Int(1), Value::Int(8), Value::Int(8)];
        let db = ev.distance(&best);
        let dm = ev.distance(&mid);
        let dw = ev.distance(&worst);
        assert!(db < dm && dm < dw);
    }

    #[test]
    fn signed_mode_reproduces_paper_literal_formula() {
        let (_, ev) = setup(EvalConfig {
            weights: WeightScheme::PaperLinear,
            dif: DifMode::SignedPaperLiteral,
        });
        // Offering frame_rate 5 when preferring 10: signed dif is negative.
        let offered = vec![Value::Int(5), Value::Int(3), Value::Int(8), Value::Int(8)];
        let d = ev.distance(&offered);
        assert!(d < 0.0, "signed literal mode rewards undershooting: {d}");
    }

    #[test]
    fn distance_of_levels_agrees_with_values() {
        let (_, ev) = setup(EvalConfig::default());
        let d_levels = ev.distance_of_levels(&[3, 1, 0, 0]).unwrap();
        // Level 3 of frame_rate ladder [10,9,8,7,...] = 7; level 1 of
        // color_depth [3,1] = 1.
        let offered = vec![Value::Int(7), Value::Int(1), Value::Int(8), Value::Int(8)];
        let d_vals = ev.distance(&offered);
        assert!((d_levels - d_vals).abs() < 1e-12);
        assert!(ev.distance_of_levels(&[99, 0, 0, 0]).is_none());
        assert!(ev.distance_of_levels(&[0, 0]).is_none());
        assert!(ev.distance_of_levels(&[0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn single_valued_domains_contribute_zero() {
        // A discrete domain of length 1 cannot differentiate proposals.
        use qosc_spec::{Attribute, Dimension, Domain, LevelSpec, QosSpec, ServiceRequest};
        let spec = QosSpec::builder("s")
            .dimension(Dimension::new(
                "D",
                vec![Attribute::new("only", Domain::DiscreteInt(vec![5]))],
            ))
            .build()
            .unwrap();
        let req = ServiceRequest::builder("r")
            .dimension("D")
            .attribute("only", vec![LevelSpec::value(5i64)])
            .build()
            .resolve(&spec)
            .unwrap();
        let ev = CompiledRequest::compile(&spec, &req, EvalConfig::default());
        assert_eq!(ev.distance(&[Value::Int(5)]), 0.0);
    }
}
