//! A catalog of ready-made application specifications and requests.
//!
//! These mirror the paper's running examples (§3's audio/video spec, §3.1's
//! remote-surveillance request, §7's transcode-offload motivation) and are
//! used throughout the examples, tests and the experiment harness.
//!
//! Every entry is built once per process and handed out as a clone of
//! that one instance, so all the tasks, announcements and compile caches
//! of a world share one allocation per template.

use std::sync::LazyLock;

use crate::dependency::{Dependency, DependencyKind};
use crate::domain::Domain;
use crate::request::{LevelSpec, ServiceRequest};
use crate::spec::{AttrPath, Attribute, Dimension, QosSpec};

/// The paper's §3 example spec: Video Quality {color_depth, frame_rate} and
/// Audio Quality {sampling_rate, sample_bits}, with exactly the paper's
/// domains (`AV_color_depth = {1,3,8,16,24}`, `AV_frame_rate = [1..30]`,
/// `AV_sampling_rate = {8,16,24,44}`, `AV_sample_bits = {8,16,24}`).
pub fn av_spec() -> QosSpec {
    static SPEC: LazyLock<QosSpec> = LazyLock::new(|| {
        QosSpec::builder("audio-video")
            .dimension(Dimension::new(
                "Video Quality",
                vec![
                    Attribute::new("frame_rate", Domain::ContinuousInt { min: 1, max: 30 }),
                    Attribute::new("color_depth", Domain::DiscreteInt(vec![1, 3, 8, 16, 24])),
                ],
            ))
            .dimension(Dimension::new(
                "Audio Quality",
                vec![
                    Attribute::new("sampling_rate", Domain::DiscreteInt(vec![8, 16, 24, 44])),
                    Attribute::new("sample_bits", Domain::DiscreteInt(vec![8, 16, 24])),
                ],
            ))
            .build()
            .expect("catalog spec is statically valid")
    });
    SPEC.clone()
}

/// §3.1's remote-surveillance request over [`av_spec`]: video ≻ audio,
/// frame_rate ≻ color_depth, grey-scale low frame rate acceptable.
pub fn surveillance_request() -> ServiceRequest {
    static REQUEST: LazyLock<ServiceRequest> = LazyLock::new(|| {
        ServiceRequest::builder("surveillance")
            .dimension("Video Quality")
            .attribute(
                "frame_rate",
                vec![LevelSpec::int_range(10, 5), LevelSpec::int_range(4, 1)],
            )
            .attribute(
                "color_depth",
                vec![LevelSpec::value(3i64), LevelSpec::value(1i64)],
            )
            .dimension("Audio Quality")
            .attribute("sampling_rate", vec![LevelSpec::value(8i64)])
            .attribute("sample_bits", vec![LevelSpec::value(8i64)])
            .build()
    });
    REQUEST.clone()
}

/// A demanding video-conference request over [`av_spec`]: full preference
/// ladders on every attribute, video first.
pub fn video_conference_request() -> ServiceRequest {
    static REQUEST: LazyLock<ServiceRequest> = LazyLock::new(|| {
        ServiceRequest::builder("video-conference")
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::int_range(30, 10)])
            .attribute(
                "color_depth",
                vec![
                    LevelSpec::value(24i64),
                    LevelSpec::value(16i64),
                    LevelSpec::value(8i64),
                ],
            )
            .dimension("Audio Quality")
            .attribute(
                "sampling_rate",
                vec![
                    LevelSpec::value(44i64),
                    LevelSpec::value(24i64),
                    LevelSpec::value(16i64),
                ],
            )
            .attribute(
                "sample_bits",
                vec![LevelSpec::value(16i64), LevelSpec::value(8i64)],
            )
            .build()
    });
    REQUEST.clone()
}

/// An audio-first request (e.g. a voice call where video is a nicety).
pub fn voice_first_request() -> ServiceRequest {
    static REQUEST: LazyLock<ServiceRequest> = LazyLock::new(|| {
        ServiceRequest::builder("voice-first")
            .dimension("Audio Quality")
            .attribute(
                "sampling_rate",
                vec![
                    LevelSpec::value(44i64),
                    LevelSpec::value(24i64),
                    LevelSpec::value(16i64),
                    LevelSpec::value(8i64),
                ],
            )
            .attribute(
                "sample_bits",
                vec![
                    LevelSpec::value(24i64),
                    LevelSpec::value(16i64),
                    LevelSpec::value(8i64),
                ],
            )
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::int_range(15, 1)])
            .attribute(
                "color_depth",
                vec![LevelSpec::value(8i64), LevelSpec::value(3i64)],
            )
            .build()
    });
    REQUEST.clone()
}

/// A media-transcoding spec for the §7 offload example: one Throughput
/// dimension (chunk rate, compression ratio) and one Fidelity dimension
/// (codec, bitrate), with a linear budget coupling chunk rate and bitrate.
pub fn transcode_spec() -> QosSpec {
    static SPEC: LazyLock<QosSpec> = LazyLock::new(|| {
        QosSpec::builder("transcode")
            .dimension(Dimension::new(
                "Throughput",
                vec![
                    Attribute::new("chunk_rate", Domain::ContinuousInt { min: 1, max: 60 }),
                    Attribute::new(
                        "compression_ratio",
                        Domain::discrete_float([0.9, 0.7, 0.5, 0.3]),
                    ),
                ],
            ))
            .dimension(Dimension::new(
                "Fidelity",
                vec![
                    Attribute::new("codec", Domain::discrete_str(["h264", "mpeg4", "mjpeg"])),
                    Attribute::new(
                        "bitrate_kbps",
                        Domain::DiscreteInt(vec![2000, 1000, 500, 250]),
                    ),
                ],
            ))
            .dependency(Dependency::new(
                "pipeline budget",
                DependencyKind::LinearBudget {
                    // chunk_rate + bitrate/100 <= 80: a node cannot promise both
                    // maximal rate and maximal fidelity.
                    terms: vec![(AttrPath::new(0, 0), 1.0), (AttrPath::new(1, 1), 0.01)],
                    max: 80.0,
                },
            ))
            .build()
            .expect("catalog spec is statically valid")
    });
    SPEC.clone()
}

/// A balanced request over [`transcode_spec`].
pub fn transcode_request() -> ServiceRequest {
    static REQUEST: LazyLock<ServiceRequest> = LazyLock::new(|| {
        ServiceRequest::builder("transcode")
            .dimension("Throughput")
            .attribute("chunk_rate", vec![LevelSpec::int_range(30, 5)])
            .attribute(
                "compression_ratio",
                vec![
                    LevelSpec::value(0.5f64),
                    LevelSpec::value(0.7f64),
                    LevelSpec::value(0.9f64),
                ],
            )
            .dimension("Fidelity")
            .attribute(
                "codec",
                vec![LevelSpec::value("h264"), LevelSpec::value("mpeg4")],
            )
            .attribute(
                "bitrate_kbps",
                vec![
                    LevelSpec::value(1000i64),
                    LevelSpec::value(500i64),
                    LevelSpec::value(250i64),
                ],
            )
            .build()
    });
    REQUEST.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_catalog_requests_resolve_against_their_specs() {
        let av = av_spec();
        assert!(surveillance_request().resolve(&av).is_ok());
        assert!(video_conference_request().resolve(&av).is_ok());
        assert!(voice_first_request().resolve(&av).is_ok());
        let tc = transcode_spec();
        assert!(transcode_request().resolve(&tc).is_ok());
    }

    #[test]
    fn av_spec_matches_paper_domains() {
        let s = av_spec();
        let cd = s
            .attribute_at(s.path("Video Quality", "color_depth").unwrap())
            .unwrap();
        assert_eq!(cd.domain, Domain::DiscreteInt(vec![1, 3, 8, 16, 24]));
        let fr = s
            .attribute_at(s.path("Video Quality", "frame_rate").unwrap())
            .unwrap();
        assert_eq!(fr.domain, Domain::ContinuousInt { min: 1, max: 30 });
        let sr = s
            .attribute_at(s.path("Audio Quality", "sampling_rate").unwrap())
            .unwrap();
        assert_eq!(sr.domain, Domain::DiscreteInt(vec![8, 16, 24, 44]));
        let sb = s
            .attribute_at(s.path("Audio Quality", "sample_bits").unwrap())
            .unwrap();
        assert_eq!(sb.domain, Domain::DiscreteInt(vec![8, 16, 24]));
    }

    #[test]
    fn transcode_dependency_is_enforced() {
        let s = transcode_spec();
        let r = transcode_request().resolve(&s).unwrap();
        // Preferred everywhere: chunk_rate 30 + bitrate 1000*0.01 = 40 <= 80.
        let qv = r.quality_vector(&s, &[0, 0, 0, 0]).unwrap();
        assert!(qv.satisfies_dependencies(&s));
    }
}
