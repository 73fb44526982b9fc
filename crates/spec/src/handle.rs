//! The shared immutable handle behind [`QosSpec`](crate::QosSpec) and
//! [`ServiceRequest`](crate::ServiceRequest).
//!
//! A spec or request is announced to every node of a world and then
//! stored, compared and keyed on at each of them, so the tree is built
//! once, frozen behind an `Arc` together with a hash of its content, and
//! passed around by pointer.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// `Arc<(content hash, data)>`: `clone()` bumps a refcount and `==` is
/// pointer-first with hash-then-structure as the fallback, so two
/// allocations of equal content are equal and unequal content is told
/// apart without walking it.
pub(crate) struct Handle<T>(Arc<(u64, T)>);

impl<T: fmt::Debug> Handle<T> {
    /// Freezes `data`. The content hash is FNV-1a over the `Debug`
    /// rendering: a pure function of the content, equal across
    /// allocations, processes and runs.
    pub(crate) fn new(data: T) -> Self {
        let hash = format!("{data:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        Self(Arc::new((hash, data)))
    }
}

impl<T> Handle<T> {
    pub(crate) fn content_hash(&self) -> u64 {
        self.0 .0
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> Deref for Handle<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0 .1
    }
}

impl<T: PartialEq> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        // The tuple compares its hash first, so unequal content
        // short-circuits before the structural walk.
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

#[cfg(test)]
mod tests {
    use crate::{catalog, LevelSpec, QosSpec, ServiceRequest};

    /// Same content as `spec`, built again: a second allocation.
    fn rebuilt_spec(spec: &QosSpec, name: &str) -> QosSpec {
        let mut b = QosSpec::builder(name);
        for d in spec.dimensions() {
            b = b.dimension(d.clone());
        }
        for dep in spec.dependencies() {
            b = b.dependency(dep.clone());
        }
        b.build().unwrap()
    }

    fn rebuilt_request(request: &ServiceRequest, name: &str) -> ServiceRequest {
        let mut b = ServiceRequest::builder(name);
        for d in request.dimensions() {
            b = b.dimension(d.dimension.clone());
            for a in &d.attributes {
                b = b.attribute(a.attribute.clone(), a.levels.clone());
            }
        }
        b.build()
    }

    #[test]
    fn clones_and_catalog_entries_share_one_allocation() {
        let spec = catalog::transcode_spec();
        assert!(std::ptr::eq(spec.name(), spec.clone().name()));
        assert!(std::ptr::eq(spec.name(), catalog::transcode_spec().name()));
        let request = catalog::transcode_request();
        assert!(std::ptr::eq(request.name(), request.clone().name()));
        assert!(std::ptr::eq(
            request.name(),
            catalog::transcode_request().name()
        ));
    }

    #[test]
    fn equal_content_in_another_allocation_is_equal() {
        let spec = catalog::transcode_spec();
        let again = rebuilt_spec(&spec, spec.name());
        assert!(!std::ptr::eq(spec.name(), again.name()));
        assert_eq!(spec, again);
        assert_eq!(spec.content_hash(), again.content_hash());
        assert_eq!(format!("{spec:?}"), format!("{again:?}"));
        let request = catalog::transcode_request();
        let again = rebuilt_request(&request, request.name());
        assert!(!std::ptr::eq(request.name(), again.name()));
        assert_eq!(request, again);
        assert_eq!(request.content_hash(), again.content_hash());
    }

    #[test]
    fn different_content_differs_whatever_the_name() {
        let spec = catalog::av_spec();
        let renamed = rebuilt_spec(&spec, "other");
        assert_ne!(spec, renamed);
        assert_ne!(spec.content_hash(), renamed.content_hash());
        let same_name = rebuilt_spec(&catalog::transcode_spec(), spec.name());
        assert_ne!(spec, same_name);
        assert_ne!(spec.content_hash(), same_name.content_hash());
        let request = catalog::surveillance_request();
        let same_name = rebuilt_request(&catalog::voice_first_request(), request.name());
        assert_ne!(request, same_name);
        assert_ne!(request.content_hash(), same_name.content_hash());
        let one_more_level = ServiceRequest::builder("r")
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::int_range(10, 5)])
            .build();
        let one_less = ServiceRequest::builder("r")
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::int_range(10, 6)])
            .build();
        assert_ne!(one_more_level, one_less);
    }

    /// The rendering is the plain field tree's — no handle, no hash — in
    /// both the compact and the pretty form.
    #[test]
    fn debug_renders_the_plain_field_tree() {
        let request = ServiceRequest::builder("r")
            .dimension("D")
            .attribute("a", vec![LevelSpec::value(1i64)])
            .build();
        assert_eq!(
            format!("{request:?}"),
            "ServiceRequest { name: \"r\", dimensions: [DimPref { dimension: \"D\", \
             attributes: [AttrPref { attribute: \"a\", levels: [Value(Int(1))] }] }] }"
        );
        let spec = format!("{:?}", catalog::av_spec());
        assert!(spec.starts_with("QosSpec { name: \"audio-video\", dimensions: [Dimension {"));
        assert!(spec.ends_with("], dependencies: [] }"));
        let pretty = format!("{:#?}", catalog::av_spec());
        assert!(pretty.starts_with("QosSpec {\n    name: \"audio-video\",\n    dimensions: [\n"));
    }
}
