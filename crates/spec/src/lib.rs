//! # qosc-spec — QoS requirements representation & service requests
//!
//! This crate implements §3 of *Dynamic QoS-Aware Coalition Formation*
//! (Nogueira & Pinho, 2005): the scheme
//! `QoS = {Dim, Attr, Val, DAr, AVr, Deps}` describing an application's
//! quality space, and the preference-ordered service request of §3.1 through
//! which a user expresses acceptable quality combinations *qualitatively*
//! (by relative importance) instead of via numeric utilities.
//!
//! ## Map from paper to types
//!
//! | Paper object | Type |
//! |---|---|
//! | `Dim` | [`Dimension`] |
//! | `Attr`, `DAr` | [`Attribute`] owned by its [`Dimension`] |
//! | `Val` (`Type` × `Domain`) | [`Value`], [`Domain`] |
//! | `AVr` | [`Attribute::domain`] |
//! | `Deps` | [`Dependency`] |
//! | user request (§3.1) | [`ServiceRequest`] → [`ResolvedRequest`] |
//! | service & independent tasks (§4.1) | [`ServiceDef`], [`TaskDef`] |
//!
//! The crate is deliberately free of protocol or resource concerns: it is
//! pure data + validation, shared by every other crate in the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
mod dependency;
mod domain;
mod error;
mod handle;
mod request;
mod spec;
mod task;
mod value;

pub use dependency::{Dependency, DependencyKind};
pub use domain::Domain;
pub use error::SpecError;
pub use request::{
    AttrPref, DimPref, LevelSpec, ResolvedAttrPref, ResolvedDimPref, ResolvedRequest,
    ServiceRequest, ServiceRequestBuilder,
};
pub use spec::{AttrPath, Attribute, Dimension, QosSpec, QosSpecBuilder, QualityVector};
pub use task::{ServiceDef, TaskDef, TaskId};
pub use value::{Value, ValueType, F64};
