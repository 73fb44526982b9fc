//! Services and their independent tasks (paper §4.1).
//!
//! "There will be several services to be executed, each one with a set (for
//! now) of independent tasks `T`. Each service has specific QoS constraints,
//! defined by the user." A [`ServiceDef`] is the unit a user submits; each
//! [`TaskDef`] inside it is the unit the coalition assigns to exactly one
//! node.

use crate::error::SpecError;
use crate::request::{ResolvedRequest, ServiceRequest};
use crate::spec::QosSpec;

/// Identifier of a task within its service (index order = submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One independent task of a service: a name, the QoS spec it is an
/// instance of, and the user's preference-ordered request for it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDef {
    /// Task label.
    pub name: String,
    /// The application QoS spec this task is an instance of.
    pub spec: QosSpec,
    /// The user's preferences for this task (paper: `Q_i` + `P`).
    pub request: ServiceRequest,
    /// Input payload size in bytes that must be shipped to whichever node
    /// executes the task (drives the communication-cost tie-break, §4.2).
    pub input_bytes: u64,
    /// Output payload size shipped back to the requester.
    pub output_bytes: u64,
}

impl TaskDef {
    /// Resolves this task's request against its spec.
    pub fn resolve(&self) -> Result<ResolvedRequest, SpecError> {
        self.request.resolve(&self.spec)
    }
}

/// A user-submitted service: an ordered set of independent tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDef {
    /// Service label.
    pub name: String,
    /// The independent tasks (paper §4.1's `T`).
    pub tasks: Vec<TaskDef>,
}

impl ServiceDef {
    /// Creates a service from its tasks.
    pub fn new(name: impl Into<String>, tasks: Vec<TaskDef>) -> Self {
        Self {
            name: name.into(),
            tasks,
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Iterates `(TaskId, task)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskDef)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Resolves every task's request, failing on the first invalid one.
    pub fn resolve_all(&self) -> Result<Vec<ResolvedRequest>, SpecError> {
        self.tasks.iter().map(TaskDef::resolve).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn service() -> ServiceDef {
        ServiceDef::new(
            "surveillance-feed",
            vec![
                TaskDef {
                    name: "camera-1".into(),
                    spec: catalog::av_spec(),
                    request: catalog::surveillance_request(),
                    input_bytes: 500_000,
                    output_bytes: 50_000,
                },
                TaskDef {
                    name: "camera-2".into(),
                    spec: catalog::av_spec(),
                    request: catalog::surveillance_request(),
                    input_bytes: 500_000,
                    output_bytes: 50_000,
                },
            ],
        )
    }

    #[test]
    fn service_resolves_all_tasks() {
        let s = service();
        assert_eq!(s.task_count(), 2);
        let resolved = s.resolve_all().unwrap();
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[0].attr_count(), 4);
    }

    #[test]
    fn task_ids_follow_submission_order() {
        let s = service();
        let ids: Vec<_> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![TaskId(0), TaskId(1)]);
        assert_eq!(TaskId(3).to_string(), "T3");
    }
}
