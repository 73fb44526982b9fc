//! The canonical experiment suite (the `experiments` binary runs it; the
//! README's quick start shows how).
//!
//! The paper has no empirical tables/figures; every experiment here
//! operationalises one of its quantitative claims. Each module's `run()`
//! returns a [`Table`](crate::table) that the `experiments` binary
//! prints and writes to `results/*.csv`.

pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod f7;
pub mod f8;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t7;

use crate::table::Table;

/// All experiment ids in canonical order.
pub const ALL: [&str; 14] = [
    "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "t1", "t2", "t3", "t4", "t5", "t7",
];

/// Runs one experiment by id.
pub fn run(id: &str) -> Option<Table> {
    Some(match id {
        "f1" => f1::run(),
        "f2" => f2::run(),
        "f3" => f3::run(),
        "f4" => f4::run(),
        "f5" => f5::run(),
        "f6" => f6::run(),
        "f7" => f7::run(),
        "f8" => f8::run(),
        "t1" => t1::run(),
        "t2" => t2::run(),
        "t3" => t3::run(),
        "t4" => t4::run(),
        "t5" => t5::run(),
        "t7" => t7::run(),
        _ => return None,
    })
}
