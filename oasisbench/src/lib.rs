//! End-to-end and per-layer benchmark of the OASIS reproduction,
//! driven through the workspace crates' public APIs.
//!
//! Three workloads ([`run::Workload`]): an attacked scenario trial
//! (`attack_cell`), a streaming cohort round (`cohort_train`) and an
//! adaptive campaign round (`campaign_adaptive`). An untraced run
//! times ops back to back and reports [`report::END_TO_END`]; a traced
//! run steps ops through their layers' public calls ([`steps`]) and
//! reports [`report::PER_LAYER`]. See `README.md` beside this crate.

pub mod alloc;
pub mod attack_cell;
pub mod campaign;
pub mod cohort;
pub mod record;
pub mod report;
pub mod run;
pub mod steps;
