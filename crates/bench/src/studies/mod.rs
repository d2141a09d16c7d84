//! Studies beyond the paper's tables: each prints its own tables.

pub mod ablations;
pub mod device_study;
pub mod projection;
pub mod sensitivity;
