//! The repo's end-to-end benchmark: seven workloads driven through the
//! public `ldl1::System` API, every answer checked against an
//! engine-independent oracle, plus a traced run that attributes the time
//! to the engine's layers. See `README.md`.

pub mod bom;
pub mod cli;
pub mod cold;
pub mod driver;
pub mod env;
pub mod gen;
pub mod host;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod pipeline;
pub mod recovery;
pub mod stream;
pub mod trace;
pub mod workload;
