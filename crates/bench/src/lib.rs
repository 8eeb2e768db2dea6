//! # cmr-bench — the reproduction harness
//!
//! One runner per table/figure of the paper plus the ablations listed in
//! DESIGN.md §4. The `repro` binary renders the reports; Criterion benches
//! measure the substrate costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod chaos;
pub mod experiments;
pub mod iofaults;

pub use chaos::{
    parse_levels, run_chaos, run_chaos_with, ChaosConfig, ChaosLevelReport, ChaosReport,
};
pub use experiments::*;
pub use iofaults::{run_io_faults, IoFaultConfig, IoFaultReport, ScheduleReport};

/// `println!` that survives a closed stdout: `repro figure1 | head` closes
/// the pipe early, and the report must end quietly instead of panicking.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// [`outln!`] for stderr.
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}
