//! Run the workspace invariant analyzer end to end: the same
//! panic-freedom / lock-discipline / cast-safety / unsafe-audit /
//! obs-discipline / recursion gate CI enforces, printed as a full report and then run
//! in check mode against this very checkout. A non-empty violation list
//! exits non-zero, so the examples smoke job doubles as an analyzer run.
//!
//! ```text
//! cargo run --release --example analyze
//! ```

use std::path::Path;
use std::process::ExitCode;

use xarch_analysis::{analyze_workspace, render_check, render_report, Config};

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = match analyze_workspace(root, &Config::project_policy()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xarch-analysis: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", render_report(&analysis));
    println!("{}", render_check(&analysis));
    if analysis.violation_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
