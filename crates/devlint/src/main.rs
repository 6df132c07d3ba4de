//! `cargo run -p devlint [root]` — lint the workspace sources and exit
//! nonzero on any error-severity finding. CI runs this as a gate.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let (files, findings) = match devlint::run(Path::new(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("devlint: cannot walk {root}: {e}");
            return ExitCode::from(2);
        }
    };
    let (text, failed) = devlint::report(files, &findings);
    print!("{text}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
