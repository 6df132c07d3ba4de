//! Experiment-matrix evaluation fleet. Runs (or resumes) a matrix of
//! workloads × rulesets × heap presets × threads × telemetry cells and
//! maintains a results directory with `manifest.json`, `cells.jsonl` and
//! a machine-validated `summary.json`.
//!
//! ```text
//! eval_matrix [--spec FILE] [--workloads a,b] [--rulesets builtin,FILE]
//!             [--heaps default,small-gc] [--threads 1,2,4]
//!             [--telemetry-axis off,on]
//!             [--out DIR] [--jobs N] [--max-cells N] [--fresh]
//! eval_matrix --gate [--golden FILE] [--out DIR]
//! eval_matrix --report [--out DIR]
//! eval_matrix --write-golden FILE [--out DIR]
//! ```
//!
//! Run from the workspace root:
//! `cargo run --release -p chameleon-bench --bin eval_matrix`.

use chameleon_bench::eval::{self, FLAG_KEYS, VALUE_KEYS};
use std::collections::BTreeMap;

fn parse_args(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut opts = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}` (options start with --)"))?;
        if FLAG_KEYS.contains(&key) {
            opts.insert(key.to_string(), "true".to_string());
            i += 1;
        } else if VALUE_KEYS.contains(&key) {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            opts.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            return Err(format!("unknown option `--{key}`"));
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|opts| eval::run_with(&opts));
    match outcome {
        Ok(msg) => println!("{msg}"),
        Err(e) => {
            eprintln!("eval_matrix: {e}");
            std::process::exit(1);
        }
    }
}
