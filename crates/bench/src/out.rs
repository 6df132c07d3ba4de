//! Shared output plumbing for the bench bins.
//!
//! Every figure/table binary historically printed to stdout only, with the
//! `results/*.txt` archive maintained by hand-redirecting runs. [`Out`] is a
//! tee: each [`outln!`] line still goes to stdout, and on drop the full text
//! is saved under [`out_dir`] (`CHAMELEON_RESULTS_DIR`, default `results/`)
//! so eval runs can redirect the whole fleet with one env var.

use chameleon_telemetry::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

/// Directory receiving the human-readable `*.txt` outputs and eval results
/// directories: `$CHAMELEON_RESULTS_DIR`, or `results/` under the current
/// directory when unset.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("CHAMELEON_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("results"),
    }
}

/// Host metadata as a telemetry JSON value: core count (1 when unknown),
/// OS and arch. Recorded in the eval summary and golden so a reader can
/// tell which host a results directory came from.
pub fn host_meta() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut obj = BTreeMap::new();
    obj.insert(
        "available_parallelism".to_string(),
        Value::Num(cores as f64),
    );
    obj.insert(
        "os".to_string(),
        Value::Str(std::env::consts::OS.to_string()),
    );
    obj.insert(
        "arch".to_string(),
        Value::Str(std::env::consts::ARCH.to_string()),
    );
    Value::Obj(obj)
}

/// Buffered stdout tee for one bench binary. Lines written through
/// [`outln!`] (or [`Out::line`]) print immediately; when the value drops,
/// the accumulated text is saved to `out_dir()/<name>.txt`.
pub struct Out {
    name: &'static str,
    buf: RefCell<String>,
}

impl Out {
    /// Creates a tee for the binary `name` (the file stem of the saved
    /// transcript).
    pub fn new(name: &'static str) -> Self {
        Out {
            name,
            buf: RefCell::new(String::new()),
        }
    }

    /// Prints one line to stdout and appends it to the saved transcript.
    pub fn line(&self, args: fmt::Arguments<'_>) {
        let text = args.to_string();
        println!("{text}");
        let mut buf = self.buf.borrow_mut();
        buf.push_str(&text);
        buf.push('\n');
    }

    /// Prints a fragment without a trailing newline (already-formatted
    /// multi-line blocks pass through unchanged).
    pub fn write(&self, text: &str) {
        print!("{text}");
        self.buf.borrow_mut().push_str(text);
    }

    /// Prints a horizontal rule sized to `width`.
    pub fn hr(&self, width: usize) {
        self.line(format_args!("{}", "-".repeat(width)));
    }
}

impl Drop for Out {
    fn drop(&mut self) {
        let path = out_dir().join(format!("{}.txt", self.name));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        if let Err(e) = std::fs::write(&path, self.buf.borrow().as_str()) {
            eprintln!("warning: could not save {}: {e}", path.display());
        }
    }
}

/// `println!` into an [`Out`] tee: prints to stdout and records the line in
/// the transcript saved under [`out_dir`].
#[macro_export]
macro_rules! outln {
    ($out:expr) => {
        $out.line(::core::format_args!(""))
    };
    ($out:expr, $($arg:tt)*) => {
        $out.line(::core::format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_meta_has_core_count() {
        let meta = host_meta();
        let cores = meta
            .get("available_parallelism")
            .and_then(Value::as_u64)
            .expect("available_parallelism present");
        assert!(cores >= 1);
        assert!(meta.get("os").and_then(Value::as_str).is_some());
    }
}
