//! CLI: `cargo run -p privid-analyzer -- check [--root DIR]`.
//!
//! Exits 0 when the workspace has zero unsuppressed findings, 1 otherwise
//! (including malformed suppressions), 2 on usage/config errors — which
//! include an allowlist entry naming a file that does not exist.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use privid_analyzer::{config::Config, engine};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: privid-analyzer check [--root DIR]");
        return ExitCode::from(2);
    };
    if cmd != "check" {
        eprintln!("unknown command `{cmd}`; usage: privid-analyzer check [--root DIR]");
        return ExitCode::from(2);
    }
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("error: no analyzer.toml found walking up from the current directory; pass --root");
            return ExitCode::from(2);
        }
    };
    let config_path = root.join("analyzer.toml");
    let cfg = match std::fs::read_to_string(&config_path).map_err(|e| e.to_string()).and_then(|t| Config::parse(&t)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: cannot load {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let orphans = orphaned_allowlist_entries(&root, &cfg);
    if !orphans.is_empty() {
        for orphan in &orphans {
            eprintln!("error: {}: {orphan} names a file that does not exist", config_path.display());
        }
        return ExitCode::from(2);
    }
    let report = match engine::run(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.findings {
        println!("{d}");
    }
    println!(
        "privid-analyzer: {} file(s), {} finding(s), {} suppressed",
        report.files,
        report.findings.len(),
        report.suppressed
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `[[taint]].allow` and `[f64-exactness].files` entries with no file behind
/// them. An orphaned allowlist line is a capability grant nobody reviews: the
/// next file created at that path would inherit it silently, so the entry
/// must leave the config together with the file.
fn orphaned_allowlist_entries(root: &Path, cfg: &Config) -> Vec<String> {
    let taint = cfg.taint.iter().flat_map(|g| g.allow.iter().map(move |f| (format!("[[taint]] `{}` allow", g.name), f)));
    let float = cfg.float_files.iter().map(|f| ("[f64-exactness] files".to_string(), f));
    taint
        .chain(float)
        .filter(|(_, file)| !root.join(file).is_file())
        .map(|(key, file)| format!("{key} entry \"{file}\""))
        .collect()
}

/// Walk up from the current directory to the first dir holding analyzer.toml.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("analyzer.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
