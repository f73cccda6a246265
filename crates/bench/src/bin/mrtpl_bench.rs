//! Unified suite-execution CLI: run any method × case matrix over the
//! ISPD-2018/2019-like suites — or externally ingested LEF/DEF designs —
//! in parallel and report text or JSON.
//!
//! ```bash
//! cargo run --release -p tpl-bench --bin mrtpl-bench -- \
//!     --suite ispd18 --cases 1,2 --methods dac12,mrtpl \
//!     --jobs 8 --format json --out report.json
//!
//! cargo run --release -p tpl-bench --bin mrtpl-bench -- \
//!     --lef tech.lef --def chip.def --methods dac12,mrtpl
//! ```
//!
//! See `--help` for the full flag list, including the Table II/III presets.

use std::process::ExitCode;
use tpl_bench::cli::{self, Format};

fn main() -> ExitCode {
    // Exit codes: 0 success, 1 run completed with failed jobs or I/O error,
    // 2 usage error — same convention as the table bins.
    let args = match cli::parse_bench_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.help {
        print!("{}", cli::USAGE);
        return ExitCode::SUCCESS;
    }
    if args.list_methods {
        print!("{}", cli::render_method_list());
        return ExitCode::SUCCESS;
    }

    if let Some(def) = &args.def {
        eprintln!(
            "mrtpl-bench: external def {def} methods {} jobs {}",
            args.methods, args.jobs,
        );
    } else {
        eprintln!(
            "mrtpl-bench: suite {} cases {} methods {} scale {} jobs {}",
            args.suite.name(),
            if args.cases.is_empty() {
                "all".to_string()
            } else {
                format!("{:?}", args.cases)
            },
            args.methods,
            args.scale,
            args.jobs,
        );
    }
    let report = match cli::execute(&args) {
        Ok(report) => report,
        // Execute errors are bad input — an unknown --methods name or an
        // unreadable/invalid --def or --lef: usage error.
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let rendered = match args.format {
        Format::Text => cli::render_text(&report),
        Format::Json => report.to_json(),
    };
    if let Some(path) = &args.out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("error: cannot create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
        // Deterministic reports zero runtime_seconds for byte-stable
        // comparison; keep the real wall-clock numbers in a sidecar that is
        // never byte-compared.
        if args.deterministic {
            let sidecar = cli::timings_sidecar_path(path);
            if let Err(e) = std::fs::write(&sidecar, report.timings_json()) {
                eprintln!("error: cannot write {sidecar}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("timings written to {sidecar}");
        }
    } else {
        print!("{rendered}");
    }
    if let Some(dir) = &args.trace {
        if let Err(message) = cli::write_trace_outputs(&report, dir) {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace exports written to {dir}/");
    }
    let failed = report
        .records
        .iter()
        .filter(|r| r.error().is_some())
        .count();
    if failed > 0 {
        eprintln!("{failed} job(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
