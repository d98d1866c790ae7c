//! `planp-lint` — verify PLAN-P source files and report structured
//! diagnostics, per-channel cost bounds, and the accept/reject verdict.
//!
//! ```text
//! cargo run --release -p planp-bench --bin planp_lint -- \
//!     --policy no-delivery --deny-warnings asps/*.planp
//! ```
//!
//! Options:
//!
//! * `--policy strict|no-delivery|authenticated` — download policy to
//!   verify against (default `no-delivery`, the weakest policy all
//!   bundled ASPs satisfy).
//! * `--max-steps N` — add a per-packet step budget to the policy;
//!   programs whose static worst-case bound exceeds it are rejected.
//! * `--json` — machine form: one byte-stable JSON document on stdout.
//! * `--deny-warnings` — exit nonzero when any warning is reported
//!   (the CI gate).
//!
//! Exit status: 0 when every file is accepted (and warning-free under
//! `--deny-warnings`), 1 when any file is rejected or has denied
//! warnings, 2 on usage or I/O errors.

use planp_analysis::diag::push_json_str;
use planp_analysis::{verify, Policy, VerifyReport};

struct Args {
    policy: Policy,
    json: bool,
    deny_warnings: bool,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        policy: Policy::no_delivery(),
        json: false,
        deny_warnings: false,
        files: Vec::new(),
    };
    let mut max_steps: Option<u64> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--policy" => {
                let v = value(&argv, i, "--policy")?;
                args.policy = match v.as_str() {
                    "strict" => Policy::strict(),
                    "no-delivery" => Policy::no_delivery(),
                    "authenticated" => Policy::authenticated(),
                    other => return Err(format!("unknown policy {other:?}")),
                };
                i += 1;
            }
            "--max-steps" => {
                let v = value(&argv, i, "--max-steps")?;
                max_steps = Some(v.parse().map_err(|_| format!("bad step budget {v:?}"))?);
                i += 1;
            }
            "--json" => args.json = true,
            "--deny-warnings" => args.deny_warnings = true,
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument {flag:?} (try --help)"));
            }
            file => args.files.push(file.to_string()),
        }
        i += 1;
    }
    if let Some(n) = max_steps {
        args.policy = args.policy.with_step_budget(n);
    }
    if args.files.is_empty() {
        return Err("no input files (try --help)".to_string());
    }
    Ok(args)
}

const HELP: &str = "\
planp-lint: verify PLAN-P files and report diagnostics and cost bounds
usage: planp_lint [options] <file.planp>...
  --policy strict|no-delivery|authenticated  download policy (default no-delivery)
  --max-steps N                              reject bounds over N steps/packet
  --json                                     byte-stable machine output
  --deny-warnings                            exit 1 when any warning fires
";

/// What linting one file produced.
struct FileResult {
    path: String,
    src: String,
    /// `Err` holds front-end errors (the file never reached the verifier).
    report: Result<VerifyReport, Vec<planp_lang::error::LangError>>,
}

impl FileResult {
    fn accepted(&self) -> bool {
        self.report.as_ref().map(|r| r.accepted()).unwrap_or(false)
    }

    fn warning_count(&self) -> usize {
        self.report
            .as_ref()
            .map(|r| r.warnings().count())
            .unwrap_or(0)
    }
}

fn lint_file(path: &str, policy: Policy) -> Result<FileResult, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = match planp_lang::compile_front(&src) {
        Ok(prog) => Ok(verify(&prog, policy)),
        Err(e) => Err(vec![e]),
    };
    Ok(FileResult {
        path: path.to_string(),
        src,
        report,
    })
}

fn print_human(r: &FileResult) {
    println!(
        "{}: {}",
        r.path,
        if r.accepted() { "ACCEPTED" } else { "REJECTED" }
    );
    match &r.report {
        Ok(report) => {
            for c in &report.cost.channels {
                println!("  channel {}#{}: {}", c.name, c.overload, c.bound);
            }
            for d in &report.diagnostics {
                for line in d.render(&r.src).lines() {
                    println!("  {line}");
                }
            }
        }
        Err(errs) => {
            for e in errs {
                println!("  {}", e.render(&r.src));
            }
        }
    }
}

fn write_json(results: &[FileResult], out: &mut String) {
    out.push_str("{\"files\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_json_str(out, &r.path);
        out.push_str(",\"report\":");
        match &r.report {
            Ok(report) => report.write_json(&r.src, out),
            Err(errs) => {
                // Front-end failures never reach the verifier; emit the
                // same shape with the errors as E000 diagnostics.
                out.push_str("{\"accepted\":false,\"channels\":[],\"diagnostics\":[");
                for (j, e) in errs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    planp_analysis::Diagnostic::error("E000", e.span, e.message.clone())
                        .write_json(&r.src, out);
                }
                out.push_str("]}");
            }
        }
        out.push('}');
    }
    out.push_str("]}");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planp-lint: {e}");
            std::process::exit(2);
        }
    };
    let mut results = Vec::new();
    for path in &args.files {
        match lint_file(path, args.policy) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("planp-lint: {e}");
                std::process::exit(2);
            }
        }
    }
    if args.json {
        let mut out = String::new();
        write_json(&results, &mut out);
        println!("{out}");
    } else {
        for r in &results {
            print_human(r);
        }
    }
    let rejected = results.iter().filter(|r| !r.accepted()).count();
    let warnings: usize = results.iter().map(|r| r.warning_count()).sum();
    eprintln!(
        "{} file(s), {} rejected, {} warning(s)",
        results.len(),
        rejected,
        warnings
    );
    if rejected > 0 || (args.deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
