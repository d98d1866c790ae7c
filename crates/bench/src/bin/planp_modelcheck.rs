//! `planp-modelcheck` — run the explicit-state model checker over
//! PLAN-P source files, render counterexample witnesses, optionally
//! replay them through the simulator, and gate CI on a verdict
//! baseline.
//!
//! ```text
//! cargo run --release -p planp-bench --bin planp_modelcheck -- \
//!     --replay --baseline asps/MODELCHECK_BASELINE.txt asps/*.planp
//! ```
//!
//! With no files, the twelve bundled ASPs are checked. Options:
//!
//! * `--json` — one byte-stable JSON document on stdout.
//! * `--replay` — replay each file with a violated property through
//!   the two-router simulator and report whether the concrete traffic
//!   exhibits the predicted loop/drop/exception.
//! * `--baseline FILE` — compare each file's verdicts against the
//!   checked-in baseline; exit 1 on any difference (the CI gate).
//! * `--write-baseline FILE` — regenerate the baseline file instead
//!   (an existing file's `witness=abstract` markers are preserved).
//!
//! A baseline line may end with `witness=abstract`, declaring that
//! file's Violated verdict a *conservative over-approximation*: its
//! counterexample needs conditions (e.g. repeated packet loss) the
//! clean replay topology never produces, so `--replay` confirmation is
//! waived for it. `reliable_relay.planp` is the canonical case — the
//! checker cannot prove its NACK/retransmit cycle terminates, but the
//! cycle only recurs while the network keeps losing the retransmission.
//!
//! Exit status: 0 on success, 1 on baseline mismatch or a predicted
//! violation that fails to replay (unless marked abstract), 2 on usage
//! or I/O errors.

use planp_analysis::diag::push_json_str;
use planp_analysis::modelcheck::{model_check, ModelCheckReport, DEFAULT_STATE_BUDGET};
use planp_analysis::summary::summarize;
use planp_runtime::replay_asp_traced;

struct Args {
    json: bool,
    replay: bool,
    baseline: Option<String>,
    write_baseline: Option<String>,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        replay: false,
        baseline: None,
        write_baseline: None,
        files: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => args.json = true,
            "--replay" => args.replay = true,
            "--baseline" => {
                args.baseline = Some(value(&argv, i, "--baseline")?);
                i += 1;
            }
            "--write-baseline" => {
                args.write_baseline = Some(value(&argv, i, "--write-baseline")?);
                i += 1;
            }
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
    Ok(args)
}

const HELP: &str = "\
planp-modelcheck: exhaustively model-check PLAN-P files, render witnesses
usage: planp_modelcheck [options] [<file.planp>...]
  (no files: check the twelve bundled ASPs)
  --json                 byte-stable machine output
  --replay               replay violations through the simulator
  --baseline FILE        fail if verdicts differ from FILE; lines marked
                         witness=abstract waive replay confirmation
  --write-baseline FILE  regenerate FILE from current verdicts
";

/// Model-checking one source produced this.
struct FileResult {
    name: String,
    src: String,
    /// `Err` holds the front-end error (the file never reached the
    /// checker).
    report: Result<ModelCheckReport, planp_lang::error::LangError>,
    replay: Option<planp_runtime::ReplayReport>,
    /// ASCII span trees of the replay's probe packets (`--replay` only):
    /// the causal shape of the predicted loop/drop/exception.
    replay_trees: Option<String>,
}

impl FileResult {
    /// Verdict pair as baseline text, `error error` for front-end
    /// failures.
    fn verdict_line(&self) -> String {
        match &self.report {
            Ok(r) => format!(
                "{} termination={} delivery={}",
                self.name,
                r.termination.as_str(),
                r.delivery.as_str()
            ),
            Err(_) => format!("{} termination=error delivery=error", self.name),
        }
    }
}

fn check_source(name: &str, src: &str, replay: bool) -> FileResult {
    let report = match planp_lang::compile_front(src) {
        Ok(prog) => {
            let sum = summarize(&prog);
            Ok(model_check(&prog, &sum, DEFAULT_STATE_BUDGET))
        }
        Err(e) => Err(e),
    };
    // Replay only when the checker predicts a violation: the report
    // records whether the concrete traffic exhibits it.
    let traced = match (&report, replay) {
        (Ok(r), true) if !r.witnesses.is_empty() => replay_asp_traced(src).ok(),
        _ => None,
    };
    let (replay, replay_trees) = match traced {
        Some((rep, trees)) => (Some(rep), Some(trees)),
        None => (None, None),
    };
    FileResult {
        name: name.to_string(),
        src: src.to_string(),
        report,
        replay,
        replay_trees,
    }
}

fn print_human(r: &FileResult) {
    match &r.report {
        Ok(report) => {
            println!(
                "{}: termination {}, delivery {} ({} state(s), {} transition(s){})",
                r.name,
                report.termination.as_str(),
                report.delivery.as_str(),
                report.states,
                report.transitions,
                if report.exhausted {
                    ", budget exhausted"
                } else {
                    ""
                }
            );
            for w in &report.witnesses {
                for line in w.render(&r.src).lines() {
                    println!("  {line}");
                }
            }
        }
        Err(e) => println!("{}: front-end error\n  {}", r.name, e.render(&r.src)),
    }
    if let Some(rep) = &r.replay {
        println!(
            "  replay: sent {} dispatched {} delivered {} dropped {} errors {} \
             (loop {}, drop {}, exception {})",
            rep.sent,
            rep.dispatches,
            rep.delivered,
            rep.dropped,
            rep.errors,
            rep.confirmed_loop,
            rep.confirmed_drop,
            rep.confirmed_exception
        );
    }
    if let Some(trees) = &r.replay_trees {
        for line in trees.lines() {
            println!("    {line}");
        }
    }
}

fn write_json(results: &[FileResult], out: &mut String) {
    use std::fmt::Write as _;
    out.push_str("{\"files\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_json_str(out, &r.name);
        out.push_str(",\"modelcheck\":");
        match &r.report {
            Ok(report) => report.write_json(&r.src, out),
            Err(e) => {
                out.push_str("{\"error\":");
                push_json_str(out, &e.message);
                out.push('}');
            }
        }
        match &r.replay {
            Some(rep) => {
                let _ = write!(
                    out,
                    ",\"replay\":{{\"sent\":{},\"dispatches\":{},\"delivered\":{},\"dropped\":{},\"errors\":{},\"confirmed_loop\":{},\"confirmed_drop\":{},\"confirmed_exception\":{}}}",
                    rep.sent,
                    rep.dispatches,
                    rep.delivered,
                    rep.dropped,
                    rep.errors,
                    rep.confirmed_loop,
                    rep.confirmed_drop,
                    rep.confirmed_exception
                );
            }
            None => out.push_str(",\"replay\":null"),
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// True if every predicted violation the replay ran for was exhibited
/// by the concrete traffic.
fn replays_confirm(r: &FileResult) -> bool {
    let (Ok(report), Some(rep)) = (&r.report, &r.replay) else {
        return true;
    };
    report.witnesses.iter().all(|w| rep.confirms(&w.kind))
}

/// The file names a baseline marks `witness=abstract` — their verdicts
/// are conservative over-approximations whose witnesses need conditions
/// the clean replay topology never produces (e.g. repeated loss), so
/// replay confirmation is waived for them.
fn abstract_witness_names(baseline: &str) -> std::collections::HashSet<String> {
    baseline
        .lines()
        .filter(|l| l.split_whitespace().any(|tok| tok == "witness=abstract"))
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect()
}

/// A baseline line reduced to its verdict triple (path + two verdicts),
/// dropping any trailing markers, for comparison against
/// [`FileResult::verdict_line`].
fn verdict_triple(line: &str) -> String {
    line.split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders the baseline file for `results`: one verdict line per ASP,
/// **sorted by name** — so the emitted file never depends on the argv
/// or shell-glob order the sources arrived in — with the
/// `witness=abstract` markers from `abstract_names` re-applied.
fn baseline_text(
    results: &[FileResult],
    abstract_names: &std::collections::HashSet<String>,
) -> String {
    let mut entries: Vec<(&str, String)> = results
        .iter()
        .map(|r| {
            let mut line = r.verdict_line();
            if abstract_names.contains(&r.name) {
                line.push_str(" witness=abstract");
            }
            (r.name.as_str(), line)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut s: String = entries
        .into_iter()
        .map(|(_, line)| line)
        .collect::<Vec<_>>()
        .join("\n");
    s.push('\n');
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planp-modelcheck: {e}");
            std::process::exit(2);
        }
    };

    let mut results = Vec::new();
    if args.files.is_empty() {
        for (name, src, _policy) in planp_bench::bundled_asps() {
            results.push(check_source(name, src, args.replay));
        }
    } else {
        for path in &args.files {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("planp-modelcheck: cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            results.push(check_source(path, &src, args.replay));
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

    let baseline = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("planp-modelcheck: cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let abstract_names = baseline
        .as_deref()
        .map(abstract_witness_names)
        .unwrap_or_default();

    let mut failed = false;
    for r in &results {
        if !replays_confirm(r) {
            if abstract_names.contains(&r.name) {
                eprintln!(
                    "planp-modelcheck: {}: witness is abstract per the baseline; \
                     replay confirmation waived",
                    r.name
                );
            } else {
                eprintln!(
                    "planp-modelcheck: {}: predicted violation did not replay",
                    r.name
                );
                failed = true;
            }
        }
    }

    if let Some(path) = &args.write_baseline {
        // Preserve the previous file's witness=abstract markers: the
        // checker cannot tell an abstract witness from a concrete one,
        // so regeneration must not silently drop the annotation.
        let old_abstract = std::fs::read_to_string(path)
            .map(|s| abstract_witness_names(&s))
            .unwrap_or_default();
        if let Err(e) = std::fs::write(path, baseline_text(&results, &old_abstract)) {
            eprintln!("planp-modelcheck: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    } else if let (Some(path), Some(expected)) = (&args.baseline, &baseline) {
        let actual = baseline_text(&results, &abstract_names);
        let expected_lines: Vec<String> = expected.lines().map(verdict_triple).collect();
        let actual_lines: Vec<String> = actual.lines().map(verdict_triple).collect();
        if expected_lines != actual_lines {
            eprintln!("planp-modelcheck: verdicts differ from {path}:");
            for (e, a) in expected_lines.iter().zip(actual_lines.iter()) {
                if e != a {
                    eprintln!("  - {e}\n  + {a}");
                }
            }
            let (en, an) = (expected_lines.len(), actual_lines.len());
            if en != an {
                eprintln!("  ({en} baseline line(s), {an} checked)");
            }
            failed = true;
        }
    }

    let violated = results
        .iter()
        .filter(|r| {
            r.report
                .as_ref()
                .map(|rep| !rep.witnesses.is_empty())
                .unwrap_or(true)
        })
        .count();
    eprintln!("{} file(s), {} with violations", results.len(), violated);
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const FWD: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))";

    #[test]
    fn baseline_text_is_sorted_by_name_regardless_of_input_order() {
        let results: Vec<FileResult> = ["z.planp", "asps/a.planp", "asps/buggy/k.planp"]
            .iter()
            .map(|n| check_source(n, FWD, false))
            .collect();
        let text = baseline_text(&results, &HashSet::new());
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(names, vec!["asps/a.planp", "asps/buggy/k.planp", "z.planp"]);

        // `witness=abstract` markers survive regeneration, still sorted.
        let marked: HashSet<String> = std::iter::once("z.planp".to_string()).collect();
        let text = baseline_text(&results, &marked);
        assert!(text.ends_with("z.planp termination=proved delivery=proved witness=abstract\n"));
    }
}
