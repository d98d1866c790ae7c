//! The download path called one stage at a time, each stage a span.
//! Every workload loads programs, so every traced run uses this.

use crate::trace::{median, Tracer};
use crate::Report;
use planp_analysis::{
    cost_bounds, lint, model_check, state_effects, summarize, verify, Policy, DEFAULT_STATE_BUDGET,
};
use planp_lang::{compile_front, count_lines, parse_program, typecheck};
use planp_runtime::LoadedProgram;
use planp_vm::jit;
use std::rc::Rc;

/// Per-stage samples, in µs.
#[derive(Default)]
pub struct Stages {
    /// `parse_program` / `parse_plan`.
    pub parse: Vec<f64>,
    /// `typecheck`.
    pub typecheck: Vec<f64>,
    /// `verify`.
    pub verify: Vec<f64>,
    /// `jit::compile`.
    pub codegen: Vec<f64>,
    /// `PlanpLayer::new` / `install_planp`.
    pub install: Vec<f64>,
    /// `PlanCheck::new` + `PlanCheck::verify`.
    pub plan: Vec<f64>,
    /// Each analysis called on its own: summary, cost, state, model
    /// check, lint.
    pub analyses: [Vec<f64>; 5],
    /// States the model checker explored over the workload's programs.
    pub states: u64,
}

/// Why a staged load stopped.
#[derive(Debug)]
pub enum Refused {
    /// The verifier refused the program; the code of its first error
    /// ("" when it gave none).
    Rejected(&'static str),
    /// The program did not parse or type-check.
    Broken(String),
}

/// Times `f` as a span named `name` and pushes its µs onto `samples`.
pub fn stage<T>(
    t: &mut Tracer,
    name: &'static str,
    samples: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let open = t.begin();
    let out = f();
    samples.push(t.end(open, name) as f64 / 1e3);
    out
}

/// `planp_runtime::load`, one span per stage: parse, type check,
/// verify, JIT compile.
pub fn load_staged(
    src: &str,
    policy: Policy,
    t: &mut Tracer,
    s: &mut Stages,
) -> Result<LoadedProgram, Refused> {
    let ast = stage(t, "lang.parse", &mut s.parse, || parse_program(src))
        .map_err(|e| Refused::Broken(e.to_string()))?;
    let prog = stage(t, "lang.typecheck", &mut s.typecheck, || typecheck(&ast))
        .map_err(|e| Refused::Broken(e.to_string()))?;
    let prog = Rc::new(prog);
    let report = stage(t, "analysis.verify", &mut s.verify, || {
        verify(&prog, policy)
    });
    if !report.accepted() {
        return Err(Refused::Rejected(
            report.errors().first().map_or("", |d| d.code),
        ));
    }
    let (compiled, codegen) = stage(t, "vm.codegen", &mut s.codegen, || {
        jit::compile(prog.clone())
    });
    Ok(LoadedProgram {
        source: src.to_string(),
        prog,
        compiled: Rc::new(compiled),
        report,
        codegen,
        lines: count_lines(src),
    })
}

/// Each analysis called on its own over `src` (which must type-check);
/// returns the states the model checker explored.
pub fn analyze(src: &str, policy: Policy, t: &mut Tracer, s: &mut Stages) -> u64 {
    let Ok(prog) = compile_front(src) else {
        return 0;
    };
    let [summary, cost, state, mc, lint_us] = &mut s.analyses;
    let sum = stage(t, "analysis.summary", summary, || summarize(&prog));
    stage(t, "analysis.cost", cost, || cost_bounds(&prog));
    stage(t, "analysis.state", state, || state_effects(&prog));
    let report = stage(t, "analysis.modelcheck", mc, || {
        model_check(&prog, &sum, DEFAULT_STATE_BUDGET)
    });
    stage(t, "analysis.lint", lint_us, || lint(&prog, &sum, policy));
    report.states as u64
}

impl Stages {
    /// Sets the per-stage medians (and the model checker's states).
    pub fn report(&mut self, report: &mut Report) {
        let [summary, cost, state, mc, lint_us] = &mut self.analyses;
        report.set("lang.parse_us", median(&mut self.parse));
        report.set("lang.typecheck_us", median(&mut self.typecheck));
        report.set("analysis.verify_us", median(&mut self.verify));
        report.set("analysis.summary_us", median(summary));
        report.set("analysis.cost_us", median(cost));
        report.set("analysis.state_us", median(state));
        report.set("analysis.modelcheck_us", median(mc));
        report.set("analysis.lint_us", median(lint_us));
        report.set("analysis.plan_us", median(&mut self.plan));
        report.set("analysis.modelcheck_states", self.states as f64);
        report.set("vm.codegen_us", median(&mut self.codegen));
        report.set("runtime.install_us", median(&mut self.install));
    }
}
