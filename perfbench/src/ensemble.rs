//! `ensemble-16k`: a standalone AppManager running 4 pipelines × 4 stages ×
//! 1024 `Sleep` tasks on the simulated TestRig, repeated for the run's
//! duration. This is the paper's O(10^4)-task regime: the broker and the
//! WFProcessor/ExecManager/Synchronizer loops do almost all the work, and
//! no service, gateway or journal is involved.

use crate::gen;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Outcome, Pass};
use entk_core::{AppManager, AppManagerConfig, ResourceDescription, TaskState, Workflow};
use hpc_sim::PlatformId;
use std::time::{Duration, Instant};

pub const PIPELINES: usize = 4;
pub const STAGES: usize = 4;
pub const TASKS: usize = 1024;
pub const TOTAL_TASKS: usize = PIPELINES * STAGES * TASKS;
/// Runs per measurement even when the time is up, so the tail rule has
/// samples to work with.
const MIN_RUNS: usize = 11;

fn resource(seed: u64) -> ResourceDescription {
    ResourceDescription::sim(PlatformId::TestRig, 4, 1_000_000_000).with_seed(seed)
}

/// One timed `AppManager::run`, construction to report.
fn run_once(
    template: &Workflow,
    seed: u64,
    out: &mut Outcome,
    tracer: &Tracer,
    unit: u64,
) -> Option<f64> {
    let wf = template.clone();
    let began = Instant::now();
    let mut amgr = AppManager::new(
        AppManagerConfig::new(resource(seed)).with_run_timeout(Duration::from_secs(120)),
    );
    let result = amgr.run(wf);
    let ended = Instant::now();
    tracer.record("run", "core", None, unit, began, ended);
    out.attempted += 1;
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("run {unit}: {e}"));
            return None;
        }
    };
    let done = report.workflow.count_in(TaskState::Done);
    if !report.succeeded || done != TOTAL_TASKS || report.overheads.tasks_done != TOTAL_TASKS as u64
    {
        out.fail(format!(
            "run {unit}: succeeded={} tasks_done={done} (profiler {}) != {TOTAL_TASKS}",
            report.succeeded, report.overheads.tasks_done
        ));
        return None;
    }
    let figures = crate::RunFigures::new(&report, STAGES);
    out.pilot_ready_timeouts += u64::from(figures.pilot_ready_timeout);
    out.runs.push(figures);
    Some((ended - began).as_secs_f64())
}

pub fn run(p: &Pass, out: &mut Outcome) {
    let seed = p.seed;
    // Set-up: generate the workflow and do one untimed warm-up run.
    let mut template = None;
    for _ in 0..p.setups {
        let t0 = Instant::now();
        let wf = gen::ensemble(PIPELINES, STAGES, TASKS, seed);
        let mut warm = Outcome::default();
        run_once(&wf, seed, &mut warm, &Tracer::new(false), 0);
        out.absorb_setup(warm);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        template = Some(wf);
    }
    let template = template.expect("at least one set-up");

    let t0 = Instant::now();
    let mut unit = 0;
    let mut rates = Vec::new();
    while unit < MIN_RUNS as u64 || t0.elapsed().as_secs_f64() < p.seconds {
        unit += 1;
        if let Some(wall) = run_once(&template, seed, out, p.tracer, unit) {
            out.turnaround_ms.push(wall * 1e3);
            rates.push(TOTAL_TASKS as f64 / wall);
        }
    }
    out.tasks_per_s = median(&rates);
    out.layer_tasks = TOTAL_TASKS;
}
