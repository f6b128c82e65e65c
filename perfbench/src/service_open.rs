//! `service-open`: an in-process `EnsembleService` (3 tenants, at most 4
//! active sessions, 4 warm pilots, 0 ms DB) fed by one submitter thread in
//! an open loop at 40 workflows/s, with stage counts {1, 2, 4, 8} × {4, 8,
//! 16, 32, 64} tasks per stage. Per-submission fixed costs dominate here:
//! AppManager set-up and teardown, stage barriers, lease and fair-share
//! wait. The broker's per-task path stays light.

use crate::gen::{self, Shape, Sub};
use crate::svc::{self, TENANTS};
use crate::{Outcome, Pass};
use entk_service::EnsembleService;
use std::time::Instant;

pub const RATE: f64 = 40.0;

pub fn mix() -> Vec<Shape> {
    gen::shapes(&[1, 2, 4, 8], &[4, 8, 16, 32, 64])
}

/// Untimed first submissions, one per stage count, so the measured load
/// finds every code path and pilot warm.
fn warm_up(service: &EnsembleService, seed: u64, out: &mut Outcome) -> u64 {
    let client = service.client();
    let subs = gen::deck("warm", &gen::shapes(&[1, 2, 4, 8], &[8]), 4, TENANTS, seed);
    for sub in &subs {
        out.attempted += 1;
        let ok = client
            .submit(sub.tenant.clone(), sub.workflow())
            .ok()
            .and_then(|id| client.wait(id, svc::SETTLE_DEADLINE))
            .is_some_and(|r| r.outcome.is_success());
        if !ok {
            out.fail(format!("{}: warm-up submission failed", sub.label));
        }
    }
    subs.len() as u64
}

pub fn run(p: &Pass, out: &mut Outcome) {
    let seed = p.seed;
    let mut service: Option<(EnsembleService, u64)> = None;
    for _ in 0..p.setups {
        if let Some((s, _)) = service.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        let s = EnsembleService::start(svc::config(seed, 0, None, p.telemetry));
        let warm = warm_up(&s, seed, out);
        out.push_setup(t0.elapsed());
        service = Some((s, warm));
    }
    let (service, warm) = service.expect("at least one set-up");
    let client = service.client();

    let n = (RATE * p.seconds).round() as usize;
    let subs: Vec<Sub> = gen::deck("so", &mix(), n, TENANTS, seed);
    let db_before = svc::db_round_trips(&service);
    let run = svc::open_loop(
        &client,
        &subs,
        RATE,
        p.tracer,
        "service",
        out,
        |sub| sub.workflow(),
        |c, sub, wf| c.submit(sub.tenant.clone(), wf),
    );
    svc::settle_idle(&client);
    if let (Some(a), Some(b)) = (db_before, svc::db_round_trips(&service)) {
        out.layer
            .insert("rts.db_round_trips_per_task", (b - a) / run.tasks as f64);
    }
    out.tasks_per_s = run.tasks as f64 / run.window_s;
    out.layer_tasks = subs.iter().map(|s| s.shape.tasks()).sum();
    svc::report_layers(&run.settled, out);

    let stats = service.shutdown();
    let accepted = warm + run.accepted;
    if stats.completed != accepted || stats.failed != 0 || stats.canceled != 0 {
        out.violations.push(format!(
            "service stats: completed {} failed {} canceled {} for {accepted} accepted",
            stats.completed, stats.failed, stats.canceled
        ));
    }
}
