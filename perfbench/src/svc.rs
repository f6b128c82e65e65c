//! What the two service workloads share: the service configuration, the
//! in-process open-loop load generator, and the per-layer figures read from
//! the reports the service returns.

use crate::gen::Sub;
use crate::spans::Tracer;
use crate::stats::{median, ms, quantile, sorted, us, OpenLoop};
use crate::{Outcome, RunFigures};
use entk_core::{ResourceDescription, TaskState};
use entk_service::{
    EnsembleService, ServiceClient, ServiceConfig, SubmissionId, SubmissionResult, SubmitError,
};
use hpc_sim::PlatformId;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const TENANTS: usize = 3;
pub const WARM_PILOTS: usize = 4;
/// A submission not settled this long after its due time counts as lost.
pub const SETTLE_DEADLINE: Duration = Duration::from_secs(60);

/// The service both workloads run: `WARM_PILOTS` warm 2-node TestRig
/// pilots, at most 4 active sessions, room for every submission.
pub fn config(seed: u64, db_ms: u64, journal: Option<PathBuf>, telemetry: bool) -> ServiceConfig {
    let resource = ResourceDescription::sim(PlatformId::TestRig, 2, 1_000_000_000)
        .with_db_latency(Duration::from_millis(db_ms))
        .with_seed(seed);
    let mut cfg = ServiceConfig::new(resource)
        .with_warm_pilots(WARM_PILOTS)
        .with_max_active(4)
        .with_max_pending(4096)
        .with_run_timeout(Duration::from_secs(120));
    if let Some(dir) = journal {
        cfg = cfg.with_journal_dir(dir);
    }
    if telemetry {
        // The service's own telemetry plane, to read DocDb round trips from
        // its public `/metrics` endpoint. It turns the program's recorder on
        // for every layer, so it runs in a pass of its own.
        let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
        cfg = cfg.with_listen_addr(any);
        cfg.observe.sample_interval = Duration::from_millis(25);
    }
    cfg
}

/// One settled submission as the client saw it, reduced to its figures as
/// soon as it arrives so the benchmark holds no reports.
pub struct Settled {
    pub i: usize,
    pub id: SubmissionId,
    pub began: Instant,
    pub returned: Instant,
    pub done: Instant,
    /// Server-side turnaround, admission to settle.
    pub turnaround: Duration,
    pub warm: Option<bool>,
    /// The run's report figures; `None` when the result failed its checks.
    pub run: Option<RunFigures>,
}

/// What one open-loop pass produced.
pub struct LoopRun {
    pub settled: Vec<Settled>,
    /// Submissions the service accepted.
    pub accepted: u64,
    /// Tasks of the submissions that settled successfully.
    pub tasks: usize,
    /// From the first due time to the last result in hand, seconds.
    pub window_s: f64,
}

/// Drive `subs` into the service in an open loop at `rate` submissions per
/// second from one submitter thread, while the calling thread collects
/// every result with `take_result`. `prepare` builds a submission's input
/// before its due time; `submit` is the timed call. Failures and
/// correctness violations go to `out`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<T>(
    client: &ServiceClient,
    subs: &[Sub],
    rate: f64,
    tracer: &Tracer,
    submit_layer: &'static str,
    out: &mut Outcome,
    prepare: impl Fn(&Sub) -> T + Sync,
    submit: impl Fn(&ServiceClient, &Sub, T) -> Result<SubmissionId, SubmitError> + Sync,
) -> LoopRun {
    let sched = OpenLoop::new(Instant::now() + Duration::from_millis(20), rate);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Result<SubmissionId, SubmitError>)>();
    let mut settled = Vec::with_capacity(subs.len());
    let mut accepted = 0u64;
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            for (i, sub) in subs.iter().enumerate() {
                let input = prepare(sub);
                sched.wait_for(i);
                let began = Instant::now();
                let r = submit(client, sub, input);
                if tx.send((i, began, Instant::now(), r)).is_err() {
                    return;
                }
            }
            drop(tx);
        });
        let mut outstanding: Vec<(usize, Instant, Instant, SubmissionId)> = Vec::new();
        let mut producing = true;
        loop {
            loop {
                match rx.try_recv() {
                    Ok((i, began, returned, Ok(id))) => {
                        accepted += 1;
                        outstanding.push((i, began, returned, id));
                    }
                    Ok((i, _, _, Err(e))) => out.fail(format!("{}: refused: {e}", subs[i].label)),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        producing = false;
                        break;
                    }
                }
            }
            outstanding.retain(|&(i, began, returned, id)| {
                let Some(result) = client.take_result(id) else {
                    return true;
                };
                let done = Instant::now();
                let sub = &subs[i];
                let ok = check_result(client, sub, &result, out);
                let run = ok
                    .then(|| result.outcome.report())
                    .flatten()
                    .map(|r| RunFigures::new(r, sub.shape.stages));
                if run.as_ref().is_some_and(|r| r.pilot_ready_timeout) {
                    out.pilot_ready_timeouts += 1;
                }
                settled.push(Settled {
                    i,
                    id,
                    began,
                    returned,
                    done,
                    turnaround: result.turnaround,
                    warm: result.warm_pilot,
                    run,
                });
                false
            });
            if !producing && outstanding.is_empty() {
                break;
            }
            let now = Instant::now();
            outstanding.retain(|&(i, _, _, id)| {
                let lost = now > sched.due(i) + SETTLE_DEADLINE;
                if lost {
                    out.fail(format!("{}: {id} lost (never settled)", subs[i].label));
                }
                !lost
            });
            std::thread::sleep(Duration::from_millis(1));
        }
        submitter.join().expect("submitter thread");
    });
    out.attempted += subs.len() as u64;
    let mut tasks = 0;
    for s in &settled {
        if s.run.is_some() {
            tasks += subs[s.i].shape.tasks();
        }
        out.late_ms.push(sched.late_ms(s.i, s.began));
        out.turnaround_ms.push(sched.since_due_ms(s.i, s.done));
        if tracer.enabled() {
            let unit = s.id.0;
            let root = tracer.reserve();
            tracer.record(
                "submit",
                submit_layer,
                Some(root),
                unit,
                s.began,
                s.returned,
            );
            if let Some(run) = &s.run {
                // The run happened inside the service; place it from the
                // reported turnaround and wall time.
                let settle = s.began + s.turnaround;
                let wall = Duration::from_secs_f64(run.wall_s).min(s.turnaround);
                tracer.record("run", "core", Some(root), unit, settle - wall, settle);
            }
            tracer.record_as(root, "wf", "service", None, unit, sched.due(s.i), s.done);
        }
    }
    settled.sort_by_key(|s| s.i);
    let last = settled.iter().map(|s| s.done).max().unwrap_or(sched.due(0));
    LoopRun {
        settled,
        accepted,
        tasks,
        window_s: last.saturating_duration_since(sched.due(0)).as_secs_f64(),
    }
}

/// A settled in-process result must be a success with every generated task
/// done, and must be handed out exactly once. Returns whether it was.
fn check_result(
    client: &ServiceClient,
    sub: &Sub,
    r: &SubmissionResult,
    out: &mut Outcome,
) -> bool {
    let done = r
        .outcome
        .report()
        .map(|rep| rep.workflow.count_in(TaskState::Done));
    let problem = if !r.outcome.is_success() {
        Some(format!("{} did not succeed", r.id))
    } else if done != Some(sub.shape.tasks()) {
        Some(format!(
            "tasks_done {done:?} != generated {}",
            sub.shape.tasks()
        ))
    } else if client.take_result(r.id).is_some() {
        Some(format!("{} settled twice", r.id))
    } else {
        None
    };
    if let Some(p) = &problem {
        out.fail(format!("{}: {p}", sub.label));
    }
    problem.is_none()
}

/// Per-layer figures of settled in-process submissions: each run's report
/// figures go to `out.runs` for `core.*`, and the client timings give
/// `service.*`.
pub fn report_layers(settled: &[Settled], out: &mut Outcome) {
    if settled.is_empty() {
        return;
    }
    out.runs
        .extend(settled.iter().filter_map(|s| s.run.clone()));
    let col = |f: &dyn Fn(&Settled) -> f64| -> Vec<f64> { settled.iter().map(f).collect() };
    let l = &mut out.layer;
    let submit_us = sorted(&col(&|s| us(s.returned - s.began)));
    l.insert("service.submit_us_p50", quantile(&submit_us, 0.5));
    l.insert("service.submit_us_p99", quantile(&submit_us, 0.99));
    let wait = sorted(&col(&|s| {
        let wall = s.run.as_ref().map_or(0.0, |r| r.wall_s);
        (s.turnaround.as_secs_f64() - wall).max(0.0) * 1e3
    }));
    l.insert("service.queue_wait_ms_p50", quantile(&wait, 0.5));
    l.insert("service.queue_wait_ms_p99", quantile(&wait, 0.99));
    let warm = settled.iter().filter(|s| s.warm == Some(true)).count();
    l.insert(
        "service.warm_lease_ratio",
        warm as f64 / settled.len() as f64,
    );
    let handoff = col(&|s| ms((s.done - s.began).saturating_sub(s.turnaround)));
    l.insert("service.handoff_ms_p50", median(&handoff));
}

/// DocDb round trips so far, read from the service's public `/metrics`.
/// The gauge sums the pool's idle runtimes, so read it when none is leased.
pub fn db_round_trips(service: &EnsembleService) -> Option<f64> {
    let addr = service.observe_addr()?;
    let ex = crate::wire::request(addr, "GET", "/metrics", None).ok()?;
    crate::wire::prom_value(&ex.body, "rts_db_round_trips")
}

/// Wait until the service has nothing queued or running, then one more
/// sampler period so its gauges have caught up.
pub fn settle_idle(client: &ServiceClient) {
    let deadline = Instant::now() + SETTLE_DEADLINE;
    while let Some(st) = client.stats() {
        if (st.pending == 0 && st.active == 0) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(100));
}
