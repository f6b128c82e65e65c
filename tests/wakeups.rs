//! Event-driven AppManager: component loops wake on named events (queue
//! delete/close, the progress and halt events, the RTS waker), never on a
//! poll timeout; a leased pilot forgets each session's units at teardown.
//!
//! The tests in this file are serialized: the busy-poll check counts the
//! wake-ups of every `entk-*` thread in the process.

use entk::core::appmanager::SessionAttachment;
use entk::core::QueueNamespace;
use entk::mq::Broker;
use entk::prelude::*;
use entk::rts::{PilotPool, PilotPoolConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn resource() -> ResourceDescription {
    ResourceDescription::sim(PlatformId::TestRig, 1, 1_000_000_000)
}

fn config() -> AppManagerConfig {
    AppManagerConfig::new(resource()).with_run_timeout(Duration::from_secs(60))
}

/// A one-RTS warm pool, so every session runs on the same pilot.
fn pool() -> PilotPool {
    PilotPool::new(PilotPoolConfig {
        rts: resource().rts_config(&Recorder::disabled()),
        pilot: resource().pilot_desc(),
        capacity: 1,
    })
}

fn noop_workflow(pipelines: usize, stages: usize, tasks: usize) -> Workflow {
    let mut wf = Workflow::new();
    for p in 0..pipelines {
        let mut pipeline = Pipeline::new(format!("p{p}"));
        for s in 0..stages {
            let mut stage = Stage::new(format!("s{s}"));
            for t in 0..tasks {
                stage.add_task(Task::new(format!("t{p}.{s}.{t}"), Executable::Noop));
            }
            pipeline.add_stage(stage);
        }
        wf.add_pipeline(pipeline);
    }
    wf
}

/// Run `wf` as session `n` on a shared broker with a lease from `pool`.
fn run_leased(
    cfg: AppManagerConfig,
    broker: &Broker,
    pool: &PilotPool,
    n: usize,
    wf: Workflow,
) -> RunReport {
    let attachment =
        SessionAttachment::shared(broker.clone(), QueueNamespace::session(format!("w{n:04}")))
            .with_lease(pool.lease());
    AppManager::new(cfg)
        .run_attached(wf, attachment)
        .expect("run completes")
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn leased_teardown_wakes_components_instead_of_waiting_out_timeouts() {
    let _serial = serial();
    let broker = Broker::new();
    let pool = pool();
    pool.prewarm(1);
    let teardowns: Vec<f64> = (0..5)
        .map(|n| {
            let report = run_leased(config(), &broker, &pool, n, noop_workflow(1, 2, 4));
            assert!(report.succeeded);
            report.overheads.entk_teardown_secs
        })
        .collect();
    let p50 = median(teardowns.clone());
    assert!(
        p50 < 0.005,
        "median teardown {:.1} ms (runs: {teardowns:?})",
        p50 * 1e3
    );
}

/// Sum of voluntary context switches (one per blocking wait that ended) of
/// this process's AppManager component threads, keyed by thread id.
#[cfg(target_os = "linux")]
fn component_wakeups() -> std::collections::HashMap<String, u64> {
    let mut out = std::collections::HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = entry.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("entk-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
        out.insert(format!("{tid} {}", comm.trim()), switches);
    }
    out
}

#[cfg(target_os = "linux")]
#[test]
fn components_do_not_busy_poll_while_a_task_runs() {
    let _serial = serial();
    let started = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&started);
    let wf = Workflow::new().with_pipeline(Pipeline::new("p").with_stage(
        Stage::new("s").with_task(Task::new(
            "one-second",
            Executable::compute(1.0, move || {
                flag.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_secs(1));
                Ok(())
            }),
        )),
    ));
    // The Heartbeat's periodic liveness check is its job, not a poll; push
    // it out of the measured window.
    let mut cfg = AppManagerConfig::new(ResourceDescription::local(1))
        .with_run_timeout(Duration::from_secs(60));
    cfg.heartbeat_interval = Duration::from_secs(30);
    let run = std::thread::spawn(move || AppManager::new(cfg).run(wf));

    let deadline = Instant::now() + Duration::from_secs(10);
    while !started.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "task never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let the submission's last acks settle, then watch an idle window.
    std::thread::sleep(Duration::from_millis(150));
    let before = component_wakeups();
    std::thread::sleep(Duration::from_millis(600));
    let after = component_wakeups();
    let report = run.join().unwrap().expect("run completes");
    assert!(report.succeeded);

    assert!(before.len() >= 6, "component threads not found: {before:?}");
    let woke: u64 = before
        .iter()
        .filter_map(|(k, b)| after.get(k).map(|a| a - b))
        .sum();
    assert!(
        woke <= 4,
        "component threads woke {woke} times in 600 ms of idle waiting: {before:?} -> {after:?}"
    );
}

#[test]
fn leased_pilot_holds_at_most_one_session_of_units() {
    let _serial = serial();
    let broker = Broker::new();
    let pool = pool();
    pool.prewarm(1);
    let rts = Arc::clone(pool.lease().rts());
    let mut largest = 0;
    for n in 0..200 {
        let tasks = 1 + n % 8;
        largest = largest.max(tasks);
        let report = run_leased(config(), &broker, &pool, n, noop_workflow(1, 1, tasks));
        assert!(report.succeeded);
        assert_eq!(report.unit_records.len(), tasks, "session {n} records");
        let (units, docs) = rts.resident_units();
        assert!(
            units <= largest && docs <= largest,
            "after session {n}: {units} units, {docs} docs (largest session {largest})"
        );
    }
    assert_eq!(pool.stats().cold_boots, 0, "every session reused one pilot");
}

#[test]
fn early_queue_close_drops_no_counted_outcome() {
    let _serial = serial();
    let broker = Broker::new();
    let pool = pool();
    pool.prewarm(1);
    let (pipelines, stages, tasks) = (2, 3, 8);
    let total = (pipelines * stages * tasks) as u64;
    for n in 0..10 {
        // Standalone (broker closed early) and shared (queues deleted
        // early) teardown; tracing on so CriticalPath collects samples.
        let traced = || config().with_recorder(Recorder::new());
        let standalone = AppManager::new(traced())
            .run(noop_workflow(pipelines, stages, tasks))
            .expect("standalone run");
        let leased = run_leased(
            traced(),
            &broker,
            &pool,
            n,
            noop_workflow(pipelines, stages, tasks),
        );
        for report in [standalone, leased] {
            assert!(report.succeeded);
            assert_eq!(report.overheads.tasks_done, total);
            // Scheduling, Scheduled, Submitting, Submitted, Executed, Done.
            assert_eq!(report.overheads.transitions, 6 * total);
            assert_eq!(report.critical_path.tasks(), total);
        }
    }
}

#[test]
fn cancel_settles_promptly() {
    let _serial = serial();
    let wf = Workflow::new().with_pipeline(
        Pipeline::new("long")
            .with_stage(
                Stage::new("s0").with_task(Task::new("forever", Executable::Sleep { secs: 1e9 })),
            )
            .with_stage(Stage::new("s1").with_task(Task::new("never", Executable::Noop))),
    );
    let mut amgr = AppManager::new(config());
    let token = amgr.cancel_token();
    let canceled_at = Arc::new(Mutex::new(None));
    let stamp = Arc::clone(&canceled_at);
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        *stamp.lock().unwrap() = Some(Instant::now());
        token.cancel();
    });
    let report = amgr.run(wf).expect("canceled run settles");
    let settled = canceled_at.lock().unwrap().expect("canceled").elapsed();
    canceller.join().unwrap();
    assert!(report.canceled);
    assert_eq!(report.workflow.count_in(TaskState::Canceled), 2);
    assert!(
        settled < Duration::from_secs(1),
        "run returned {settled:?} after cancel"
    );
}
