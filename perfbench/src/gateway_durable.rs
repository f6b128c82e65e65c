//! `gateway-durable`: an `EnsembleService` with its journal on, fronted by
//! the HTTP `Gateway` on loopback, with 1 ms DocDb latency. One thread
//! POSTs `WorkflowSpec`s in an open loop at 20 workflows/s (1, 2 or 4
//! stages × 8 tasks); a second polls `GET /v1/workflows/<id>` until each is
//! terminal. After the load the service is killed and recovered from the
//! journal the run produced. The same service layer as `service-open`, used
//! the durable, write-heavy way.

use crate::gen::{self, Shape, Sub};
use crate::spans::Tracer;
use crate::stats::{median, ms, quantile, sorted, tail, OpenLoop};
use crate::svc::{self, TENANTS};
use crate::wire::{field, request, Exchange};
use crate::{Outcome, Pass};
use entk_gateway::Gateway;
use entk_service::{EnsembleService, SubmissionId, SubmissionStatus};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const RATE: f64 = 20.0;
pub const DB_MS: u64 = 1;
/// Length of the traced run's in-process `submit_spec` pass on the same
/// durable service.
const RUNG_SECONDS: f64 = 2.0;

pub fn mix() -> Vec<Shape> {
    gen::shapes(&[1, 2, 4], &[8])
}

fn body(sub: &Sub) -> String {
    format!(
        "{{\"tenant\":\"{}\",\"workflow\":{}}}",
        sub.tenant,
        sub.spec().to_json()
    )
}

/// A workflow the gateway accepted, as the polling client saw it settle.
struct WireDone {
    i: usize,
    post: Exchange,
    done: Instant,
    server_turnaround_s: f64,
    gets: usize,
}

/// Per-request timings of the wire client.
#[derive(Default)]
struct WireSamples {
    connect_ms: Vec<f64>,
    get_ms: Vec<f64>,
}

struct Booted {
    service: EnsembleService,
    gateway: Gateway,
    addr: SocketAddr,
    ids: Vec<SubmissionId>,
}

/// Start the durable service (a fresh journal epoch), bind the gateway and
/// push a few untimed workflows through the wire.
fn boot(seed: u64, dir: &Path, telemetry: bool, out: &mut Outcome) -> Booted {
    let service = EnsembleService::start(svc::config(seed, DB_MS, Some(dir.into()), telemetry));
    let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
    let gateway = Gateway::start(any, service.client(), service.recorder()).expect("bind gateway");
    let addr = gateway.local_addr();
    let subs = gen::deck("warm", &mix(), 3, TENANTS, seed);
    let sched = OpenLoop::new(Instant::now(), RATE);
    let mut ids = Vec::new();
    let mut samples = WireSamples::default();
    let done = wire_load(
        addr,
        &subs,
        sched,
        &Tracer::new(false),
        out,
        &mut ids,
        &mut samples,
    );
    if done.len() != subs.len() {
        out.violations.push("gateway warm-up did not settle".into());
    }
    Booted {
        service,
        gateway,
        addr,
        ids,
    }
}

/// POST `subs` on schedule from one thread and poll them to a terminal
/// state from the calling thread. Accepted ids are appended to `ids`.
fn wire_load(
    addr: SocketAddr,
    subs: &[Sub],
    sched: OpenLoop,
    tracer: &Tracer,
    out: &mut Outcome,
    ids: &mut Vec<SubmissionId>,
    samples: &mut WireSamples,
) -> Vec<WireDone> {
    let (tx, rx) = mpsc::channel::<(usize, std::io::Result<Exchange>)>();
    let mut done = Vec::with_capacity(subs.len());
    std::thread::scope(|scope| {
        let poster = scope.spawn(|| {
            for (i, sub) in subs.iter().enumerate() {
                let body = body(sub);
                sched.wait_for(i);
                if tx
                    .send((i, request(addr, "POST", "/v1/workflows", Some(&body))))
                    .is_err()
                {
                    return;
                }
            }
            drop(tx);
        });
        // (index, id, POST exchange, root span, GETs so far)
        let mut outstanding: Vec<(usize, SubmissionId, Exchange, u64, usize)> = Vec::new();
        let mut posting = true;
        while posting || !outstanding.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok((i, Ok(ex))) => {
                        let id = field(&ex.body, "id").and_then(entk_gateway::wire::parse_id);
                        match (ex.status, id) {
                            (202, Some(id)) => {
                                ids.push(id);
                                let root = tracer.reserve();
                                outstanding.push((i, id, ex, root, 0));
                            }
                            _ => out.fail(format!(
                                "{}: POST answered {}: {}",
                                subs[i].label, ex.status, ex.body
                            )),
                        }
                    }
                    Ok((i, Err(e))) => out.fail(format!("{}: POST failed: {e}", subs[i].label)),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        posting = false;
                        break;
                    }
                }
            }
            if outstanding.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let mut k = 0;
            while k < outstanding.len() {
                let (i, id, _, root, _) = outstanding[k];
                let get = request(addr, "GET", &format!("/v1/workflows/{id}"), None);
                outstanding[k].4 += 1;
                let terminal = match get {
                    Ok(g) => {
                        samples.connect_ms.push(ms(g.connected - g.began));
                        samples.get_ms.push(ms(g.ended - g.began));
                        tracer.record("get", "gateway", Some(root), id.0, g.began, g.ended);
                        match (g.status, field(&g.body, "state")) {
                            (200, Some("queued" | "running")) => None,
                            (200, Some(_)) => Some(Ok(g)),
                            _ => Some(Err(format!("GET answered {}: {}", g.status, g.body))),
                        }
                    }
                    Err(e) => Some(Err(format!("GET failed: {e}"))),
                };
                let lost = sched.due(i) + svc::SETTLE_DEADLINE < Instant::now();
                match terminal {
                    None if !lost => {
                        k += 1;
                        continue;
                    }
                    None => out.fail(format!("{}: {id} lost (never settled)", subs[i].label)),
                    Some(Err(e)) => out.fail(format!("{}: {e}", subs[i].label)),
                    Some(Ok(g)) => {
                        let (_, _, post, root, gets) = outstanding.swap_remove(k);
                        if let Err(e) = check_terminal(&g.body, &subs[i]) {
                            out.fail(format!("{}: {e}", subs[i].label));
                        } else {
                            tracer.record(
                                "post",
                                "gateway",
                                Some(root),
                                id.0,
                                post.began,
                                post.ended,
                            );
                            tracer.record_as(
                                root,
                                "wf",
                                "service",
                                None,
                                id.0,
                                sched.due(i),
                                g.ended,
                            );
                            done.push(WireDone {
                                i,
                                post,
                                done: g.ended,
                                server_turnaround_s: field(&g.body, "turnaround_secs")
                                    .and_then(|v| v.parse().ok())
                                    .unwrap_or(0.0),
                                gets,
                            });
                        }
                        continue;
                    }
                }
                outstanding.swap_remove(k);
            }
        }
        poster.join().expect("poster thread");
    });
    out.attempted += subs.len() as u64;
    done
}

/// A terminal result must be a success with every generated task done.
fn check_terminal(body: &str, sub: &Sub) -> Result<(), String> {
    let state = field(body, "state");
    let success = field(body, "success");
    let tasks: Option<usize> = field(body, "tasks_done").and_then(|v| v.parse().ok());
    if state != Some("done") || success != Some("true") || tasks != Some(sub.shape.tasks()) {
        return Err(format!(
            "terminal {state:?} success {success:?} tasks_done {tasks:?}, expected {} tasks",
            sub.shape.tasks()
        ));
    }
    Ok(())
}

fn journal_footprint(dir: &Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .fold((0, 0), |(files, bytes), m| (files + 1, bytes + m.len()))
        })
        .unwrap_or((0, 0))
}

pub fn run(p: &Pass, out: &mut Outcome) {
    let (seed, tracer) = (p.seed, p.tracer);
    let dir: PathBuf = crate::out_dir().join(format!("journal-{}", std::process::id()));
    let mut booted: Option<Booted> = None;
    for _ in 0..p.setups {
        if let Some(b) = booted.take() {
            b.gateway.stop();
            b.service.shutdown();
        }
        let t0 = Instant::now();
        let b = boot(seed, &dir, p.telemetry, out);
        out.push_setup(t0.elapsed());
        booted = Some(b);
    }
    let Booted {
        service,
        gateway,
        addr,
        mut ids,
    } = booted.expect("at least one set-up");
    let client = service.client();

    // The wire load.
    let n = (RATE * p.seconds).round() as usize;
    let subs = gen::deck("gd", &mix(), n, TENANTS, seed);
    let db_before = svc::db_round_trips(&service);
    let sched = OpenLoop::new(Instant::now() + Duration::from_millis(20), RATE);
    let mut samples = WireSamples::default();
    let done = wire_load(addr, &subs, sched, tracer, out, &mut ids, &mut samples);
    svc::settle_idle(&client);
    let tasks: usize = done.iter().map(|d| subs[d.i].shape.tasks()).sum();
    if let (Some(a), Some(b)) = (db_before, svc::db_round_trips(&service)) {
        out.layer
            .insert("rts.db_round_trips_per_task", (b - a) / tasks.max(1) as f64);
    }
    let last = done.iter().map(|d| d.done).max().unwrap_or(sched.due(0));
    out.tasks_per_s = tasks as f64 / last.saturating_duration_since(sched.due(0)).as_secs_f64();
    out.layer_tasks = subs.iter().map(|s| s.shape.tasks()).sum();
    let mut submit_ms = Vec::new();
    let mut post_ms = Vec::new();
    let mut wire_ms = Vec::new();
    for d in &done {
        out.turnaround_ms.push(sched.since_due_ms(d.i, d.done));
        out.late_ms.push(sched.late_ms(d.i, d.post.began));
        samples.connect_ms.push(ms(d.post.connected - d.post.began));
        submit_ms.push(sched.since_due_ms(d.i, d.post.ended));
        post_ms.push(ms(d.post.ended - d.post.began));
        wire_ms.push(ms(d.done - d.post.began) - d.server_turnaround_s * 1e3);
    }
    if !done.is_empty() {
        let l = &mut out.layer;
        let submit = sorted(&submit_ms);
        l.insert("gateway.submit_p50_ms", quantile(&submit, 0.5));
        l.insert("gateway.submit_tail_ms", tail(&submit).value);
        l.insert("gateway.connect_ms_p50", median(&samples.connect_ms));
        let post = sorted(&post_ms);
        l.insert("gateway.post_ms_p50", quantile(&post, 0.5));
        l.insert("gateway.post_ms_p99", quantile(&post, 0.99));
        l.insert("gateway.get_ms_p50", median(&samples.get_ms));
        let gets: usize = done.iter().map(|d| d.gets).sum();
        l.insert("gateway.gets_per_wf", gets as f64 / done.len() as f64);
        l.insert("gateway.wire_ms_p50", median(&wire_ms));
    }

    // Traced run only: the durable in-process path on the same service,
    // for the journal's submit cost and the reports the wire does not carry.
    if tracer.enabled() {
        let rung_subs = gen::deck(
            "jr",
            &mix(),
            (RATE * RUNG_SECONDS) as usize,
            TENANTS,
            seed ^ 1,
        );
        let mut rung_out = Outcome::default();
        let run = svc::open_loop(
            &client,
            &rung_subs,
            RATE,
            tracer,
            "journal",
            &mut rung_out,
            |sub| sub.spec(),
            |c, sub, spec| c.submit_spec(sub.tenant.clone(), spec, None),
        );
        ids.extend(run.settled.iter().map(|s| s.id));
        let submit_us: Vec<f64> = run
            .settled
            .iter()
            .map(|s| crate::stats::us(s.returned - s.began))
            .collect();
        out.layer
            .insert("journal.submit_spec_us_p50", median(&submit_us));
        svc::report_layers(&run.settled, &mut rung_out);
        out.absorb_rung(rung_out);
        svc::settle_idle(&client);
    }

    // Everything accepted settled exactly once before the crash...
    let accepted = ids.len() as u64;
    let (files, bytes) = journal_footprint(&dir);
    out.layer
        .insert("journal.bytes_per_wf", bytes as f64 / accepted as f64);
    out.layer
        .insert("journal.files_per_wf", files as f64 / accepted as f64);
    match client.stats() {
        Some(st) if st.completed == accepted && st.failed == 0 && st.canceled == 0 => {}
        st => out
            .violations
            .push(format!("before kill: stats {st:?} for {accepted} accepted")),
    }
    gateway.stop();
    service.kill();

    // ...and recovery from the journal restores exactly that.
    out.attempted += 1;
    let t0 = Instant::now();
    let recovered = EnsembleService::recover(svc::config(seed, DB_MS, Some(dir.clone()), false));
    let t1 = Instant::now();
    tracer.record("recover", "journal", None, 0, t0, t1);
    out.layer.insert("journal.recover_ms", ms(t1 - t0));
    match recovered {
        Err(e) => out.fail(format!("recover failed: {e}")),
        Ok(rec) => {
            let rc = rec.client();
            let not_done = ids
                .iter()
                .filter(|id| rc.status(**id) != Some(SubmissionStatus::Done))
                .count();
            let stats = rec.shutdown();
            if stats.completed != accepted || stats.failed != 0 || not_done != 0 {
                out.fail(format!(
                    "after recover: completed {} failed {} not-done {not_done} for {accepted} accepted",
                    stats.completed, stats.failed
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
