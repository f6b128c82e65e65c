//! The repository benchmark: three workloads through the EnTK stack, each
//! layer timed from outside through its public calls.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ensemble-16k|service-open|gateway-durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of `BENCHMARK.json`.
//! `--trace 1` splits the time between an untraced and a traced pass of the
//! same workload; the traced pass keeps spans around every call in memory,
//! writes them to `perfbench/out/`, and reports the per-layer metrics. The
//! last line of standard output is the JSON result; the lines before it
//! print every metric by name and unit, the host and the notes. Any
//! correctness violation makes the exit code 1.

mod ensemble;
mod gateway_durable;
mod gen;
mod heap;
mod mq;
mod service_open;
mod spans;
mod stats;
mod svc;
mod wire;

use entk_core::RunReport;
use spans::Tracer;
use stats::{median, quantile, sorted, tail, Tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["ensemble-16k", "service-open", "gateway-durable"];

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("tasks_per_s", "tasks/s"),
    ("turnaround_p50_ms", "ms"),
    ("turnaround_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer a workload does not
/// pass through reports 0, and the run's notes list it.
const PER_LAYER: [(&str, &str); 39] = [
    ("mq.msgs_per_s", "msgs/s"),
    ("mq.publish_batch_us_p50", "us"),
    ("mq.get_batch_us_p50", "us"),
    ("mq.ack_multiple_us_p50", "us"),
    ("mq.batch_fill", "ratio"),
    ("core.mgmt_us_per_task", "us"),
    ("core.transitions_per_s", "1/s"),
    ("core.setup_ms_p50", "ms"),
    ("core.teardown_ms_p50", "ms"),
    ("core.run_ms_p50", "ms"),
    ("core.ms_per_stage", "ms"),
    ("core.ms_fixed", "ms"),
    ("rts.pilot_ready_timeouts", "count"),
    ("rts.db_round_trips_per_task", "count"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p99", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.warm_lease_ratio", "ratio"),
    ("service.handoff_ms_p50", "ms"),
    ("gateway.submit_p50_ms", "ms"),
    ("gateway.submit_tail_ms", "ms"),
    ("gateway.connect_ms_p50", "ms"),
    ("gateway.post_ms_p50", "ms"),
    ("gateway.post_ms_p99", "ms"),
    ("gateway.get_ms_p50", "ms"),
    ("gateway.gets_per_wf", "count"),
    ("gateway.wire_ms_p50", "ms"),
    ("journal.bytes_per_wf", "bytes"),
    ("journal.files_per_wf", "count"),
    ("journal.submit_spec_us_p50", "us"),
    ("journal.recover_ms", "ms"),
    ("span.core.self_ms", "ms"),
    ("span.service.self_ms", "ms"),
    ("span.gateway.self_ms", "ms"),
    ("span.journal.self_ms", "ms"),
    ("observe.trace_overhead_pct", "%"),
    ("observe.recorder_overhead_pct", "%"),
    ("gen.late_ms_p99", "ms"),
];

/// Per-layer span self time, in `spans::LAYERS` order.
const SELF_MS: [&str; 4] = [
    "span.core.self_ms",
    "span.service.self_ms",
    "span.gateway.self_ms",
    "span.journal.self_ms",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Length of the traced run's telemetry pass, which turns on the service's
/// own recorder and `/metrics` listener.
const TELEMETRY_SECONDS: f64 = 2.0;
/// A run whose generator started its p99 submission later than this after
/// its due time did not offer the load it claims, and is invalid.
const LATE_BOUND_MS: f64 = 250.0;
/// The pilot-ready wait of AppManager acquisition and of the warm pool's
/// boot (`wait_pilot_ready(pilot, 30 s)`). A run whose RTS overhead reaches
/// it waited out the timeout: the `JobReady` event was dropped.
const PILOT_READY_TIMEOUT_S: f64 = 30.0;

const NOTES: [&str; 4] = [
    "journal.* measure write-to-OS: both journals flush() per append and never fsync",
    "turnaround and submit are timed from each submission's due time (open loop)",
    "rts.pilot_ready_timeouts counts runs that waited out the 30 s pilot-ready timeout; \
     they stay in every statistic",
    "span.<layer>.self_ms is benchmark-side span self time per run or submission",
];

/// The figures of one AppManager run, from its `RunReport`.
#[derive(Clone)]
pub struct RunFigures {
    pub wall_s: f64,
    pub tasks: usize,
    pub stages: usize,
    pub mgmt_s: f64,
    pub transitions: f64,
    pub setup_ms: f64,
    pub teardown_ms: f64,
    pub pilot_ready_timeout: bool,
}

impl RunFigures {
    pub fn new(r: &RunReport, stages: usize) -> Self {
        RunFigures {
            wall_s: r.wall_secs,
            tasks: r.workflow.task_count(),
            stages,
            mgmt_s: r.overheads.entk_management_secs,
            transitions: r.overheads.transitions as f64,
            setup_ms: r.overheads.entk_setup_secs * 1e3,
            teardown_ms: r.overheads.entk_teardown_secs * 1e3,
            pilot_ready_timeout: r.overheads.rts_overhead_secs >= PILOT_READY_TIMEOUT_S,
        }
    }
}

/// How one pass of a workload runs.
pub struct Pass<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub setups: usize,
    /// Benchmark-side spans around every call (off: records nothing).
    pub tracer: &'a Tracer,
    /// Turn on the service's own telemetry plane and read `/metrics`.
    pub telemetry: bool,
}

/// Everything one pass of a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub tasks_per_s: f64,
    /// Per run (ensemble) or per submission, timed from its due time.
    pub turnaround_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Generator lateness per submission.
    pub late_ms: Vec<f64>,
    pub runs: Vec<RunFigures>,
    pub pilot_ready_timeouts: u64,
    pub layer: BTreeMap<&'static str, f64>,
    /// Tasks the workload's measured pass holds (sizes the broker rung).
    pub layer_tasks: usize,
}

impl Outcome {
    /// An attempted operation failed: counted, and a correctness violation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.violations.push(msg);
    }

    /// A service set-up took this long. Warm-pool boot waits for every
    /// pilot; a boot past the pilot-ready timeout waited it out.
    pub fn push_setup(&mut self, d: Duration) {
        let secs = d.as_secs_f64();
        self.setup_s.push(secs);
        self.pilot_ready_timeouts += (secs / PILOT_READY_TIMEOUT_S) as u64;
    }

    /// Fold in the failures of an untimed warm-up.
    pub fn absorb_setup(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.pilot_ready_timeouts += other.pilot_ready_timeouts;
    }

    /// Fold in a traced-only rung: its failures, runs and layer figures, but
    /// none of its end-to-end samples.
    pub fn absorb_rung(&mut self, mut other: Outcome) {
        self.layer.append(&mut other.layer);
        self.runs.append(&mut other.runs);
        self.absorb_setup(other);
    }
}

/// `core.*` from the runs' reports. The stage fit needs two stage counts.
fn core_layers(runs: &[RunFigures], layer: &mut BTreeMap<&'static str, f64>) {
    if runs.is_empty() {
        return;
    }
    let col = |f: fn(&RunFigures) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    layer.insert(
        "core.mgmt_us_per_task",
        median(&col(|r| r.mgmt_s * 1e6 / r.tasks as f64)),
    );
    let transitions: f64 = runs.iter().map(|r| r.transitions).sum();
    let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    layer.insert("core.transitions_per_s", transitions / wall);
    layer.insert("core.setup_ms_p50", median(&col(|r| r.setup_ms)));
    layer.insert("core.teardown_ms_p50", median(&col(|r| r.teardown_ms)));
    layer.insert("core.run_ms_p50", median(&col(|r| r.wall_s * 1e3)));
    let points: Vec<(f64, f64)> = runs
        .iter()
        .map(|r| (r.stages as f64, r.wall_s * 1e3))
        .collect();
    if let Some(fit) = stats::least_squares(&points) {
        layer.insert("core.ms_per_stage", fit.slope);
        layer.insert("core.ms_fixed", fit.fixed);
    }
}

/// Where runs write their records and spans, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or(format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(w: &str, pass: &Pass) -> Outcome {
    let mut out = Outcome::default();
    match w {
        "ensemble-16k" => ensemble::run(pass, &mut out),
        "service-open" => service_open::run(pass, &mut out),
        "gateway-durable" => gateway_durable::run(pass, &mut out),
        _ => unreachable!("workload names are checked when parsed"),
    }
    let late = sorted(&out.late_ms);
    let late_p99 = quantile(&late, 0.99);
    if late_p99 > LATE_BOUND_MS {
        out.violations.push(format!(
            "run invalid: generator p99 lateness {late_p99:.1} ms > {LATE_BOUND_MS} ms"
        ));
    }
    out.layer.insert("gen.late_ms_p99", late_p99);
    out
}

/// The figure the trace overhead is taken on, as "bigger is worse".
fn headline(w: &str, out: &Outcome) -> f64 {
    if w == "ensemble-16k" {
        1.0 / out.tasks_per_s
    } else {
        median(&out.turnaround_ms)
    }
}

/// VmHWM of this process, which hosts every layer of the program.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Host {
    cores: usize,
    broker_shards: usize,
    seed: u64,
}

impl Host {
    fn detect(seed: u64) -> Self {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            broker_shards: entk_mq::Broker::new().shard_count(),
            seed,
        }
    }

    /// One core cannot overlap the client with the service: throughput and
    /// tail figures from such a host compare with nothing else.
    fn comparable(&self) -> bool {
        self.cores > 1
    }

    fn json(&self) -> String {
        format!(
            "{{\"cores\":{},\"broker_shards\":{},\"seed\":{},\"comparable\":{}}}",
            self.cores,
            self.broker_shards,
            self.seed,
            self.comparable()
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Share of CPU time the hypervisor gave to other guests, from the `cpu`
/// line of `/proc/stat`: (steal ticks, all ticks).
fn cpu_steal_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// What a run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    tail: Option<Tail>,
    notes: Vec<String>,
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args, heap: heap::Sampler) -> Report {
    let off = Tracer::new(false);
    let pass = Pass {
        seed: args.seed,
        seconds: args.seconds,
        setups: SETUPS,
        tracer: &off,
        telemetry: false,
    };
    let out = run_workload(args.workload, &pass);
    let turn = sorted(&out.turnaround_ms);
    let t = tail(&turn);
    let values = [
        out.tasks_per_s,
        quantile(&turn, 0.5),
        t.value,
        median(&out.setup_s),
        heap.finish(),
    ];
    Report {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        attempted: out.attempted,
        failed: out.failed,
        violations: out.violations,
        tail: Some(t),
        notes: vec![format!(
            "VmHWM {:.1} MB (glibc arenas included)",
            peak_rss_mb()
        )],
    }
}

/// `--trace 1`: an untraced half, a traced half, a telemetry pass on the
/// services, and the broker rung; the per-layer metrics.
fn traced(args: &Args) -> Report {
    let w = args.workload;
    let (off, tracer) = (Tracer::new(false), Tracer::new(true));
    let pass = |tracer, telemetry, seconds| Pass {
        seed: args.seed,
        seconds,
        setups: 1,
        tracer,
        telemetry,
    };
    let half = args.seconds / 2.0;
    let base = run_workload(w, &pass(&off, false, half));
    let mut out = run_workload(w, &pass(&tracer, false, half));
    let spans = tracer.take();
    // Only the services have a `/metrics` endpoint.
    let telemetry =
        (w != "ensemble-16k").then(|| run_workload(w, &pass(&off, true, TELEMETRY_SECONDS)));

    let h0 = headline(w, &base);
    let mut report = Report {
        attempted: base.attempted + out.attempted,
        failed: base.failed + out.failed,
        violations: base.violations,
        ..Report::default()
    };
    let mut layer = std::mem::take(&mut out.layer);
    core_layers(&out.runs, &mut layer);
    let mut timeouts = base.pilot_ready_timeouts + out.pilot_ready_timeouts;
    let batch = entk_core::ExecManagerConfig::default().batch_limit();
    if let Err(e) = mq::rung(out.layer_tasks, batch, &mut layer) {
        report.violations.push(e);
    }
    let units = spans
        .iter()
        .filter(|s| s.parent.is_none() && (s.name == "wf" || s.name == "run"))
        .count()
        .max(1);
    let by_layer = spans::self_ms_by_layer(&spans);
    for (l, name) in spans::LAYERS.iter().zip(SELF_MS) {
        layer.insert(name, by_layer[l] / units as f64);
    }
    let overhead = |o: &Outcome| (headline(w, o) - h0) / h0 * 100.0;
    layer.insert("observe.trace_overhead_pct", overhead(&out));
    if let Some(mut t) = telemetry {
        layer.insert("observe.recorder_overhead_pct", overhead(&t));
        if let Some(v) = t.layer.remove("rts.db_round_trips_per_task") {
            layer.insert("rts.db_round_trips_per_task", v);
        }
        timeouts += t.pilot_ready_timeouts;
        report.attempted += t.attempted;
        report.failed += t.failed;
        report.violations.append(&mut t.violations);
    }
    layer.insert("rts.pilot_ready_timeouts", timeouts as f64);
    report.violations.append(&mut out.violations);

    let _ = std::fs::create_dir_all(out_dir());
    let span_file = out_dir().join(format!("spans-{w}-seed{}.jsonl", args.seed));
    match spans::write_jsonl(&span_file, &spans) {
        Ok(()) => report
            .notes
            .push(format!("{} spans in {}", spans.len(), span_file.display())),
        Err(e) => report.violations.push(format!("writing spans: {e}")),
    }
    let mut not_exercised = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = layer.get(name).copied().unwrap_or_else(|| {
            not_exercised.push(name);
            0.0
        });
        report.metrics.push((name, v, unit));
    }
    if !not_exercised.is_empty() {
        report.notes.push(format!(
            "not on this workload's path (0): {}",
            not_exercised.join(", ")
        ));
    }
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let heap = heap::Sampler::start();
    let host = Host::detect(args.seed);
    let w = args.workload;
    println!("# workload {w} host {}", host.json());
    if !host.comparable() {
        println!("# 1-core host: throughput and tail figures are not comparable");
    }
    let steal_before = cpu_steal_ticks();
    let mut report = if args.trace {
        traced(&args)
    } else {
        untraced(&args, heap)
    };
    let steal_after = cpu_steal_ticks();
    let steal_pct = (steal_after.0 - steal_before.0) as f64
        / (steal_after.1 - steal_before.1).max(1) as f64
        * 100.0;

    let bad: Vec<&str> = report
        .metrics
        .iter_mut()
        .filter(|m| !m.1.is_finite())
        .map(|m| {
            m.1 = 0.0;
            m.0
        })
        .collect();
    if !bad.is_empty() {
        report
            .violations
            .push(format!("non-finite metrics: {bad:?}"));
    }
    let Report {
        metrics,
        attempted,
        failed,
        violations,
        tail,
        notes,
    } = report;
    let correct = violations.is_empty() && attempted > 0;
    let notes: Vec<String> = NOTES
        .iter()
        .map(|s| s.to_string())
        .chain(notes)
        .chain([format!(
            "CPU steal {steal_pct:.1}% of host ticks during the run (other guests)"
        )])
        .collect();

    for (name, v, unit) in &metrics {
        println!("# {name} = {v} {unit}");
    }
    if let Some(t) = tail {
        println!(
            "# turnaround_tail_ms is p{:.3} of {} samples ({} beyond)",
            t.percentile, t.samples, t.beyond
        );
    }
    println!(
        "# attempted {attempted} failed {failed} failed_frac {}",
        failed as f64 / attempted.max(1) as f64
    );
    for n in &notes {
        println!("# note: {n}");
    }
    for v in violations.iter().take(20) {
        println!("# VIOLATION: {v}");
    }

    let metrics_json = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let record = format!(
        "{{\"workload\": \"{w}\", \"trace\": {}, \"host\": {}, \"steal_pct\": {steal_pct}, \
         \"tail\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"violations\": [{}], \"notes\": [{}], \"metrics\": {{{metrics_json}}}}}\n",
        args.trace as u8,
        host.json(),
        tail.map_or("null".into(), |t| format!(
            "{{\"percentile\": {}, \"samples\": {}, \"beyond\": {}}}",
            t.percentile, t.samples, t.beyond
        )),
        list(&violations),
        list(&notes),
    );
    let _ = std::fs::create_dir_all(out_dir());
    let record_file = out_dir().join(format!(
        "{w}-seed{}-trace{}.json",
        args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&record_file, record) {
        eprintln!("perfbench: writing {}: {e}", record_file.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics_json}}}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogue and `BENCHMARK.json` must name the same metrics
    /// with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let entries = text.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }
}
