//! The broker rung of the traced run: a workload's task count pushed
//! through `Broker::publish_batch` / `get_batch` / `ack_multiple` at the
//! AppManager's batch size, with no layer above the broker.

use crate::stats::{median, us};
use entk_mq::{Broker, Message, QueueConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const QUEUE: &str = "perfbench.rung";
/// The rung repeats its pass until it has measured at least this long.
const MIN_SECONDS: f64 = 0.5;

pub fn rung(
    msgs: usize,
    batch: usize,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let broker = Broker::new();
    broker
        .declare_queue(QUEUE, QueueConfig::default())
        .map_err(|e| e.to_string())?;
    let (mut publish, mut get, mut ack) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requested, mut delivered, mut moved) = (0usize, 0usize, 0usize);
    let mut busy = Duration::ZERO;
    let t0 = Instant::now();
    while moved == 0 || t0.elapsed().as_secs_f64() < MIN_SECONDS {
        for start in (0..msgs).step_by(batch) {
            let end = (start + batch).min(msgs);
            let messages: Vec<Message> = (start..end)
                .map(|i| Message::new(format!("task.{i:06}")))
                .collect();
            let t = Instant::now();
            broker
                .publish_batch(QUEUE, messages)
                .map_err(|e| e.to_string())?;
            publish.push(t.elapsed());
        }
        let mut drained = 0;
        while drained < msgs {
            let t = Instant::now();
            let got = broker
                .get_batch(QUEUE, batch, Duration::from_millis(100))
                .map_err(|e| e.to_string())?;
            get.push(t.elapsed());
            requested += batch;
            delivered += got.len();
            drained += got.len();
            let Some(top) = got.iter().map(|d| d.tag).max() else {
                return Err(format!(
                    "broker rung: queue ran dry after {drained} of {msgs}"
                ));
            };
            let t = Instant::now();
            let acked = broker.ack_multiple(QUEUE, top).map_err(|e| e.to_string())?;
            ack.push(t.elapsed());
            if acked != got.len() {
                return Err(format!("broker rung: acked {acked} of {}", got.len()));
            }
        }
        moved += msgs;
    }
    if broker.depth(QUEUE).unwrap_or(1) != 0 || broker.unacked(QUEUE).unwrap_or(1) != 0 {
        return Err("broker rung: messages left behind".into());
    }
    for d in publish.iter().chain(&get).chain(&ack) {
        busy += *d;
    }
    let as_us = |v: &[Duration]| v.iter().map(|d| us(*d)).collect::<Vec<_>>();
    layer.insert("mq.msgs_per_s", moved as f64 / busy.as_secs_f64());
    layer.insert("mq.publish_batch_us_p50", median(&as_us(&publish)));
    layer.insert("mq.get_batch_us_p50", median(&as_us(&get)));
    layer.insert("mq.ack_multiple_us_p50", median(&as_us(&ack)));
    layer.insert("mq.batch_fill", delivered as f64 / requested as f64);
    Ok(())
}
