//! Seeded workload generation. The program under test only ever sees the
//! generated workflows; the seed decides their order, tenant and task
//! lengths, never how much work a run holds.

use entk_core::{Executable, Pipeline, Stage, Task, Workflow};
use entk_service::{ExecSpec, PipelineSpec, StageSpec, TaskSpec, WorkflowSpec};

/// SplitMix64: small, seedable and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1A4_F87B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Virtual seconds each simulated `Sleep` task runs. Short, so that wall
/// time is spent in the middleware, not waiting on the simulated clock.
pub const TASK_SECS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// One workflow shape: a single pipeline of `stages` stages with
/// `tasks_per_stage` tasks each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub stages: usize,
    pub tasks_per_stage: usize,
}

impl Shape {
    pub fn tasks(&self) -> usize {
        self.stages * self.tasks_per_stage
    }
}

/// Every combination of `stages` × `tasks_per_stage`.
pub fn shapes(stages: &[usize], tasks_per_stage: &[usize]) -> Vec<Shape> {
    stages
        .iter()
        .flat_map(|&s| {
            tasks_per_stage.iter().map(move |&t| Shape {
                stages: s,
                tasks_per_stage: t,
            })
        })
        .collect()
}

/// One generated submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Sub {
    pub label: String,
    pub tenant: String,
    pub shape: Shape,
    pub task_secs: f64,
}

/// `n` submissions drawn as a balanced deck, dealt in blocks: every block of
/// `shapes.len()` consecutive submissions holds each shape once, in an order
/// the seed shuffles (a final partial block holds the first `n %
/// shapes.len()` shapes). The total task count is the same for every seed,
/// and heavy shapes cannot bunch up beyond one block, so seeds differ in
/// order, not in how much load arrives in any second. The seed also picks
/// task lengths. Tenants take turns in arrival order.
pub fn deck(prefix: &str, shapes: &[Shape], n: usize, tenants: usize, seed: u64) -> Vec<Sub> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<Shape> = Vec::with_capacity(n);
    while order.len() < n {
        let mut block = shapes[..shapes.len().min(n - order.len())].to_vec();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order
        .into_iter()
        .enumerate()
        .map(|(i, shape)| Sub {
            label: format!("{prefix}{i}"),
            tenant: format!("tenant-{}", i % tenants),
            shape,
            task_secs: TASK_SECS[rng.below(TASK_SECS.len())],
        })
        .collect()
}

impl Sub {
    /// The submission as a wire-serializable spec.
    pub fn spec(&self) -> WorkflowSpec {
        let mut pipe = PipelineSpec::new(format!("{}-p", self.label));
        for s in 0..self.shape.stages {
            let mut stage = StageSpec::new(format!("{}-s{s}", self.label));
            for t in 0..self.shape.tasks_per_stage {
                stage = stage.with_task(TaskSpec::new(
                    format!("{}-s{s}-t{t}", self.label),
                    ExecSpec::Sleep {
                        secs: self.task_secs,
                    },
                ));
            }
            pipe = pipe.with_stage(stage);
        }
        WorkflowSpec::new().with_pipeline(pipe)
    }

    /// The submission as an in-process workflow.
    pub fn workflow(&self) -> Workflow {
        self.spec().build().expect("generated specs are valid")
    }
}

/// The ensemble workflow: `pipelines` × `stages` × `tasks` `Sleep` tasks,
/// task lengths drawn from the seed.
pub fn ensemble(pipelines: usize, stages: usize, tasks: usize, seed: u64) -> Workflow {
    let mut rng = Rng::new(seed);
    let mut wf = Workflow::new();
    for p in 0..pipelines {
        let mut pipe = Pipeline::new(format!("p{p}"));
        for s in 0..stages {
            let mut stage = Stage::new(format!("p{p}-s{s}"));
            for t in 0..tasks {
                let secs = TASK_SECS[rng.below(TASK_SECS.len())];
                stage.add_task(Task::new(
                    format!("p{p}-s{s}-t{t}"),
                    Executable::Sleep { secs },
                ));
            }
            pipe.add_stage(stage);
        }
        wf = wf.with_pipeline(pipe);
    }
    wf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Vec<Shape> {
        shapes(&[1, 2, 4, 8], &[4, 8, 16, 32, 64])
    }

    #[test]
    fn same_seed_same_workload() {
        let a = deck("w", &mix(), 123, 3, 42);
        let b = deck("w", &mix(), 123, 3, 42);
        assert_eq!(a, b);
        let specs_a: Vec<String> = a.iter().map(|s| s.spec().to_json()).collect();
        let specs_b: Vec<String> = b.iter().map(|s| s.spec().to_json()).collect();
        assert_eq!(specs_a, specs_b);
    }

    #[test]
    fn other_seed_reorders_but_keeps_the_work() {
        let a = deck("w", &mix(), 800, 3, 1);
        let b = deck("w", &mix(), 800, 3, 2);
        assert_ne!(a, b);
        let total = |d: &[Sub]| d.iter().map(|s| s.shape.tasks()).sum::<usize>();
        assert_eq!(total(&a), total(&b));
        let count = |d: &[Sub], sh: Shape| d.iter().filter(|s| s.shape == sh).count();
        for sh in mix() {
            assert_eq!(count(&a, sh), count(&b, sh));
            assert_eq!(count(&a, sh), 40);
        }
    }

    #[test]
    fn every_block_holds_every_shape_once() {
        let shapes = mix();
        let d = deck("w", &shapes, 810, 3, 11);
        for block in d.chunks(shapes.len()).take(810 / shapes.len()) {
            for sh in &shapes {
                assert_eq!(block.iter().filter(|s| s.shape == *sh).count(), 1);
            }
        }
        // The partial block holds the first shapes, whatever the seed.
        let tail: Vec<Shape> = d[800..].iter().map(|s| s.shape).collect();
        for sh in &shapes[..10] {
            assert!(tail.contains(sh));
        }
    }

    #[test]
    fn tenants_take_turns() {
        let d = deck("w", &mix(), 9, 3, 7);
        let tenants: Vec<&str> = d.iter().map(|s| s.tenant.as_str()).collect();
        assert_eq!(
            tenants[..4],
            ["tenant-0", "tenant-1", "tenant-2", "tenant-0"]
        );
    }

    #[test]
    fn spec_matches_its_shape() {
        let d = deck("w", &mix(), 20, 3, 9);
        for s in &d {
            assert_eq!(s.spec().task_count(), s.shape.tasks());
            assert_eq!(s.workflow().task_count(), s.shape.tasks());
        }
    }

    #[test]
    fn ensemble_is_seed_deterministic() {
        // Uids come from process-wide counters, so compare names and
        // executables only.
        let tasks = |wf: &Workflow| -> Vec<String> {
            wf.pipelines()
                .iter()
                .flat_map(|p| p.stages().iter().flat_map(|s| s.tasks().iter()))
                .map(|t| format!("{} {:?}", t.name, t.executable))
                .collect()
        };
        let a = ensemble(2, 2, 8, 5);
        assert_eq!(a.task_count(), 32);
        assert_eq!(tasks(&a), tasks(&ensemble(2, 2, 8, 5)));
        assert_ne!(tasks(&a), tasks(&ensemble(2, 2, 8, 6)));
    }
}
