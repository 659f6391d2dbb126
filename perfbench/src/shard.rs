//! `shard_chaos`: the shard-parallel runtime (`parallel::run_parallel`)
//! with two workers over lock-step lifecycles, crash recovery and
//! segmented storage under disk faults, keeping the full trace.

use std::hint::black_box;
use std::time::Instant;

use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::parallel::{run_parallel, run_shard, ParallelConfig, ParallelRun};
use trust_core::scenario::World;
use trust_core::server::journal::CrashProfile;
use trust_core::server::storage::DiskFaultProfile;
use trust_core::telemetry::ShardSampler;
use trust_core::trace::EventKind;

use crate::spans::Spans;
use btd_crypto::sha256::sha256;

use crate::{kernels, per, probe, repeat_for, require, stats, sub_seed, Stretch, Unit};

const ACCOUNTS: usize = 96;
const TOUCHES: usize = 32;
const SHARDS: usize = 16;
const WORKERS: usize = 2;
const LOSS: f64 = 0.10;
const CRASH: f64 = 0.05;
const DISK_FAULT: f64 = 0.02;
const SAMPLE_INTERVAL: u64 = 4;
/// Distinct inputs per run (see [`crate::sub_seed`]).
pub const CYCLE: usize = 12;

/// Mirrors the runtime's domain and segment rotation target (both private
/// to `trust_core::parallel`) for the set-up probe.
const DOMAIN: &str = "www.xyz.com";
const SEGMENT_TARGET: usize = 64 * 1024;

fn config(seed: u64, workers: usize) -> ParallelConfig {
    ParallelConfig {
        touches: TOUCHES,
        loss: LOSS,
        crash: Some(CrashProfile::uniform(CRASH)),
        disk: Some(DiskFaultProfile::uniform(DISK_FAULT)),
        sample_interval: SAMPLE_INTERVAL,
        ..ParallelConfig::new(seed, ACCOUNTS, SHARDS, workers)
    }
}

/// Seconds to build one shard's world as `run_shard` does before its
/// first lifecycle: group statics, CA and server keys, tracer, telemetry
/// sampler, and the sharded server on segmented storage.
pub fn setup(seed: u64) -> f64 {
    let started = Instant::now();
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::with_adversary(Adversary::RandomLoss { loss: LOSS }, &mut rng);
    let tracer = world.enable_tracing();
    let sampler = ShardSampler::new(0, SAMPLE_INTERVAL);
    world.install_telemetry(sampler.telemetry());
    world.add_server_with_storage(
        DOMAIN,
        SHARDS,
        DiskFaultProfile::uniform(DISK_FAULT),
        None,
        SEGMENT_TARGET,
        seed,
        &mut rng,
    );
    black_box((world, tracer, sampler));
    started.elapsed().as_secs_f64()
}

/// What the correctness gate compares between runs of one seed.
struct Output {
    jsonl: String,
    digest: String,
    /// Host milliseconds of `run_parallel` alone.
    run_ms: f64,
}

/// The correctness gate every shard run passes.
fn check(run: &ParallelRun, problems: &mut Vec<String>) {
    for r in &run.shard_runs {
        if r.completed == r.accounts {
            let demanded = (r.accounts * TOUCHES) as u64;
            require(problems, r.served == demanded, || {
                format!(
                    "exactly-once: shard {} served {} != {demanded}",
                    r.shard, r.served
                )
            });
        }
    }
    require(problems, run.replays_accepted() == 0, || {
        format!("{} replays accepted", run.replays_accepted())
    });
    require(
        problems,
        run.derived_metrics() == run.fleet_metrics(),
        || "trace-derived metrics differ from the live counters".to_owned(),
    );
    if let Err(e) = run.verify_series_reconciles() {
        problems.push(format!("telemetry series do not reconcile: {e}"));
    }
}

/// One timed run: the parallel run with its merge, the trace export, the
/// trace-derived metrics and the telemetry reconciliation.
fn parallel_unit(seed: u64, workers: usize) -> (Unit, ParallelRun, Output) {
    let cfg = config(seed, workers);
    let cpu0 = probe::cpu_seconds();
    let started = Instant::now();
    let run = run_parallel(&cfg);
    let run_ms = started.elapsed().as_secs_f64() * 1e3;
    let jsonl = run.export_jsonl();
    let derived = run.derived_metrics();
    let reconciled = run.verify_series_reconciles();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    let _ = black_box((derived, reconciled));
    let out = Output {
        digest: run.state_digest().to_hex(),
        jsonl,
        run_ms,
    };
    let mut unit = Unit {
        wall_s,
        cpu_s,
        stretches: vec![Stretch::whole(wall_s, cpu_s)],
        lifecycles: ACCOUNTS as u64,
        completed: run.shard_runs.iter().map(|r| r.completed as u64).sum(),
        lifecycles_failed: run.failures().count() as u64,
        demanded: (ACCOUNTS * TOUCHES) as u64,
        served: run.total_served(),
        sim_s: run.makespan(WORKERS).as_secs_f64(),
        sends: run.fleet_metrics().sends,
        digest: out.digest.clone(),
        problems: Vec::new(),
    };
    check(&run, &mut unit.problems);
    (unit, run, out)
}

/// The timed run: parallel units back to back for `seconds` (at least
/// one cycle of inputs); a repeat of an input must export the same trace
/// bytes whatever the thread schedule.
pub fn timed(seed: u64, seconds: u64) -> Vec<Unit> {
    let mut exports = Vec::with_capacity(CYCLE);
    repeat_for(seconds, CYCLE, |i| {
        let (mut unit, _, out) = parallel_unit(sub_seed(seed, i % CYCLE), WORKERS);
        let export = sha256(out.jsonl.as_bytes());
        if i < CYCLE {
            exports.push(export);
        } else {
            require(&mut unit.problems, exports[i % CYCLE] == export, || {
                format!(
                    "unit {i} exported different trace bytes than unit {}",
                    i % CYCLE
                )
            });
        }
        unit
    })
}

/// The traced run: the untraced two-worker run (for the byte-for-byte
/// comparison and the busy ratio), an untraced one-worker run (the
/// overhead baseline: the traced pass below is sequential too), then
/// every shard spanned through `run_shard`, the merge, and the trace and
/// telemetry calls.
pub fn traced(seed: u64, spans: &mut Spans) -> (Unit, Vec<(&'static str, f64)>) {
    let (mut unit, _, untraced) = parallel_unit(seed, WORKERS);
    let (sequential, _, _) = parallel_unit(seed, 1);

    let cfg = config(seed, WORKERS);
    let traced_from = spans.elapsed_ns();
    let started = Instant::now();
    let ((run, jsonl), allocs) = probe::count_allocations(|| {
        let runs: Vec<_> = (0..SHARDS)
            .map(|shard| spans.time("parallel.run_shard", || run_shard(&cfg, shard)))
            .collect();
        let run = spans.time("parallel.merge", || ParallelRun::merge(cfg.clone(), runs));
        let jsonl = spans.time("trace.export_jsonl", || run.export_jsonl());
        let derived = spans.time("trace.derived_metrics", || run.derived_metrics());
        let reconciled = spans.time("telemetry.verify_series_reconciles", || {
            run.verify_series_reconciles()
        });
        let _ = black_box((derived, reconciled));
        (run, jsonl)
    });
    // The overhead compares like with like: the untraced unit has no
    // health report either.
    let traced_wall = started.elapsed().as_secs_f64();
    black_box(spans.time("telemetry.health_report", || run.health_report()));
    let traced_to = spans.elapsed_ns();

    let problems = &mut unit.problems;
    check(&run, problems);
    require(problems, jsonl == untraced.jsonl, || {
        "sequential run_shard + merge exported different bytes than run_parallel".to_owned()
    });
    require(
        problems,
        run.state_digest().to_hex() == untraced.digest,
        || "sequential run_shard + merge reached a different state digest".to_owned(),
    );

    let served = run.total_served() as f64;
    let timings: Vec<f64> = spans
        .named("parallel.run_shard")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let busy: f64 = timings.iter().sum();
    let mut worker_busy = [0.0f64; WORKERS];
    for (shard, ms) in timings.iter().enumerate() {
        worker_busy[shard % WORKERS] += ms;
    }
    let worker_mean = busy / WORKERS as f64;
    let worker_max = worker_busy.iter().copied().fold(0.0, f64::max);
    let count = |pred: fn(&EventKind) -> bool| {
        run.merged
            .iter()
            .filter(|(_, e)| pred(&e.event.kind))
            .count() as f64
    };
    let metrics = run.fleet_metrics();
    let covered = spans.covered_ns_between(traced_from, traced_to);
    let mut layers = vec![
        (
            "parallel.shard_ms_p50",
            stats::median(&timings).unwrap_or(0.0),
        ),
        (
            "parallel.shard_ms_max",
            timings.iter().copied().fold(0.0, f64::max),
        ),
        ("parallel.imbalance", per(worker_max, worker_mean)),
        (
            "parallel.busy_ratio",
            per(busy, WORKERS as f64 * untraced.run_ms),
        ),
        (
            "parallel.merge_ms",
            spans.total_ns("parallel.merge") as f64 / 1e6,
        ),
        (
            "server.recoveries",
            run.shard_runs.iter().map(|r| r.crashes).sum::<u64>() as f64,
        ),
        (
            "storage.sync_retries",
            count(|k| matches!(k, EventKind::SyncRetried { .. })),
        ),
        (
            "storage.corrupt_segments",
            count(|k| matches!(k, EventKind::SegmentCorrupt { .. })),
        ),
        (
            "storage.quarantined_shards",
            run.shard_runs
                .iter()
                .map(|r| r.quarantined_shards)
                .sum::<u64>() as f64,
        ),
        (
            "trace.export_ms",
            spans.total_ns("trace.export_jsonl") as f64 / 1e6,
        ),
        (
            "trace.derive_ms",
            spans.total_ns("trace.derived_metrics") as f64 / 1e6,
        ),
        (
            "telemetry.reconcile_ms",
            spans.total_ns("telemetry.verify_series_reconciles") as f64 / 1e6,
        ),
        (
            "telemetry.health_ms",
            spans.total_ns("telemetry.health_report") as f64 / 1e6,
        ),
        (
            "trace.export_bytes_per_interaction",
            per(jsonl.len() as f64, served),
        ),
        (
            "trace.events_per_interaction",
            per(run.merged.len() as f64, served),
        ),
        (
            "channel.duplicates_resent",
            metrics.duplicates_resent as f64,
        ),
        ("engine.retries", metrics.retries as f64),
        ("engine.timeouts", metrics.timeouts as f64),
        (
            "engine.reauths",
            run.shard_runs
                .iter()
                .map(|r| r.terminated as u64)
                .sum::<u64>() as f64,
        ),
        (
            "alloc.allocs_per_interaction",
            per(allocs.allocs as f64, served),
        ),
        (
            "alloc.bytes_per_interaction",
            per(allocs.bytes as f64, served),
        ),
        ("attrib.tracing_overhead", traced_wall / sequential.wall_s),
        (
            "attrib.residual_share",
            1.0 - per(covered as f64, (traced_to - traced_from) as f64),
        ),
    ];
    layers.extend(kernels::crypto(seed, "shard-chaos-session", spans));
    (unit, layers)
}
