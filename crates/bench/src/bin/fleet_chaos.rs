//! Fleet chaos: 100k+ device lifecycles through one deterministic sim.
//!
//! Drives a whole fleet — register, windowed login, pipelined browsing,
//! close — through the event engine's single shared queue against one
//! sharded server, with random loss and seeded server crashes composed
//! on top. The run must finish with exactly-once delivery (every
//! lifecycle's every interaction served once, `replays_accepted == 0`)
//! and with the trace-derived metrics equal to the live counters (the
//! tracer is drained and folded after every event, so memory stays bounded
//! at fleet scale).
//!
//! ```sh
//! cargo run --release -p btd-bench --bin fleet_chaos              # 100k
//! cargo run --release -p btd-bench --bin fleet_chaos -- 2000     # smoke
//! ```

use btd_bench::report::{banner, Table};
use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::engine::FleetConfig;
use trust_core::scenario::World;
use trust_core::server::journal::CrashProfile;

const DOMAIN: &str = "www.xyz.com";

fn main() {
    let lifecycles: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("lifecycle count"))
        .unwrap_or(100_000);
    let crash: f64 = std::env::args()
        .nth(2)
        .map(|a| a.parse().expect("crash probability"))
        .unwrap_or(0.0001);

    banner("fleet chaos: pipelined lifecycles on one deterministic event queue");

    let mut rng = SimRng::seed_from(41);
    let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.05 }, &mut rng);
    // Ring-buffered tracer: the fleet driver drains after every event, so
    // a 1 Mi-event bound keeps resident memory flat at 100k+ lifecycles
    // without ever evicting (asserted below) — bounded mode must not
    // perturb the run.
    let tracer = world.enable_tracing_bounded(1 << 20);
    world.add_server_with_shards(DOMAIN, 16, &mut rng);
    let cfg = FleetConfig {
        lifecycles,
        touches: 4,
        window: 4,
        max_live: 256,
        profile: Some(CrashProfile::uniform(crash)),
    };
    let start = std::time::Instant::now();
    let report = world.run_windowed_fleet(DOMAIN, &cfg, &mut rng);
    let wall = start.elapsed();

    let mut table = Table::new(["metric", "value"]);
    table.row(["lifecycles".into(), report.lifecycles.to_string()]);
    table.row(["completed".into(), report.completed.to_string()]);
    table.row(["closed".into(), report.closed.to_string()]);
    table.row(["failed".into(), report.failed.to_string()]);
    table.row([
        "risk re-auths survived".into(),
        report.terminated.to_string(),
    ]);
    table.row(["interactions served".into(), report.served.to_string()]);
    table.row(["sends".into(), report.metrics.sends.to_string()]);
    table.row(["retries".into(), report.metrics.retries.to_string()]);
    table.row([
        "duplicates resent".into(),
        report.metrics.duplicates_resent.to_string(),
    ]);
    table.row([
        "replays accepted".into(),
        report.metrics.replays_accepted.to_string(),
    ]);
    table.row(["server crashes".into(), report.crashes.to_string()]);
    table.row([
        "journal records lost".into(),
        report.records_skipped.to_string(),
    ]);
    table.row([
        "sim elapsed".into(),
        format!("{:.1}s", report.elapsed.as_nanos() as f64 / 1e9),
    ]);
    table.row(["wall clock".into(), format!("{:.1}s", wall.as_secs_f64())]);
    for (why, n) in &report.failures {
        table.row([format!("failed: {why}"), n.to_string()]);
    }
    table.print();

    // The contract the fleet run exists to demonstrate.
    assert_eq!(
        report.completed, report.lifecycles,
        "every lifecycle must finish ({} failed: {:?})",
        report.failed, report.failures
    );
    assert_eq!(
        report.served,
        report.lifecycles * cfg.touches as u64,
        "exactly-once delivery per slot"
    );
    assert_eq!(
        report.metrics.replays_accepted, 0,
        "no duplicate may ever be accepted as fresh"
    );
    assert_eq!(report.records_skipped, 0, "clean crashes tear nothing");
    let derived = report.derived.as_ref().expect("tracing was enabled");
    assert_eq!(
        derived, &report.metrics,
        "trace-derived metrics must equal the live counters"
    );
    assert_eq!(
        tracer.dropped(),
        0,
        "per-event drains must keep the bounded tracer from evicting"
    );
    println!(
        "\n{} lifecycles, exactly-once, replays_accepted == 0, trace/metrics \
         parity held.",
        report.lifecycles
    );
}
