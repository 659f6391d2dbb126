//! The parallel matrix: the shard-parallel runtime's perf trajectory.
//!
//! Sweeps fleet size x shard count x worker count through
//! `trust_core::parallel` and reports, per cell: interactions served,
//! replays accepted (must stay 0), the modeled makespan (the slowest
//! worker's summed simulated engine time), modeled interactions per
//! simulated second, speedup over the N=1 baseline, and the interaction
//! latency quantiles. Every worker count of a cell must merge to the
//! byte-identical trace and state digest — the binary asserts it, and
//! `scripts/check.sh` re-runs the whole binary twice and diffs the two
//! outputs as a second, process-level determinism gate.
//!
//! One cell composes seeded server crashes with the loss: every
//! lifecycle must still complete and close, with zero replays accepted
//! and no journal record lost across the recoveries (asserted).
//!
//! Five hot-path micro-benches ride along so every later PR shows its
//! delta: the partial-print matcher, MAC verify, 512-bit modexp, the
//! ridge rasterizer, and journal framing + crc32. Their wall-clock ns/op
//! go to the human table
//! only; the JSON carries their deterministic workload checksums, which
//! pin *what* was measured without pinning machine speed.
//!
//! ```sh
//! cargo run -p btd-bench --bin parallel_matrix            # table + wall clocks
//! cargo run -p btd-bench --bin parallel_matrix -- --json  # canonical JSON
//! cargo run -p btd-bench --bin parallel_matrix -- --delta BENCH_parallel.json
//! ```
//!
//! `--delta` re-runs fresh and compares metric-by-metric against the
//! blessed file (see [`btd_bench::delta`]), exiting nonzero on a
//! regression past the threshold.
//!
//! The `--json` output is deterministic (sim-time throughput and
//! checksums only, no wall timings) and is checked in as
//! `BENCH_parallel.json`; a change that moves served counts, digests, or
//! modeled speedups must re-bless the file.

use std::time::Instant;

use btd_bench::report::{banner, Table};
use btd_crypto::group::DhGroup;
use btd_crypto::hmac::{hmac_sha256, verify_hmac};
use btd_crypto::nonce::Nonce;
use btd_crypto::sha256::sha256;
use btd_fingerprint::enroll::enroll;
use btd_fingerprint::image::rasterize;
use btd_fingerprint::minutiae::CaptureWindow;
use btd_fingerprint::{match_observation, CaptureConditions, FingerPattern, MatchConfig};
use btd_sim::geom::{MmPoint, MmRect, MmSize};
use btd_sim::rng::SimRng;
use trust_core::parallel::{run_parallel, ParallelConfig, ParallelRun, ShardRun};
use trust_core::server::journal::{crc32, CrashProfile, JournalRecord};

const SEED: u64 = 0x007A_11E7;
const TOUCHES: usize = 8;
const LOSS: f64 = 0.05;
/// Worker counts each cell is re-run under; the first is the baseline.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// (accounts, shards, crash probability per exchange point) cells; the
/// 16-shard cell is the speedup headline, the 8-shard cell the crash
/// cell.
const CELLS: [(usize, usize, f64); 3] = [(32, 4, 0.0), (48, 16, 0.0), (40, 8, 0.1)];

struct CellRow {
    accounts: usize,
    shards: usize,
    crash_prob: f64,
    workers: usize,
    served: u64,
    replays_accepted: u64,
    crashes: u64,
    makespan_ms: u64,
    interactions_per_s: f64,
    speedup_vs_n1: f64,
    p50_ms: u64,
    p95_ms: u64,
    p99_ms: u64,
    digest: String,
    trace_events: usize,
    wall_ms: f64,
}

fn quantile_ms(run: &ParallelRun, q: f64) -> u64 {
    run.fleet_interaction_latency()
        .quantile(q)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

fn run_cell(accounts: usize, shards: usize, crash_prob: f64) -> Vec<CellRow> {
    let cfg = ParallelConfig {
        touches: TOUCHES,
        loss: LOSS,
        crash: (crash_prob > 0.0).then(|| CrashProfile::uniform(crash_prob)),
        ..ParallelConfig::new(
            SEED ^ ((accounts as u64) << 8) ^ shards as u64,
            accounts,
            shards,
            1,
        )
    };
    let mut rows = Vec::new();
    let mut baseline: Option<(String, String, f64)> = None;
    for &workers in &WORKER_COUNTS {
        let cfg = ParallelConfig {
            workers,
            ..cfg.clone()
        };
        let started = Instant::now();
        let run = run_parallel(&cfg);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let export = run.export_jsonl();
        let digest = run.state_digest().to_hex();
        let throughput = run.modeled_throughput(workers);
        match &baseline {
            None => baseline = Some((export, digest.clone(), run.modeled_throughput(1))),
            Some((base_export, base_digest, _)) => {
                // The worker-count invariance contract, asserted on every
                // cell: N workers must merge to the N=1 bytes exactly.
                assert_eq!(
                    export, *base_export,
                    "{accounts}x{shards}: merged trace diverged at {workers} workers"
                );
                assert_eq!(
                    digest, *base_digest,
                    "{accounts}x{shards}: state digest diverged at {workers} workers"
                );
            }
        }
        let base_throughput = baseline.as_ref().map(|(_, _, t)| *t).unwrap_or(throughput);
        assert_eq!(run.replays_accepted(), 0, "exactly-once violated");
        assert!(
            run.failures().next().is_none(),
            "lifecycle failed: {:?}",
            run.failures().next()
        );
        let lifecycles =
            |pick: fn(&ShardRun) -> usize| -> usize { run.shard_runs.iter().map(pick).sum() };
        assert_eq!(
            lifecycles(|r| r.completed),
            accounts,
            "every lifecycle completes"
        );
        assert_eq!(lifecycles(|r| r.closed), accounts, "every session closes");
        assert_eq!(
            run.shard_runs
                .iter()
                .map(|r| r.records_skipped)
                .sum::<u64>(),
            0,
            "recoveries lose no journal record"
        );
        rows.push(CellRow {
            accounts,
            shards,
            crash_prob,
            workers,
            served: run.total_served(),
            replays_accepted: run.replays_accepted(),
            crashes: run.shard_runs.iter().map(|r| r.crashes).sum(),
            makespan_ms: run.makespan(workers).as_millis(),
            interactions_per_s: throughput,
            speedup_vs_n1: throughput / base_throughput,
            p50_ms: quantile_ms(&run, 0.50),
            p95_ms: quantile_ms(&run, 0.95),
            p99_ms: quantile_ms(&run, 0.99),
            digest: digest[..16].to_owned(),
            trace_events: run.merged.len(),
            wall_ms,
        });
    }
    // The headline acceptance bar: on the 16-shard config, 4 workers must
    // model at least twice the N=1 interactions/sec.
    if shards == 16 {
        let n4 = rows.iter().find(|r| r.workers == 4).expect("n4 row");
        assert!(
            n4.speedup_vs_n1 >= 2.0,
            "16-shard N=4 speedup {:.2} < 2.0",
            n4.speedup_vs_n1
        );
    }
    rows
}

struct HotPath {
    name: &'static str,
    iters: u64,
    /// Deterministic digest of the measured work's outputs: pins the
    /// workload in blessed JSON without pinning machine speed.
    checksum: u64,
    ns_per_op: f64,
}

/// Partial-print matching: one enrolled template against one observation
/// through a small off-center capture window.
fn hot_matcher() -> HotPath {
    let mut rng = SimRng::seed_from(SEED);
    let pattern = FingerPattern::generate(7, 0);
    let template = enroll(&pattern, 6, &mut rng);
    let window = CaptureWindow::centered(MmPoint::new(1.5, -2.0), 8.0, 8.0);
    let obs = pattern.observe(&window, &CaptureConditions::ideal(), &mut rng);
    let config = MatchConfig::default();
    let iters = 200u64;
    let mut checksum = 0u64;
    let started = Instant::now();
    for _ in 0..iters {
        let result = match_observation(&template, &obs.minutiae, &config);
        checksum = checksum
            .wrapping_add((result.score * 1e6) as u64)
            .wrapping_add(result.matched as u64);
    }
    let ns_per_op = started.elapsed().as_nanos() as f64 / iters as f64;
    HotPath {
        name: "partial_print_match",
        iters,
        checksum,
        ns_per_op,
    }
}

/// Session-MAC verification: HMAC-SHA256 over a 256-byte request body.
fn hot_mac_verify() -> HotPath {
    let key = [0x5Au8; 32];
    let msg: Vec<u8> = (0..256u32).map(|i| (i * 31 + 7) as u8).collect();
    let iters = 4_000u64;
    let mut checksum = 0u64;
    let started = Instant::now();
    for i in 0..iters {
        let mut body = msg.clone();
        body[0] = i as u8;
        let tag = hmac_sha256(&key, &body);
        assert!(verify_hmac(&key, &body, &tag));
        checksum =
            checksum.wrapping_add(u64::from_be_bytes(tag.as_bytes()[..8].try_into().unwrap()));
    }
    let ns_per_op = started.elapsed().as_nanos() as f64 / iters as f64;
    HotPath {
        name: "mac_verify",
        iters,
        checksum,
        ns_per_op,
    }
}

/// The Schnorr hot core: one 512-bit modular exponentiation by a fixed
/// full-width (511-bit, below q) scalar, the size of every protocol
/// exponent.
fn hot_modexp() -> HotPath {
    let group = DhGroup::test_512();
    let exp = btd_crypto::bignum::U2048::from_hex(
        "6a09e667f3bcc908 bb67ae8584caa73b 3c6ef372fe94f82b a54ff53a5f1d36f1
         510e527fade682d1 9b05688c2b3e6c1f 1f83d9abfb41bd6b 5be0cd19137e2179",
    );
    assert!(
        exp.bits() == group.order().bits() && &exp < group.order(),
        "modexp_512 exponent must be a full-width scalar"
    );
    let iters = 50u64;
    let mut checksum = 0u64;
    let mut base = *group.generator();
    let started = Instant::now();
    for _ in 0..iters {
        base = base.pow_mod(&exp, group.modulus());
        checksum = checksum.wrapping_add(base.limbs()[0]);
    }
    let ns_per_op = started.elapsed().as_nanos() as f64 / iters as f64;
    HotPath {
        name: "modexp_512",
        iters,
        checksum,
        ns_per_op,
    }
}

/// Ridge rasterization: render one off-center 6x6 mm capture region of a
/// ridge pattern to pixels at 0.05 mm pitch — the TFT comparator readout
/// the image-domain pipeline starts from.
fn hot_ridge_rasterize() -> HotPath {
    let pattern = FingerPattern::generate(11, 0);
    let region = MmRect::centered(MmPoint::new(0.5, -1.0), MmSize::new(6.0, 6.0));
    let iters = 50u64;
    let mut checksum = 0u64;
    let started = Instant::now();
    for _ in 0..iters {
        let img = rasterize(&pattern, region, 0.05);
        checksum = checksum
            .wrapping_add(crc32(img.pixels()) as u64)
            .wrapping_add(img.pixels().len() as u64);
    }
    let ns_per_op = started.elapsed().as_nanos() as f64 / iters as f64;
    HotPath {
        name: "ridge_rasterize",
        iters,
        checksum,
        ns_per_op,
    }
}

/// Journal framing: encode one registration record and frame it with the
/// length + crc32 header exactly as `Journal::append` does.
fn hot_journal_frame() -> HotPath {
    let tag = sha256(b"parallel-matrix-frame");
    let record = JournalRecord::Registered {
        account: "par-user-0".to_owned(),
        public_key: vec![0x42; 64],
        reset_password: "reset-0".to_owned(),
        nonce: Nonce([7u8; 16]),
        signature: vec![0x5a; 512],
        frame_hash: tag,
    };
    let iters = 2_000u64;
    let mut checksum = 0u64;
    let started = Instant::now();
    for _ in 0..iters {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        checksum = checksum.wrapping_add(crc32(&frame) as u64);
    }
    let ns_per_op = started.elapsed().as_nanos() as f64 / iters as f64;
    HotPath {
        name: "journal_frame_crc32",
        iters,
        checksum,
        ns_per_op,
    }
}

/// The canonical deterministic JSON document (the blessed bytes).
fn json_output(rows: &[CellRow], hot_paths: &[HotPath]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"accounts\":{},\"shards\":{},\"crash_prob\":{},\"workers\":{},\"served\":{},\
                 \"replays_accepted\":{},\"crashes\":{},\"sim_makespan_ms\":{},\
                 \"interactions_per_s\":{:.1},\"speedup_vs_n1\":{:.2},\
                 \"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\
                 \"digest\":\"{}\",\"trace_events\":{}}}",
                r.accounts,
                r.shards,
                r.crash_prob,
                r.workers,
                r.served,
                r.replays_accepted,
                r.crashes,
                r.makespan_ms,
                r.interactions_per_s,
                r.speedup_vs_n1,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.digest,
                r.trace_events,
            )
        })
        .collect();
    let hots: Vec<String> = hot_paths
        .iter()
        .map(|h| {
            format!(
                "{{\"name\":\"{}\",\"iters\":{},\"checksum\":{}}}",
                h.name, h.iters, h.checksum
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"parallel_matrix\",\n  \"seed\": {SEED},\n  \
         \"touches\": {TOUCHES},\n  \"loss\": {LOSS},\n  \"cells\": [\n    {}\n  ],\n  \
         \"hot_paths\": [\n    {}\n  ]\n}}",
        cells.join(",\n    "),
        hots.join(",\n    "),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let delta = args
        .iter()
        .position(|a| a == "--delta")
        .map(|i| args.get(i + 1).expect("--delta <blessed.json>").clone());

    let mut rows: Vec<CellRow> = Vec::new();
    for &(accounts, shards, crash_prob) in &CELLS {
        rows.extend(run_cell(accounts, shards, crash_prob));
    }
    let hot_paths = [
        hot_matcher(),
        hot_mac_verify(),
        hot_modexp(),
        hot_ridge_rasterize(),
        hot_journal_frame(),
    ];

    if let Some(blessed) = delta {
        let fresh = json_output(&rows, &hot_paths);
        std::process::exit(btd_bench::delta::run_delta_gate(&blessed, &fresh));
    }
    if json {
        println!("{}", json_output(&rows, &hot_paths));
        return;
    }

    banner("parallel matrix: accounts x shards x workers, deterministic merge");
    let mut table = Table::new([
        "accounts",
        "shards",
        "crash",
        "workers",
        "served",
        "crashes",
        "makespan ms",
        "inter/s",
        "speedup",
        "p50 ms",
        "p99 ms",
        "digest",
        "wall ms",
    ]);
    for r in &rows {
        table.row([
            r.accounts.to_string(),
            r.shards.to_string(),
            format!("{:.2}", r.crash_prob),
            r.workers.to_string(),
            r.served.to_string(),
            r.crashes.to_string(),
            r.makespan_ms.to_string(),
            format!("{:.1}", r.interactions_per_s),
            format!("{:.2}", r.speedup_vs_n1),
            r.p50_ms.to_string(),
            r.p99_ms.to_string(),
            r.digest.clone(),
            format!("{:.0}", r.wall_ms),
        ]);
    }
    table.print();
    println!(
        "\nEvery worker count of a cell merged to byte-identical traces and \
         digests (asserted); the digest column shows the shared prefix. \
         interactions/sec and speedup are modeled from the simulated \
         makespan — the slowest worker's summed shard engine time — so \
         they are deterministic and blessable; wall ms is this machine's \
         real elapsed time per run and stays out of the JSON."
    );
    println!("\nhot paths (wall clock, this machine):");
    for h in &hot_paths {
        println!(
            "  {:<22} {:>12.0} ns/op  ({} iters, checksum {:016x})",
            h.name, h.ns_per_op, h.iters, h.checksum
        );
    }
}
