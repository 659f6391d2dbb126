//! Crash-fault tolerance, end to end: the server journals every durable
//! transition, dies at seeded crash points, restarts from the journal, and
//! the event engine re-drives whatever the crash swallowed — all on top
//! of a lossy network.
//!
//! The headline matrix: crash probabilities up to 0.2 per exchange point
//! composed with 10% random message loss, 100 lifecycles, every one of
//! them completing every interaction exactly once with zero replays
//! accepted. The resume sub-protocol, which heals a lock-step session
//! after a restart, is pinned directly.

use btd_sim::rng::SimRng;
use trust_core::channel::Adversary;
use trust_core::engine::{FleetConfig, FleetReport};
use trust_core::messages::{Freshness, Reject};
use trust_core::server::journal::{CrashPoint, CrashProfile, CrashSchedule, Journal};
use trust_core::server::WebServer;
use trust_core::World;

const DOMAIN: &str = "www.xyz.com";
const TOUCHES: usize = 10;

/// One register → login → `TOUCHES` interactions → close lifecycle on the
/// event engine, stop-and-wait, under seeded crashes and random loss.
fn chaos_run(seed: u64, crash_prob: f64, loss: f64) -> (FleetReport, btd_crypto::sha256::Digest) {
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::with_adversary(Adversary::RandomLoss { loss }, &mut rng);
    let sidx = world.add_server(DOMAIN, &mut rng);
    let cfg = FleetConfig {
        lifecycles: 1,
        touches: TOUCHES,
        window: 1,
        max_live: 1,
        profile: Some(CrashProfile::uniform(crash_prob)),
    };
    let report = world.run_windowed_fleet(DOMAIN, &cfg, &mut rng);
    (report, world.server(sidx).state_digest())
}

#[test]
fn chaos_matrix_every_session_completes_with_zero_replays() {
    let mut total_crashes = 0;
    let mut completed = 0;
    let mut runs = 0;
    for crash_prob in [0.05, 0.10, 0.15, 0.20] {
        for seed in 1..=25u64 {
            runs += 1;
            let (report, _) = chaos_run(seed * 31 + (crash_prob * 1000.0) as u64, crash_prob, 0.10);
            assert_eq!(
                report.attempted, TOUCHES as u64,
                "seed {seed} prob {crash_prob}: every touch attempted"
            );
            assert_eq!(
                report.completed, 1,
                "seed {seed} prob {crash_prob}: served {}/{} failures {:?}",
                report.served, report.attempted, report.failures
            );
            assert_eq!(
                report.metrics.replays_accepted, 0,
                "seed {seed} prob {crash_prob}: journaled nonce/seq caches must keep replay protection across restarts"
            );
            assert_eq!(report.audit_mismatches, 0, "seed {seed} prob {crash_prob}");
            assert_eq!(report.records_skipped, 0, "clean crashes tear nothing");
            total_crashes += report.crashes;
            completed += report.completed;
        }
    }
    assert_eq!(completed, runs, "all {runs} lifecycles complete");
    assert!(
        total_crashes > 50,
        "the matrix actually exercised crashes (saw {total_crashes})"
    );
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let (a, digest_a) = chaos_run(42, 0.2, 0.10);
    let (b, digest_b) = chaos_run(42, 0.2, 0.10);
    assert_eq!(
        digest_a, digest_b,
        "durable server state is bit-for-bit reproducible"
    );
    assert!(a.crashes > 0, "the seed must actually crash the server");
    assert_eq!(
        a, b,
        "the whole report — crashes, sends, retries, elapsed — reproduces"
    );
}

#[test]
fn crash_free_profile_changes_nothing() {
    // CrashProfile::uniform(0.0) never fires: the lifecycle must
    // degenerate to the ordinary one.
    let (report, _) = chaos_run(7, 0.0, 0.0);
    assert_eq!(report.crashes, 0);
    assert_eq!(report.completed, 1);
    assert_eq!(report.closed, 1);
    assert_eq!(report.served, TOUCHES as u64);
    assert_eq!(report.metrics.retries, 0);
}

#[test]
fn resume_after_a_crash_heals_the_journaled_interaction_exactly_once() {
    let mut rng = SimRng::seed_from(19);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server(DOMAIN, &mut rng);
    let device = world.add_device("phone-1", 7, &mut rng);
    world
        .register(device, DOMAIN, "alice", &mut rng)
        .expect("register");
    world.login(device, DOMAIN, &mut rng).expect("login");
    let seq = world.device(device).session_seq(DOMAIN).expect("session");

    // The server journals the interaction, then dies before the reply
    // leaves it: the device never hears back.
    let touch = world.touches_for_holder(device, 1, &mut rng)[0];
    world.device_mut(device).observe_touch(&touch, &mut rng);
    let request = world
        .device_mut(device)
        .build_interaction(DOMAIN, "/inbox")
        .expect("request");
    world
        .server_mut(sidx)
        .arm_crash_schedule(CrashSchedule::once_at(CrashPoint::BeforeReply, 0));
    let crashed = world.server_mut(sidx).handle_interaction(&request);
    assert_eq!(crashed.err(), Some(Reject::ServerCrashed));
    let recovery = world.server_mut(sidx).recover_in_place(&mut rng);
    assert_eq!(recovery.records_skipped(), 0);
    assert_eq!(world.device(device).session_seq(DOMAIN), Some(seq));

    // Resume: the ack carries the journaled reply, which advances the
    // device past the interaction instead of serving it twice.
    let resume = world
        .device_mut(device)
        .begin_resume(DOMAIN)
        .expect("resume request");
    let (ack, freshness) = world
        .server_mut(sidx)
        .handle_resume(&resume)
        .expect("resume ack");
    assert_eq!(freshness, Freshness::Fresh);
    assert!(ack.last_reply.is_some(), "the journaled reply rides along");
    world
        .device_mut(device)
        .accept_resume(DOMAIN, &ack)
        .expect("authentic ack");
    assert_eq!(world.device(device).session_seq(DOMAIN), Some(seq + 1));

    // A byte-identical resend is answered from the resume cache.
    let (again, freshness) = world
        .server_mut(sidx)
        .handle_resume(&resume)
        .expect("resent ack");
    assert_eq!(freshness, Freshness::Resent);
    assert_eq!(again, ack);

    // The healed session keeps serving.
    let report = world
        .run_session(device, DOMAIN, 2, &mut rng)
        .expect("post-resume interactions");
    assert_eq!(report.served, 2);
    assert_eq!(report.metrics.replays_accepted, 0);
}

/// Runs an honest-channel lifecycle and hands back the world plus the
/// server's index, so tests can damage the live journal in place.
fn lifecycle_world(seed: u64) -> (World, usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server(DOMAIN, &mut rng);
    let device = world.add_device("phone-1", 7, &mut rng);
    world
        .register(device, DOMAIN, "alice", &mut rng)
        .expect("register");
    world.login(device, DOMAIN, &mut rng).expect("login");
    world
        .run_session(device, DOMAIN, 5, &mut rng)
        .expect("session");
    (world, sidx)
}

#[test]
fn torn_final_record_restores_last_acked_state_and_counts_one_skip() {
    let (mut world, sidx) = lifecycle_world(11);
    let server = world.server_mut(sidx);
    let shard = server.shard_for("alice");
    let contents = server.journal(shard).read();
    assert_eq!(contents.skipped, 0);
    assert!(
        contents.records.len() >= 2,
        "lifecycle journaled several records"
    );

    // Expected state: everything except the final record in alice's
    // shard; the other shards' (empty) segments are carried unchanged.
    let mut expected_journal = Journal::in_memory();
    if !contents.snapshot.is_empty() {
        expected_journal
            .install_snapshot(&contents.snapshot)
            .expect("in-memory snapshot install");
    }
    for rec in &contents.records[..contents.records.len() - 1] {
        expected_journal.append(rec);
    }
    let mut expected_journals = server.fork_journals();
    expected_journals[shard] = expected_journal;
    let mut rng = SimRng::seed_from(99);
    let (expected, _) = WebServer::recover(server.identity(), expected_journals, &mut rng);

    // Tear one byte off the shard's log tail: the final frame no longer
    // parses.
    server.journal_mut(shard).tear_tail(1);
    let report = server.recover_in_place(&mut rng);

    assert_eq!(
        report.records_skipped(),
        1,
        "exactly the torn record is lost"
    );
    assert_eq!(report.records_replayed(), contents.records.len() - 1);
    assert_eq!(
        report.shards_with_skips(),
        vec![shard],
        "only the torn shard reports a skip"
    );
    assert_eq!(
        server.state_digest(),
        expected.state_digest(),
        "recovery lands on the last fully-acknowledged state"
    );
}

#[test]
fn mid_log_bit_rot_skips_one_record_and_keeps_reading() {
    let (world, sidx) = lifecycle_world(13);
    let server = world.server(sidx);
    let contents = server.journal(server.shard_for("alice")).read();
    assert!(contents.records.len() >= 3);

    // Rebuild the log, then flip a bit inside the *first* record's payload:
    // its CRC fails, it is skipped, and every later record still decodes.
    let mut journal = Journal::in_memory();
    if !contents.snapshot.is_empty() {
        journal
            .install_snapshot(&contents.snapshot)
            .expect("in-memory snapshot install");
    }
    for rec in &contents.records {
        journal.append(rec);
    }
    journal.corrupt_at(10, 3); // inside the first frame's payload
    let damaged = journal.read();
    assert_eq!(damaged.skipped, 1);
    assert_eq!(damaged.records.len(), contents.records.len() - 1);
    assert_eq!(&damaged.records[..], &contents.records[1..]);
}

#[test]
fn recovery_unseals_session_keys_and_the_session_keeps_serving() {
    // The journal's LoginServed record carries the session key only in
    // sealed form; this pins the recovery path end to end: a restarted
    // server must unseal the key during replay, or every post-recovery
    // MAC check would fail.
    let mut rng = SimRng::seed_from(17);
    let mut world = World::new(&mut rng);
    let sidx = world.add_server(DOMAIN, &mut rng);
    let device = world.add_device("phone-1", 7, &mut rng);
    world
        .register(device, DOMAIN, "alice", &mut rng)
        .expect("register");
    world.login(device, DOMAIN, &mut rng).expect("login");
    world
        .run_session(device, DOMAIN, 3, &mut rng)
        .expect("pre-crash interactions");

    let digest_before = world.server(sidx).state_digest();
    let report = world.server_mut(sidx).recover_in_place(&mut rng);
    assert_eq!(report.records_skipped(), 0);
    assert_eq!(
        world.server(sidx).state_digest(),
        digest_before,
        "replaying sealed records reproduces the exact durable state"
    );

    // The real proof: the restarted server serves more interactions whose
    // MACs verify under the unsealed key.
    let report = world
        .run_session(device, DOMAIN, 3, &mut rng)
        .expect("post-recovery interactions");
    assert_eq!(report.served, 3);
    assert_eq!(report.metrics.replays_accepted, 0);
}

#[test]
fn deterministic_once_at_schedule_fires_exactly_once() {
    let mut schedule = CrashSchedule::once_at(CrashPoint::AfterAppend, 2);
    assert!(!schedule.visit(CrashPoint::AfterAppend)); // 0th
    assert!(!schedule.visit(CrashPoint::BeforeReply)); // other point ignored
    assert!(!schedule.visit(CrashPoint::AfterAppend)); // 1st
    assert!(schedule.visit(CrashPoint::AfterAppend)); // 2nd: fires
    assert!(!schedule.visit(CrashPoint::AfterAppend), "one-shot");
}
