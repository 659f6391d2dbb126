//! `churn` and `long_session`: closed-loop device lifecycles through the
//! event engine's fleet driver (`engine::run_windowed_fleet`) against one
//! sharded server, on one thread.

use std::hint::black_box;
use std::time::Instant;

use btd_crypto::group::DhGroup;
use btd_flock::module::{FlockConfig, FlockModule};
use btd_sim::rng::SimRng;
use btd_workload::profile::UserProfile;
use btd_workload::session::{SessionGenerator, TouchSample};
use trust_core::ca::TrustAuthority;
use trust_core::channel::{Adversary, Channel};
use trust_core::device::MobileDevice;
use trust_core::engine::{run_windowed_fleet, FleetConfig, FleetReport};
use trust_core::metrics::RetryPolicy;
use trust_core::scenario::{World, DEFAULT_ACTIONS};
use trust_core::server::journal::{CrashProfile, JournalRecord};
use trust_core::server::WebServer;
use trust_core::trace::{EventKind, Tracer};

use crate::spans::{Spans, Timer, Untimed};
use crate::{kernels, per, probe, repeat_for, require, sub_seed, Stretch, Unit};

const DOMAIN: &str = "www.xyz.com";

/// Ring bound of the protocol tracer. The fleet driver drains it after
/// every retired lifecycle; a run must never evict (checked).
const TRACE_CAPACITY: usize = 1 << 20;

/// One fleet workload's shape.
pub struct Shape {
    /// Lifecycles per unit, and the cap on how many are live at once.
    pub lifecycles: usize,
    pub max_live: usize,
    /// Interactions per lifecycle and the pipeline window.
    pub touches: usize,
    pub window: u64,
    /// Server shards.
    pub shards: usize,
    /// Random loss per message, and the per-crash-point crash probability.
    pub loss: f64,
    pub crash: Option<f64>,
    /// Lifecycles in the traced stage sample.
    pub stage_lifecycles: usize,
    /// Devices whose touches feed the `flock.process_touch` kernel.
    pub kernel_devices: usize,
    /// Distinct inputs per run (see [`crate::sub_seed`]).
    pub cycle: usize,
}

/// Many short lifecycles: register and login (512-bit modexp) dominate.
/// A fleet's simulated elapsed time ends with its slowest straggler's
/// backoff chain, so the unit is one large fleet: split into small fleets,
/// goodput would hang on each one's unlucky retries.
pub const CHURN: Shape = Shape {
    lifecycles: 1024,
    max_live: 64,
    touches: 4,
    window: 4,
    shards: 16,
    loss: 0.05,
    crash: Some(1e-3),
    stage_lifecycles: 16,
    kernel_devices: 64,
    cycle: 1,
};

/// Few long sessions: the per-interaction path dominates.
pub const LONG_SESSION: Shape = Shape {
    lifecycles: 16,
    max_live: 16,
    touches: 1024,
    window: 8,
    shards: 16,
    loss: 0.05,
    crash: None,
    stage_lifecycles: 2,
    kernel_devices: 2,
    cycle: 6,
};

fn config(shape: &Shape) -> FleetConfig {
    FleetConfig {
        lifecycles: shape.lifecycles,
        touches: shape.touches,
        window: shape.window,
        max_live: shape.max_live,
        profile: shape.crash.map(CrashProfile::uniform),
    }
}

/// The world as far as the first admitted lifecycle: group statics, CA
/// and server keys, channel, tracer, sharded server.
fn build_world(shape: &Shape, seed: u64) -> (World, SimRng, Tracer) {
    let mut rng = SimRng::seed_from(seed);
    let mut world = World::with_adversary(Adversary::RandomLoss { loss: shape.loss }, &mut rng);
    let tracer = world.enable_tracing_bounded(TRACE_CAPACITY);
    world.add_server_with_shards(DOMAIN, shape.shards, &mut rng);
    (world, rng, tracer)
}

/// Seconds to build the world in this process.
pub fn setup(shape: &Shape, seed: u64) -> f64 {
    let started = Instant::now();
    black_box(build_world(shape, seed));
    started.elapsed().as_secs_f64()
}

/// [`build_world`]'s world taken apart, so the benchmark can call
/// `engine::run_windowed_fleet` with its own spawn closure.
struct Parts {
    rng: SimRng,
    ca: TrustAuthority,
    channel: Channel,
    policy: RetryPolicy,
    tracer: Tracer,
    server: WebServer,
}

/// Mirror of `World::with_adversary` + `enable_tracing_bounded` +
/// `add_server_with_shards`: the same RNG draws in the same order, so a
/// fleet run on these parts must equal `World::run_windowed_fleet` on
/// [`build_world`]'s world (the traced run checks it).
fn build_parts(shape: &Shape, seed: u64) -> Parts {
    let mut rng = SimRng::seed_from(seed);
    let group = DhGroup::test_512();
    let mut ca = TrustAuthority::new(group, &mut rng);
    let mut channel = Channel::seeded(Adversary::RandomLoss { loss: shape.loss }, &mut rng);
    let tracer = Tracer::enabled_bounded(TRACE_CAPACITY);
    channel.set_tracer(tracer.clone());
    let mut server = WebServer::with_shards(DOMAIN, group, &mut ca, &mut rng, shape.shards);
    server.set_tracer(tracer.clone());
    Parts {
        rng,
        ca,
        channel,
        policy: RetryPolicy::default(),
        tracer,
        server,
    }
}

/// `engine::run_windowed_fleet` on `parts` with a mirror of the spawn
/// closure in `World::run_windowed_fleet`. `timer` wraps each layer call
/// the closure makes, and `admitted(i, owner, touches)` runs once
/// lifecycle `i` is built, just before the engine brings it up.
fn run_fleet(
    shape: &Shape,
    parts: &mut Parts,
    timer: &mut impl Timer,
    mut admitted: impl FnMut(usize, u64, &[TouchSample]),
) -> FleetReport {
    let cfg = config(shape);
    let Parts {
        rng,
        ca,
        channel,
        policy,
        server,
        ..
    } = parts;
    let mut spawn = |i: usize, rng: &mut SimRng| {
        let name = format!("fleet-dev-{i}");
        let owner = 1_000 + i as u64;
        let mut flock = timer.time("flock.provision", || {
            let mut flock = FlockModule::new(&name, FlockConfig::fast_test(), rng);
            ca.provision_device(&mut flock);
            flock
        });
        timer.time("flock.enroll", || flock.enroll_owner(owner, 3, rng));
        let device = MobileDevice::new(&name, flock);
        let mut touches = timer.time("workload.generate", || {
            let profile = UserProfile::builtin((owner % 3) as usize);
            let mut gen = SessionGenerator::new(profile, rng);
            gen.generate(cfg.touches, rng)
        });
        for t in touches.iter_mut() {
            t.user_id = owner;
        }
        admitted(i, owner, &touches);
        (device, owner, format!("fleet-user-{i}"), touches)
    };
    run_windowed_fleet(
        server,
        channel,
        policy,
        DOMAIN,
        &DEFAULT_ACTIONS,
        &cfg,
        &mut spawn,
        rng,
    )
}

/// The correctness gate every fleet unit passes.
fn check(shape: &Shape, report: &FleetReport, tracer: &Tracer) -> Vec<String> {
    let mut problems = Vec::new();
    let demanded = (shape.lifecycles * shape.touches) as u64;
    if report.completed == report.lifecycles {
        require(&mut problems, report.served == demanded, || {
            format!("exactly-once: served {} != {demanded}", report.served)
        });
    }
    require(&mut problems, report.served <= demanded, || {
        format!("served {} exceeds demand {demanded}", report.served)
    });
    require(&mut problems, report.metrics.replays_accepted == 0, || {
        format!("{} replays accepted", report.metrics.replays_accepted)
    });
    require(&mut problems, report.records_skipped == 0, || {
        format!("clean crashes lost {} records", report.records_skipped)
    });
    require(
        &mut problems,
        report.derived.as_ref() == Some(&report.metrics),
        || "trace-derived metrics differ from the live counters".to_owned(),
    );
    require(&mut problems, tracer.dropped() == 0, || {
        format!("bounded tracer evicted {} events", tracer.dropped())
    });
    problems
}

/// A fleet unit, timed as one stretch, from its report, host and CPU
/// seconds, and final state.
fn fleet_unit(
    shape: &Shape,
    report: &FleetReport,
    wall_s: f64,
    cpu_s: f64,
    server: &WebServer,
    tracer: &Tracer,
) -> Unit {
    Unit {
        wall_s,
        cpu_s,
        stretches: vec![Stretch::whole(wall_s, cpu_s)],
        lifecycles: report.lifecycles,
        completed: report.completed,
        lifecycles_failed: report.failed,
        demanded: (shape.lifecycles * shape.touches) as u64,
        served: report.served,
        sim_s: report.elapsed.as_secs_f64(),
        sends: report.metrics.sends,
        digest: server.state_digest().to_hex(),
        problems: check(shape, report, tracer),
    }
}

/// One untimed build plus one timed fleet run through `World`, the
/// program's own driver.
fn world_unit(shape: &Shape, seed: u64) -> (Unit, FleetReport, World) {
    let (mut world, mut rng, tracer) = build_world(shape, seed);
    let cpu0 = probe::cpu_seconds();
    let started = Instant::now();
    let report = world.run_windowed_fleet(DOMAIN, &config(shape), &mut rng);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    let unit = fleet_unit(shape, &report, wall_s, cpu_s, world.server(0), &tracer);
    (unit, report, world)
}

/// Recovers a second server from `server`'s durable identity and journal
/// copies; its state must equal the live state. Returns the recovery's
/// host milliseconds and records replayed.
fn cold_recover(server: &WebServer, seed: u64, problems: &mut Vec<String>) -> (f64, usize) {
    let mut rng = SimRng::seed_from(seed ^ 0x5EC0_7E55);
    let identity = server.identity();
    let journals = server.fork_journals();
    let started = Instant::now();
    let (recovered, report) = WebServer::recover(identity, journals, &mut rng);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    require(
        problems,
        recovered.state_digest() == server.state_digest(),
        || "cold-recovered state digest differs from the live one".to_owned(),
    );
    (ms, report.records_replayed())
}

/// Admissions per timed stretch of a fleet unit.
const STRETCH: usize = 64;

/// One untimed build plus one timed fleet run through [`run_fleet`],
/// which marks the host and CPU clocks at every [`STRETCH`]-th admission
/// once the first `max_live` lifecycles are in. From then on a lifecycle
/// is admitted only when another retires, so each stretch between two
/// marks holds about [`STRETCH`] lifecycles' work. A fleet with no
/// admission past `max_live` is one stretch.
fn timed_unit(shape: &Shape, seed: u64) -> (Unit, WebServer) {
    let mut parts = build_parts(shape, seed);
    let mut marks = Vec::with_capacity(shape.lifecycles / STRETCH + 1);
    let cpu0 = probe::cpu_seconds();
    let started = Instant::now();
    let report = run_fleet(shape, &mut parts, &mut Untimed, |i, _, _| {
        if i >= shape.max_live && (i - shape.max_live).is_multiple_of(STRETCH) {
            marks.push((Instant::now(), probe::cpu_seconds()));
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu0;
    let mut unit = fleet_unit(shape, &report, wall_s, cpu_s, &parts.server, &parts.tracer);
    if marks.len() > 1 {
        let share = STRETCH as f64 / shape.lifecycles as f64;
        unit.stretches = marks
            .windows(2)
            .map(|w| Stretch {
                share,
                wall_s: (w[1].0 - w[0].0).as_secs_f64(),
                cpu_s: w[1].1 - w[0].1,
            })
            .collect();
    }
    (unit, parts.server)
}

/// The timed run: fleet units back to back for `seconds` (at least one
/// cycle of inputs), then one cold recovery that reads the last unit's
/// journals back.
pub fn timed(shape: &Shape, seed: u64, seconds: u64) -> Vec<Unit> {
    let mut last = None;
    let mut units = repeat_for(seconds, shape.cycle, |i| {
        // Drop the previous server first so only one is ever resident.
        last = None;
        let (unit, server) = timed_unit(shape, sub_seed(seed, i % shape.cycle));
        last = Some(server);
        unit
    });
    let server = last.expect("at least one unit");
    let (_, replayed) = cold_recover(&server, seed, &mut units[0].problems);
    println!("cold recovery replayed {replayed} records");
    units
}

/// The traced run: one untraced unit for the overhead baseline, the same
/// fleet again through a mirror of `World::run_windowed_fleet` whose
/// spawn closure spans each layer call, a cold recovery, a stage sample
/// through `World`'s public lifecycle calls, and the leaf kernels on the
/// workload's own inputs.
pub fn traced(shape: &Shape, seed: u64, spans: &mut Spans) -> (Unit, Vec<(&'static str, f64)>) {
    let (mut unit, world_report, world) = world_unit(shape, seed);
    let traced_from = spans.elapsed_ns();

    let mut parts = build_parts(shape, seed);
    let mut kept: Vec<(u64, Vec<TouchSample>)> = Vec::new();
    let fleet_started = Instant::now();
    spans.open("engine.fleet");
    let (report, allocs) = probe::count_allocations(|| {
        run_fleet(shape, &mut parts, spans, |_, owner, touches| {
            if kept.len() < shape.kernel_devices {
                kept.push((owner, touches.to_vec()));
            }
        })
    });
    spans.close("engine.fleet");
    let traced_wall = fleet_started.elapsed().as_secs_f64();
    let Parts { server, tracer, .. } = parts;

    let problems = &mut unit.problems;
    problems.extend(check(shape, &report, &tracer));
    require(problems, report == world_report, || {
        "the traced mirror's report differs from World::run_windowed_fleet's".to_owned()
    });
    require(
        problems,
        server.state_digest() == world.server(0).state_digest(),
        || "the traced mirror's state differs from World::run_windowed_fleet's".to_owned(),
    );
    // The fleet driver drains the tracer as lifecycles retire, so count
    // events by id: the id of one more event is the number recorded.
    tracer.record(EventKind::StaleContent { copies: 0 });
    let events = tracer.events().last().map_or(0, |e| e.id);

    let served = report.served as f64;
    let (recover_ms, replayed) = spans.time("server.cold_recover", || {
        cold_recover(&server, seed, problems)
    });
    let stage = stage_sample(shape, seed, spans, problems);
    let records: Vec<JournalRecord> = (0..server.shard_count())
        .flat_map(|i| server.journal(i).read().records)
        .collect();
    let session_id = stage.session_id.clone();
    let traced_to = spans.elapsed_ns();

    let mut layers = vec![
        ("flock.provision_ms", mean_ms(spans, "flock.provision")),
        ("flock.enroll_ms", mean_ms(spans, "flock.enroll")),
        (
            "workload.generate_us_per_touch",
            per(
                spans.total_ns("workload.generate") as f64 / 1e3,
                (spans.named("workload.generate").count() * shape.touches) as f64,
            ),
        ),
        ("server.cold_recover_ms", recover_ms),
        ("server.records_replayed", replayed as f64),
        ("server.recoveries", report.crashes as f64),
        (
            "journal.bytes_per_interaction",
            per(server.journal_bytes() as f64, served),
        ),
        ("trace.events_per_interaction", per(events as f64, served)),
        (
            "channel.duplicates_resent",
            report.metrics.duplicates_resent as f64,
        ),
        ("engine.retries", report.metrics.retries as f64),
        ("engine.timeouts", report.metrics.timeouts as f64),
        ("engine.reauths", report.terminated as f64),
        (
            "alloc.allocs_per_interaction",
            per(allocs.allocs as f64, served),
        ),
        (
            "alloc.bytes_per_interaction",
            per(allocs.bytes as f64, served),
        ),
        ("attrib.tracing_overhead", traced_wall / unit.wall_s),
        (
            "registration.register_ms",
            mean_ms(spans, "registration.register"),
        ),
        ("auth.login_ms", mean_ms(spans, "auth.login")),
        (
            "engine.interaction_us",
            per(
                spans.total_self_ns("engine.session") as f64 / 1e3,
                stage.served as f64,
            ),
        ),
        ("attrib.register_login_share", stage.register_login_share),
        ("attrib.interaction_share", stage.interaction_share),
    ];
    // Residual: traced wall-clock between the first and last span of this
    // pass that no top-level span covers (harness glue).
    let covered = spans.covered_ns_between(traced_from, traced_to);
    layers.push((
        "attrib.residual_share",
        1.0 - per(covered as f64, (traced_to - traced_from) as f64),
    ));
    layers.extend(kernels::crypto(seed, &session_id, spans));
    layers.push((
        "flock.process_touch_us",
        kernels::process_touch(&kept, seed, spans),
    ));
    layers.push(("journal.frame_ns", kernels::journal_frame(&records, spans)));
    (unit, layers)
}

fn mean_ms(spans: &Spans, name: &str) -> f64 {
    per(
        spans.total_ns(name) as f64 / 1e6,
        spans.named(name).count() as f64,
    )
}

/// What the stage sample measured.
struct Stage {
    served: u64,
    register_login_share: f64,
    interaction_share: f64,
    /// A session id the server issued, for the request-sized MAC kernel.
    session_id: String,
}

/// Lifecycles of the workload's seed and shape, one stage at a time
/// through `World`'s public calls, each stage in its own span under a
/// `stage.lifecycle` span. A lifecycle the lossy channel defeats is
/// reported and left out; a replay accepted is a correctness failure.
fn stage_sample(shape: &Shape, seed: u64, spans: &mut Spans, problems: &mut Vec<String>) -> Stage {
    let (mut world, mut rng, _tracer) = build_world(shape, seed);
    let mut served = 0;
    let mut session_id = String::new();
    for i in 0..shape.stage_lifecycles {
        spans.open("stage.lifecycle");
        let outcome = stage_lifecycle(&mut world, &mut rng, shape, i, spans);
        spans.close("stage.lifecycle");
        match outcome {
            Ok(report) => {
                require(problems, report.replays_accepted == 0, || {
                    format!("stage sample lifecycle {i} accepted a replay")
                });
                served += report.served;
                session_id = report.session_id;
            }
            Err(e) => eprintln!("stage sample lifecycle {i} left out: {e}"),
        }
    }
    let total = spans.total_ns("stage.lifecycle") as f64;
    let reg_login = spans.total_ns("registration.register") + spans.total_ns("auth.login");
    Stage {
        served,
        register_login_share: per(reg_login as f64, total),
        interaction_share: per(spans.total_self_ns("engine.session") as f64, total),
        session_id,
    }
}

struct StageLifecycle {
    served: u64,
    replays_accepted: u64,
    session_id: String,
}

fn stage_lifecycle(
    world: &mut World,
    rng: &mut SimRng,
    shape: &Shape,
    i: usize,
    spans: &mut Spans,
) -> Result<StageLifecycle, String> {
    let owner = 1_000 + i as u64;
    let account = format!("fleet-user-{i}");
    let device = spans.time("flock.add_device", || {
        world.add_device(&format!("fleet-dev-{i}"), owner, rng)
    });
    spans
        .time("registration.register", || {
            world.register(device, DOMAIN, &account, rng)
        })
        .map_err(|e| format!("register: {e}"))?;
    let login = spans
        .time("auth.login", || {
            world.login_windowed(device, DOMAIN, shape.window, rng)
        })
        .map_err(|e| format!("login: {e}"))?;
    let report = spans
        .time("engine.session", || {
            world.run_windowed_session(device, DOMAIN, shape.touches, shape.window, rng)
        })
        .map_err(|e| format!("session: {e}"))?;
    spans
        .time("server.close", || {
            world
                .server_mut(0)
                .close_session(&account, &login.session_id)
        })
        .map_err(|e| format!("close: {e:?}"))?;
    Ok(StageLifecycle {
        served: report.served,
        replays_accepted: report.metrics.replays_accepted,
        session_id: login.session_id,
    })
}
