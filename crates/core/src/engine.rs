//! Event-driven pipelined protocol engine: the one driver of the paper's
//! Fig. 10 loop (register, log in once, then authenticate every
//! touch-driven request, then close).
//!
//! A discrete-event runner on top of [`btd_sim::event::EventQueue`]:
//! lifecycle bring-up, device sends, server arrivals, reply deliveries,
//! per-slot retransmission timers, and crash recoveries are all scheduled
//! events on one deterministic timeline, and interactions flow through a
//! sliding window of pipelined sequence numbers
//! ([`MobileDevice::windowed_request`] /
//! [`MobileDevice::accept_windowed_content`] on the device, the
//! reply-window idempotency cache on the server). One loop serves every
//! caller: [`run_windowed_session`] is its one-device case,
//! [`run_windowed_fleet`] spawns lifecycles under a live cap, and the
//! shard-parallel runtime ([`crate::parallel`]) runs one fleet per shard.
//!
//! Selective retransmission: each in-flight slot owns its own timer; only
//! the slot whose reply is missing is retransmitted
//! ([`crate::trace::EventKind::SelectiveRetransmit`]), while replies for
//! later slots are buffered device-side and reconciled when the base slot
//! lands (cumulative ack, surfaced as
//! [`crate::trace::EventKind::WindowAdvance`]). Exactly-once per slot is
//! the server's reply-window membership test, so `replays_accepted` stays
//! zero under loss, duplication, reordering, and server crashes: a crash
//! is healed by a scheduled operator restart, and the derived per-slot
//! nonces make the restart transparent to in-flight slots.
//!
//! Tracing: every event a lifecycle's handler records (the engine's, the
//! channel's, the server's) carries that lifecycle's account, session,
//! and slot, so [`crate::trace::TraceQuery`] timelines and the span
//! profiler work however lifecycles interleave. Each lifecycle is
//! bracketed by a [`SpanKind::Lifecycle`] span and each slot by a
//! [`SpanKind::Interact`] span (the two nest strictly at `window == 1`).
//!
//! Metrics parity: every counter bump pairs with the same trace event the
//! lock-step [`crate::auth::exchange`] loop would record, so
//! [`crate::trace::derive_metrics`] over the event stream reproduces the
//! live [`ProtocolMetrics`] exactly (pinned by `tests/prop_window.rs`).
//! With `window == 1` the engine degenerates to stop-and-wait on the event
//! timeline, which is the baseline row of the goodput ablation.

use std::borrow::BorrowMut;
use std::collections::hash_map::{Entry, HashMap};

use btd_sim::event::EventQueue;
use btd_sim::rng::SimRng;
use btd_sim::time::{SimDuration, SimTime};
use btd_workload::session::TouchSample;

use crate::audit::{audit_window, ViewCache};
use crate::auth::login_collect;
use crate::channel::Channel;
use crate::device::{DeviceError, MobileDevice, WindowAccept};
use crate::messages::{ContentPage, Freshness, InteractionRequest, Reject};
use crate::metrics::{Phase, ProtocolMetrics, RetryPolicy};
use crate::registration::{register_collect, FlowError};
use crate::server::journal::{CrashProfile, CrashSchedule};
use crate::server::WebServer;
use crate::trace::{
    derive_metrics, CtxArgs, DuplicateVerdict, EventKind, Outcome, SpanKind, TraceEvent, Tracer,
};

/// How many times a blocking stage (registration, login, a shed
/// registration, a risk re-authentication, a close) or a slot's full
/// retry cycle is re-driven before the lifecycle is declared stuck.
const MAX_ROUNDS: u32 = 32;

/// How long after a crash is first observed the operator restart fires.
const RECOVERY_DELAY: SimDuration = SimDuration::from_millis(200);

/// Spacing between initial fleet spawns, so 100k lifecycles do not all
/// collide on the same instant.
const SPAWN_STAGGER: SimDuration = SimDuration::from_millis(1);

/// How long after a risk-policy termination the owner re-authenticates
/// (fleet mode): the re-login prompt is a user-visible interruption, not
/// an instant retry.
const REAUTH_DELAY: SimDuration = SimDuration::from_millis(150);

/// How long a lifecycle whose registration was shed under storage
/// pressure waits before registering again. Meanwhile other lifecycles'
/// traffic compacts the log, which lifts degraded mode.
const SHED_RETRY_DELAY: SimDuration = SimDuration::from_millis(200);

/// Rejects worth retrying with the undamaged original (transit damage);
/// mirrors the lock-step exchange's classification.
fn transit_retryable(reject: Reject) -> bool {
    matches!(reject, Reject::BadMac | Reject::UnknownNonce)
}

/// Flow outcomes a blocking stage (register / login / re-login) survives
/// by running the flow again. Losses burn the round as before; a
/// biometric false rejection or a risk-policy bounce is answered the way
/// a real owner answers it — touch the sensor again and retry, which
/// feeds fresh genuine evidence through the k-of-n window. At fleet scale
/// these tails are guaranteed to appear (FRR is small but not zero), so
/// treating them as conclusive would fail lifecycles for behaving exactly
/// as the paper's continuous-auth model says they should.
fn transient_flow(err: &FlowError) -> bool {
    matches!(
        err,
        FlowError::NetworkDropped
            | FlowError::Device(DeviceError::BiometricRejected)
            | FlowError::Server(Reject::RiskTerminated)
    )
}

/// Everything scheduled on the engine's timeline.
///
/// The `epoch` carried by in-session events is the session generation the
/// event was scheduled under; a risk-policy re-authentication bumps the
/// lifecycle's epoch, stranding every in-flight send, arrival, and timer
/// of the terminated session (they drain as no-ops, exactly as if the
/// wire had eaten them).
enum Ev {
    /// Bring lifecycle `dev` up: spawn it if it is new, register its
    /// account if unbound, log in (fleet mode), and open its window. Also
    /// re-scheduled to retry a shed registration and to re-authenticate
    /// after a risk-policy termination.
    Up { dev: u64 },
    /// The device transmits (or retransmits) the request for `slot`.
    Send {
        dev: u64,
        slot: u64,
        attempt: u32,
        epoch: u32,
    },
    /// One copy of a request reaches the server.
    ServerRx {
        dev: u64,
        req: Box<InteractionRequest>,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        dup: bool,
        epoch: u32,
    },
    /// One copy of a reply reaches the device.
    DeviceRx {
        dev: u64,
        reply: Box<ContentPage>,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        epoch: u32,
    },
    /// Slot `slot`'s per-attempt retransmission timer fires.
    Timer {
        dev: u64,
        slot: u64,
        attempt: u32,
        epoch: u32,
    },
    /// The operator restarts the crashed server from its journals.
    Recover,
}

impl Ev {
    /// The lifecycle (and slot) an event belongs to; `Recover` is the
    /// server's own.
    fn target(&self) -> Option<(u64, Option<u64>)> {
        match *self {
            Ev::Up { dev } => Some((dev, None)),
            Ev::Send { dev, slot, .. }
            | Ev::ServerRx { dev, slot, .. }
            | Ev::DeviceRx { dev, slot, .. }
            | Ev::Timer { dev, slot, .. } => Some((dev, Some(slot))),
            Ev::Recover => None,
        }
    }
}

/// What separates one pre-opened session from a fleet of lifecycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// One device whose session is already open: a risk termination ends
    /// the run, the session stays open for the caller, the trace stays in
    /// the tracer, and the loop stops at the last settled event.
    Session,
    /// Spawned lifecycles: log in at bring-up, re-authenticate after a
    /// risk termination, close at retirement, drain the trace after every
    /// event, and run the queue dry.
    Fleet,
}

/// Per-slot device-side protocol state.
#[derive(Clone, Copy, Default)]
struct SlotState {
    /// The slot's touch has been observed (exactly once).
    observed: bool,
    /// An authentic reply for this slot has been accepted (possibly still
    /// buffered out of order); retransmission stops here.
    acked: bool,
    /// The slot is settled: applied to the session, or conclusively dead.
    /// Set only by [`SessionRun::settle`], which keeps the run's counts.
    done: bool,
    /// The slot's [`SpanKind::Interact`] span is open.
    spanned: bool,
    /// Current attempt number (stale timers and sends are ignored).
    attempt: u32,
    /// Give-up re-arm cycles consumed.
    round: u32,
}

/// One lifecycle's windowed browsing session as the engine tracks it.
struct SessionRun {
    /// Absolute sequence number of slot index 0.
    base0: u64,
    slots: Vec<SlotState>,
    /// Each slot's request, pinned at first build: selective retransmits
    /// resend the *same bytes* (same frame hash, same MAC), so the server
    /// answers them as [`Freshness::Resent`] and the offline audit sees
    /// one committed frame per slot.
    requests: Vec<Option<InteractionRequest>>,
    /// Slots whose first `Send` has been scheduled.
    scheduled: usize,
    /// Slots settled so far (`done`).
    settled: usize,
    /// Scheduled slots not yet settled: the window's occupancy.
    open: usize,
    /// Every slot below this index was settled by a cumulative ack.
    acked_below: usize,
    touches: Vec<TouchSample>,
    account: String,
    /// The live session id (trace context).
    session: Option<String>,
    owner: u64,
    /// Length of the account's audit window before this lifecycle.
    audit_start: usize,
    /// The window is open (bring-up finished at least once).
    up: bool,
    attempted: u64,
    served: u64,
    /// Interactions this lifecycle owes in total; survives the slot
    /// rebuild a re-authentication performs.
    total: u64,
    rejects: Vec<Reject>,
    terminated: bool,
    failure: Option<FlowError>,
    /// Session generation: bumped on re-authentication so events from the
    /// terminated session are recognizably stale.
    epoch: u32,
    /// Risk-policy terminations this lifecycle absorbed by logging in
    /// again (bounded by [`MAX_ROUNDS`]).
    terminations: u64,
    /// Registrations of this lifecycle shed under storage pressure
    /// (bounded by [`MAX_ROUNDS`]).
    sheds: u32,
}

impl SessionRun {
    fn new(account: String, owner: u64, touches: Vec<TouchSample>, audit_start: usize) -> Self {
        SessionRun {
            base0: 0,
            slots: Vec::new(),
            requests: Vec::new(),
            scheduled: 0,
            settled: 0,
            open: 0,
            acked_below: 0,
            total: touches.len() as u64,
            touches,
            account,
            session: None,
            owner,
            audit_start,
            up: false,
            attempted: 0,
            served: 0,
            rejects: Vec::new(),
            terminated: false,
            failure: None,
            epoch: 0,
            terminations: 0,
            sheds: 0,
        }
    }

    fn idx(&self, slot: u64) -> usize {
        (slot - self.base0) as usize
    }

    /// Every slot applied or conclusively dead.
    fn settled(&self) -> bool {
        self.settled == self.slots.len()
    }

    /// Settles slot index `i` (no-op if it already is).
    fn settle(&mut self, i: usize) {
        if !std::mem::replace(&mut self.slots[i].done, true) {
            self.settled += 1;
            if i < self.scheduled {
                self.open -= 1;
            }
        }
    }

    /// Settles every slot below index `end`; each slot is visited once
    /// per session, however many cumulative acks cover it.
    fn settle_below(&mut self, end: usize) {
        for i in self.acked_below..end.min(self.slots.len()) {
            self.settle(i);
        }
        self.acked_below = self.acked_below.max(end);
    }

    /// Schedules the next slot's first `Send` (the caller queues it).
    fn schedule_next(&mut self) {
        if !self.slots[self.scheduled].done {
            self.open += 1;
        }
        self.scheduled += 1;
    }

    /// The run can make no further progress on its own.
    fn finished(&self) -> bool {
        self.terminated || self.failure.is_some() || (self.up && self.settled())
    }

    /// Every interaction was served and applied.
    fn completed(&self) -> bool {
        self.failure.is_none() && !self.terminated && self.served == self.total
    }

    /// Re-bases the run on a (new) session at `base0`: served slots keep
    /// their credit, and the unserved touches become the session's slots
    /// (after a re-authentication the owner repeats those gestures).
    fn rebase(&mut self, base0: u64, session: Option<String>) {
        let remaining: Vec<TouchSample> = self
            .touches
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.slots.get(i).is_some_and(|s| s.acked))
            .map(|(_, touch)| *touch)
            .collect();
        self.base0 = base0;
        self.slots = vec![SlotState::default(); remaining.len()];
        self.requests = vec![None; remaining.len()];
        self.scheduled = 0;
        self.settled = 0;
        self.open = 0;
        self.acked_below = 0;
        self.touches = remaining;
        self.session = session;
        self.up = true;
    }

    /// The trace context of this lifecycle, at `slot` if given.
    fn ctx(&self, slot: Option<u64>) -> CtxArgs<'_> {
        CtxArgs {
            account: Some(&self.account),
            session: self.session.as_deref(),
            shard: None,
            seq: slot,
        }
    }

    /// Closes slot index `i`'s interact span (if open) with `outcome`.
    fn close_span(&mut self, tracer: &Tracer, i: usize, outcome: Outcome) {
        if std::mem::take(&mut self.slots[i].spanned) {
            let slot = self.base0 + i as u64;
            tracer.record_with(
                self.ctx(Some(slot)),
                EventKind::SpanClose {
                    span: SpanKind::Interact(slot),
                    outcome,
                },
            );
        }
    }

    /// Closes every still-open interact span with `outcome`.
    fn close_spans(&mut self, tracer: &Tracer, outcome: Outcome) {
        for i in 0..self.slots.len() {
            self.close_span(tracer, i, outcome);
        }
    }
}

/// Shared engine state: the server, the channel, the clock, the queue,
/// and the run-wide accounting.
struct Core<'a> {
    server: &'a mut WebServer,
    channel: &'a mut Channel,
    policy: &'a RetryPolicy,
    tracer: Tracer,
    mode: Mode,
    domain: String,
    actions: Vec<String>,
    window: u64,
    queue: EventQueue<Ev>,
    now: SimTime,
    metrics: ProtocolMetrics,
    profile: Option<CrashProfile>,
    recover_pending: bool,
    crashes: u64,
    records_skipped: u64,
    quarantined_shards: u64,
    corrupt_segments: u64,
    shed_registrations: u64,
    /// Legitimate view hashes per page, built once for every
    /// retirement's audit.
    views: ViewCache,
}

impl Core<'_> {
    /// Schedules the first `Send` for every slot the window now covers.
    fn fill_window(&mut self, dev: u64, run: &mut SessionRun, base: u64) {
        while run.scheduled < run.slots.len()
            && run.base0 + (run.scheduled as u64) < base.saturating_add(self.window)
        {
            let slot = run.base0 + run.scheduled as u64;
            self.queue.schedule(
                self.now,
                Ev::Send {
                    dev,
                    slot,
                    attempt: 0,
                    epoch: run.epoch,
                },
            );
            run.schedule_next();
        }
        // Telemetry probe (no-op unless sampling is installed): slots
        // currently in flight — scheduled but not yet settled.
        self.server
            .telemetry()
            .set_gauge_by_name("window_occupancy", run.open as u64);
    }

    /// Transmits (or retransmits) `slot`'s request and arms its timer.
    #[allow(clippy::too_many_arguments)]
    fn on_send(
        &mut self,
        dev: u64,
        device: &mut MobileDevice,
        run: &mut SessionRun,
        slot: u64,
        attempt: u32,
        epoch: u32,
        rng: &mut SimRng,
    ) {
        if epoch != run.epoch || run.finished() {
            return;
        }
        let i = run.idx(slot);
        if run.slots[i].done || run.slots[i].acked || run.slots[i].attempt != attempt {
            return;
        }
        if !run.slots[i].observed {
            // The touch is biometric evidence: fed exactly once, however
            // many times the request it produced is retransmitted.
            self.tracer.record(EventKind::SpanOpen {
                span: SpanKind::Interact(slot),
            });
            run.slots[i].spanned = true;
            device.observe_touch(&run.touches[i], rng);
            run.slots[i].observed = true;
            run.attempted += 1;
        }
        self.metrics.sends += 1;
        if attempt > 0 {
            self.metrics.retries += 1;
        }
        self.tracer.record(EventKind::Send { attempt });
        if attempt > 0 || run.slots[i].round > 0 {
            self.tracer
                .record(EventKind::SelectiveRetransmit { seq: slot, attempt });
        }
        if run.requests[i].is_none() {
            let action = self.actions[i % self.actions.len()].clone();
            match device.windowed_request(&self.domain, &action, slot) {
                Ok(request) => run.requests[i] = Some(request),
                Err(err) => {
                    run.settle(i);
                    run.close_span(&self.tracer, i, Outcome::DeviceRefused);
                    run.failure = Some(err.into());
                    return;
                }
            }
        }
        let request = run.requests[i].clone().expect("request pinned above");
        let sent_at = self.now;
        for (copy, arrival) in self.channel.transmit(request).into_iter().enumerate() {
            self.queue.schedule(
                self.now + arrival.delay,
                Ev::ServerRx {
                    dev,
                    req: Box::new(arrival.msg),
                    slot,
                    attempt,
                    sent_at,
                    dup: copy > 0,
                    epoch: run.epoch,
                },
            );
        }
        self.queue.schedule(
            self.now + self.policy.timeout,
            Ev::Timer {
                dev,
                slot,
                attempt,
                epoch: run.epoch,
            },
        );
    }

    /// A request copy reaches the server: serve it, classify duplicates,
    /// and put the reply (if any) on the wire.
    #[allow(clippy::too_many_arguments)]
    fn on_server_rx(
        &mut self,
        dev: u64,
        run: &mut SessionRun,
        req: &InteractionRequest,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        dup: bool,
        epoch: u32,
    ) {
        if epoch != run.epoch {
            // A copy from the terminated session still in flight: the
            // re-login already replaced that session, so the request is
            // dead on arrival (as if the wire had eaten it).
            return;
        }
        let result = self.server.handle_interaction(req);
        if dup {
            // Adversary-injected duplicate: the server's verdict on it is
            // the replay-defense scoreboard, exactly as in the lock-step
            // exchange. Its reply (if any) is not transmitted.
            match result {
                Ok((_, Freshness::Fresh)) => {
                    self.metrics.replays_accepted += 1;
                    self.tracer.record(EventKind::Duplicate {
                        verdict: DuplicateVerdict::AcceptedFresh,
                    });
                }
                Ok((_, Freshness::Resent | Freshness::Resync)) => {
                    self.metrics.duplicates_resent += 1;
                    self.tracer.record(EventKind::Duplicate {
                        verdict: DuplicateVerdict::Resent,
                    });
                }
                // A dead server renders no verdict.
                Err(Reject::ServerCrashed) => {}
                Err(_) => {
                    self.metrics.replays_rejected += 1;
                    self.tracer.record(EventKind::Duplicate {
                        verdict: DuplicateVerdict::Rejected,
                    });
                }
            }
            return;
        }
        match result {
            Ok((reply, freshness)) => {
                if freshness != Freshness::Fresh {
                    self.metrics.resyncs += 1;
                    self.tracer.record(EventKind::Resync);
                }
                let mut arrivals = self.channel.transmit(reply).into_iter();
                if let Some(first) = arrivals.next() {
                    self.queue.schedule(
                        self.now + first.delay,
                        Ev::DeviceRx {
                            dev,
                            reply: Box::new(first.msg),
                            slot,
                            attempt,
                            sent_at,
                            epoch: run.epoch,
                        },
                    );
                    let stale = arrivals.count() as u64;
                    if stale > 0 {
                        self.metrics.stale_content_ignored += stale;
                        self.tracer
                            .record(EventKind::StaleContent { copies: stale });
                    }
                }
                // Every reply copy destroyed: the slot's timer drives the
                // retransmit, answered from the server's reply window.
            }
            Err(Reject::ServerCrashed) => {
                // No reply will ever come; the attempt burns via its
                // timer. One operator restart is scheduled per outage.
                if !self.recover_pending {
                    self.recover_pending = true;
                    self.queue.schedule(self.now + RECOVERY_DELAY, Ev::Recover);
                }
            }
            Err(reject) if transit_retryable(reject) => {
                self.metrics.corrupt_rejected += 1;
                self.tracer.record(EventKind::CorruptReject {
                    attempt,
                    reason: reject,
                    backoff_ms: self.policy.backoff(attempt).as_millis(),
                });
                let delay = self.channel.latency + self.policy.backoff(attempt);
                self.burn(dev, run, slot, attempt, delay);
            }
            Err(reject) => {
                if reject == Reject::RiskTerminated
                    && self.mode == Mode::Fleet
                    && run.terminations < u64::from(MAX_ROUNDS)
                {
                    // The continuous-auth layer pulled the plug on this
                    // session — the honest-user false-rejection tail, which
                    // a fleet-sized run is guaranteed to sample. The owner
                    // answers it the way the paper prescribes: explicit
                    // re-authentication. Strand the dead session's traffic
                    // and schedule a fresh login; unserved slots ride again
                    // under the new session.
                    run.terminations += 1;
                    run.epoch += 1;
                    run.close_spans(&self.tracer, Outcome::Rejected(reject));
                    self.queue.schedule(self.now + REAUTH_DELAY, Ev::Up { dev });
                    return;
                }
                let i = run.idx(slot);
                run.close_span(&self.tracer, i, Outcome::Rejected(reject));
                run.rejects.push(reject);
                // The session's sequence cannot advance past a slot the
                // server refused, so every slot is now settled: the ones
                // after it can never be applied.
                for i in 0..run.slots.len() {
                    run.settle(i);
                }
                if reject == Reject::RiskTerminated {
                    run.terminated = true;
                }
            }
        }
    }

    /// A reply copy reaches the device: reconcile it into the window.
    #[allow(clippy::too_many_arguments)]
    fn on_device_rx(
        &mut self,
        dev: u64,
        device: &mut MobileDevice,
        run: &mut SessionRun,
        reply: &ContentPage,
        slot: u64,
        attempt: u32,
        sent_at: SimTime,
        epoch: u32,
    ) {
        if epoch != run.epoch || run.finished() {
            return;
        }
        match device.accept_windowed_content(&self.domain, reply) {
            Err(_) => {
                // Damaged in transit; the undamaged original is worth
                // resending after the backoff.
                self.metrics.corrupt_rejected += 1;
                self.tracer.record(EventKind::ReplyRejected { attempt });
                let delay = self.policy.backoff(attempt);
                self.burn(dev, run, slot, attempt, delay);
            }
            Ok(WindowAccept::Stale) => {
                self.metrics.stale_content_ignored += 1;
                self.tracer.record(EventKind::StaleContent { copies: 1 });
            }
            Ok(WindowAccept::Buffered) => {
                // Out-of-order but in-window: the slot is served; only the
                // base slot's reply is still owed.
                self.ack(run, slot, sent_at);
            }
            Ok(WindowAccept::Applied { .. }) => {
                self.ack(run, slot, sent_at);
                let base = device.session_seq(&self.domain).unwrap_or(run.base0);
                // Every slot below the new base is applied (and slot
                // `base0` at base 0, since `base − 1` saturates there).
                let applied = base.max(1).saturating_sub(run.base0);
                run.settle_below(usize::try_from(applied).unwrap_or(usize::MAX));
                // The cumulative ack moved the base: new slots have credit.
                self.fill_window(dev, run, base);
            }
        }
    }

    /// Counts a slot as served exactly once and records its RTT.
    fn ack(&mut self, run: &mut SessionRun, slot: u64, sent_at: SimTime) {
        let i = run.idx(slot);
        if run.slots[i].acked || run.slots[i].done {
            return;
        }
        run.slots[i].acked = true;
        run.served += 1;
        let rtt = self.now.saturating_duration_since(sent_at);
        self.metrics.record_latency(Phase::Interaction, rtt);
        self.tracer.record(EventKind::Served {
            phase: Phase::Interaction,
            rtt_nanos: rtt.as_nanos(),
        });
        run.close_span(&self.tracer, i, Outcome::Success);
    }

    /// Slot `slot`'s timer fired with no acceptable reply: a timeout.
    fn on_timer(&mut self, dev: u64, run: &mut SessionRun, slot: u64, attempt: u32, epoch: u32) {
        if epoch != run.epoch || run.finished() {
            return;
        }
        let i = run.idx(slot);
        if run.slots[i].done || run.slots[i].acked || run.slots[i].attempt != attempt {
            return;
        }
        self.metrics.timeouts += 1;
        self.tracer.record(EventKind::Timeout {
            attempt,
            backoff_ms: self.policy.backoff(attempt).as_millis(),
        });
        let delay = self.policy.backoff(attempt);
        self.burn(dev, run, slot, attempt, delay);
    }

    /// Burns `attempt` on `slot` and schedules the next transmission after
    /// `delay` — or gives up and re-arms the slot, bounded by
    /// [`MAX_ROUNDS`].
    fn burn(
        &mut self,
        dev: u64,
        run: &mut SessionRun,
        slot: u64,
        attempt: u32,
        delay: SimDuration,
    ) {
        let i = run.idx(slot);
        let state = &mut run.slots[i];
        if state.done || state.acked || state.attempt != attempt {
            return;
        }
        let next = attempt + 1;
        if next >= self.policy.max_attempts {
            self.metrics.giveups += 1;
            self.tracer.record(EventKind::GiveUp);
            state.round += 1;
            if state.round >= MAX_ROUNDS {
                run.settle(i);
                run.close_span(&self.tracer, i, Outcome::GaveUp);
                run.failure = Some(FlowError::NetworkDropped);
            } else {
                state.attempt = 0;
                self.queue.schedule(
                    self.now + delay,
                    Ev::Send {
                        dev,
                        slot,
                        attempt: 0,
                        epoch: run.epoch,
                    },
                );
            }
        } else {
            state.attempt = next;
            self.queue.schedule(
                self.now + delay,
                Ev::Send {
                    dev,
                    slot,
                    attempt: next,
                    epoch: run.epoch,
                },
            );
        }
    }

    /// The operator restart: recover the server from its journals and
    /// re-arm the crash schedule.
    fn on_recover(&mut self, rng: &mut SimRng) {
        self.recover_pending = false;
        if self.server.is_crashed() {
            self.crashes += 1;
            let rec = self.server.recover_in_place(rng);
            self.records_skipped += rec.records_skipped() as u64;
            self.quarantined_shards += rec.quarantined_shards() as u64;
            self.corrupt_segments += rec.corrupt_segments() as u64;
            if let Some(profile) = self.profile {
                self.server
                    .arm_crash_schedule(CrashSchedule::seeded(profile, rng.next_u64()));
            }
        }
    }

    /// The `Up` stage: register the account if it is unbound and log in
    /// (fleet mode), retrying through losses, crashes (recovering the
    /// server first), biometric false rejections, and risk-policy
    /// bounces, bounded by [`MAX_ROUNDS`] each; then arm the device's
    /// window and re-base the run on the session. A registration shed
    /// under storage pressure returns [`Reject::StorageDegraded`] at
    /// once: the caller retries it later on the timeline.
    fn bring_up(
        &mut self,
        device: &mut MobileDevice,
        run: &mut SessionRun,
        rng: &mut SimRng,
    ) -> Result<(), FlowError> {
        // Serial protocol latency inside a blocking stage does not advance
        // the clock; the event timeline is the fleet's notion of time.
        let mut scratch = SimDuration::ZERO;
        let mut rounds = 0;
        while !self.server.has_account(&run.account) {
            match register_collect(
                device,
                run.owner,
                self.server,
                self.channel,
                &run.account,
                self.policy,
                rng,
                &mut self.metrics,
                &mut scratch,
            ) {
                Ok(()) => break,
                Err(err) => self.retry_stage(err, &mut rounds, rng)?,
            }
        }
        if self.mode == Mode::Fleet {
            let mut rounds = 0;
            while let Err(err) = login_collect(
                device,
                run.owner,
                self.server,
                self.channel,
                self.policy,
                rng,
                &mut self.metrics,
                &mut scratch,
            ) {
                self.retry_stage(err, &mut rounds, rng)?;
            }
        }
        device.enable_window(&self.domain, self.window)?;
        let base0 = device
            .session_seq(&self.domain)
            .ok_or(FlowError::Device(DeviceError::NoSession))?;
        run.rebase(base0, device.session_id(&self.domain).map(str::to_owned));
        Ok(())
    }

    /// Decides whether a blocking stage runs its flow again after `err`:
    /// transient failures do (after recovering a crashed server), up to
    /// [`MAX_ROUNDS`] times; anything else is returned.
    fn retry_stage(
        &mut self,
        err: FlowError,
        rounds: &mut u32,
        rng: &mut SimRng,
    ) -> Result<(), FlowError> {
        if !transient_flow(&err) {
            return Err(err);
        }
        if self.server.is_crashed() {
            self.on_recover(rng);
        }
        *rounds += 1;
        if *rounds > MAX_ROUNDS {
            return Err(err);
        }
        Ok(())
    }

    /// Handles an `Up` event for an existing lifecycle: bring it up and
    /// open its window, or schedule a retry of a shed registration.
    fn on_up(
        &mut self,
        dev: u64,
        device: &mut MobileDevice,
        run: &mut SessionRun,
        rng: &mut SimRng,
    ) {
        match self.bring_up(device, run, rng) {
            Ok(()) => self.fill_window(dev, run, run.base0),
            Err(FlowError::Server(Reject::StorageDegraded)) if run.sheds < MAX_ROUNDS => {
                // Load shedding, not failure: the server is protecting its
                // log partition, and compaction will lift degraded mode.
                run.sheds += 1;
                self.shed_registrations += 1;
                self.queue
                    .schedule(self.now + SHED_RETRY_DELAY, Ev::Up { dev });
            }
            Err(err) => run.failure = Some(err),
        }
    }

    /// Retires a finished lifecycle: settles its open spans, audits its
    /// window of the server's log, closes its session (fleet mode), and
    /// folds it into `report`.
    fn retire(
        &mut self,
        device: &mut MobileDevice,
        mut run: SessionRun,
        report: &mut FleetReport,
        rng: &mut SimRng,
    ) -> SessionRun {
        run.close_spans(&self.tracer, Outcome::GaveUp);
        report.attempted += run.attempted;
        report.served += run.served;
        report.terminated += run.terminations;
        report.audit_mismatches +=
            audit_window(self.server, &run.account, run.audit_start, &mut self.views)
                .findings
                .len() as u64;
        if run.completed() {
            report.completed += 1;
        } else {
            // A conclusive failure, or settled with per-slot rejects (or a
            // re-authentication budget exhausted): the lifecycle is over
            // but its work is not done.
            report.failed += 1;
            let why = run
                .failure
                .or_else(|| run.rejects.first().map(|&r| FlowError::Server(r)));
            report.failures.push((
                run.account.clone(),
                why.unwrap_or(FlowError::NetworkDropped),
            ));
        }
        let session_id = device.session_id(&self.domain).map(str::to_owned);
        if let (Mode::Fleet, Some(session_id)) = (self.mode, session_id) {
            self.tracer.open(SpanKind::Close, run.ctx(None));
            let mut outcome = Outcome::GaveUp;
            for _ in 0..MAX_ROUNDS {
                match self.server.close_session(&run.account, &session_id) {
                    Ok(_) => {
                        device.end_session(&self.domain);
                        report.closed += 1;
                        outcome = Outcome::Success;
                        break;
                    }
                    Err(Reject::ServerCrashed) => self.on_recover(rng),
                    Err(reject) => {
                        outcome = Outcome::Rejected(reject);
                        break;
                    }
                }
            }
            self.tracer.close(SpanKind::Close, outcome);
        }
        self.tracer.record_with(
            run.ctx(None),
            EventKind::SpanClose {
                span: SpanKind::Lifecycle,
                outcome: run.failure.as_ref().map_or(Outcome::Success, Outcome::from),
            },
        );
        run
    }
}

/// Outcome of one pipelined windowed session.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WindowedReport {
    /// Interactions the device attempted.
    pub attempted: u64,
    /// Interactions the server served (each exactly once).
    pub served: u64,
    /// Conclusive server rejections, by reason.
    pub rejects: Vec<Reject>,
    /// Whether the server terminated the session on risk.
    pub terminated: bool,
    /// Whether every interaction was served and applied.
    pub completed: bool,
    /// Simulated wall-clock time from first send to last settled event —
    /// the goodput denominator. Pipelining shrinks this, not the per-slot
    /// RTTs.
    pub elapsed: SimDuration,
    /// Server crashes recovered during the run.
    pub crashes: u64,
    /// Journal records lost across those recoveries.
    pub records_skipped: u64,
    /// Audit-log entries from this session whose frame hash matched no
    /// legitimate view of the served page.
    pub audit_mismatches: u64,
    /// Network/retry accounting (every bump paired with a trace event, so
    /// [`derive_metrics`] reproduces it).
    pub metrics: ProtocolMetrics,
}

impl WindowedReport {
    /// Served interactions per simulated second.
    pub fn goodput(&self) -> f64 {
        let secs = self.elapsed.as_nanos() as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.served as f64 / secs
        }
    }
}

/// Runs `touches.len()` post-login interactions through the pipelined
/// event engine with up to `window` slots in flight: the one-device case
/// of the lifecycle loop, on a session the caller already opened and
/// keeps open.
///
/// The server must have advertised the same window when the session was
/// opened (set [`WebServer::set_interaction_window`] before login, or use
/// [`crate::World::login_windowed`]). With `window == 1` this is
/// stop-and-wait on the event timeline — the ablation baseline. Pass a
/// `profile` to compose seeded server crashes with the channel's faults;
/// recovery is a scheduled event, and the derived per-slot nonces make the
/// restart transparent (no resume round is needed in windowed mode).
///
/// # Errors
///
/// Fails on setup problems (no session), device refusals, or a slot stuck
/// past the re-arm bound; per-interaction rejections are in the report.
#[allow(clippy::too_many_arguments)]
pub fn run_windowed_session(
    device: &mut MobileDevice,
    server: &mut WebServer,
    channel: &mut Channel,
    domain: &str,
    actions: &[&str],
    touches: &[TouchSample],
    policy: &RetryPolicy,
    window: u64,
    profile: Option<CrashProfile>,
    rng: &mut SimRng,
) -> Result<WindowedReport, FlowError> {
    device.enable_window(domain, window)?;
    device
        .session_seq(domain)
        .ok_or(FlowError::Device(DeviceError::NoSession))?;
    let account = device
        .account_for(domain)
        .ok_or(FlowError::Device(DeviceError::UnknownDomain))?
        .to_owned();
    let cfg = FleetConfig {
        lifecycles: 1,
        touches: touches.len(),
        window,
        max_live: 1,
        profile,
    };
    let mut device = Some(device);
    let mut spawn = |_: usize, _: &mut SimRng| {
        let device = device.take().expect("one session, spawned once");
        (device, 0, account.clone(), touches.to_vec())
    };
    let mut last = None;
    let fleet = drive(
        Mode::Session,
        server,
        channel,
        policy,
        domain,
        actions,
        &cfg,
        &mut spawn,
        &mut |_, _, _, _| {},
        &mut last,
        rng,
    );
    let run = last.expect("the session retires before the loop stops");
    if let Some(failure) = run.failure {
        return Err(failure);
    }
    Ok(WindowedReport {
        attempted: run.attempted,
        served: run.served,
        completed: run.completed(),
        rejects: run.rejects,
        terminated: run.terminated,
        elapsed: fleet.elapsed,
        crashes: fleet.crashes,
        records_skipped: fleet.records_skipped,
        audit_mismatches: fleet.audit_mismatches,
        metrics: fleet.metrics,
    })
}

/// Configuration for a windowed fleet run.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Total device lifecycles to drive.
    pub lifecycles: usize,
    /// Interactions per lifecycle.
    pub touches: usize,
    /// Pipeline window per session.
    pub window: u64,
    /// Maximum lifecycles live at once (spawn throttle).
    pub max_live: usize,
    /// Seeded crash-fault profile, if any.
    pub profile: Option<CrashProfile>,
}

/// Aggregate outcome of a windowed fleet run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FleetReport {
    /// Lifecycles driven.
    pub lifecycles: u64,
    /// Lifecycles whose every interaction was served and applied.
    pub completed: u64,
    /// Lifecycles whose session was closed (server state evicted).
    pub closed: u64,
    /// Lifecycles that died on a conclusive failure, a stuck stage, or
    /// per-slot rejects.
    pub failed: u64,
    /// Why each failed lifecycle failed, by account, in retirement order
    /// (a lifecycle that only collected per-slot rejects shows its first).
    pub failures: Vec<(String, FlowError)>,
    /// Risk-policy session terminations absorbed mid-run: each forced the
    /// owner through a fresh login, and the lifecycle continued under the
    /// new session.
    pub terminated: u64,
    /// Interactions attempted across the fleet.
    pub attempted: u64,
    /// Interactions served, each exactly once.
    pub served: u64,
    /// Server crashes recovered.
    pub crashes: u64,
    /// Journal records lost across recoveries.
    pub records_skipped: u64,
    /// Shards that came back read-only because a sealed segment failed
    /// its certificate check, summed over recoveries.
    pub quarantined_shards: u64,
    /// Corrupt sealed segments found, summed over recoveries.
    pub corrupt_segments: u64,
    /// Registrations the server shed under storage pressure; each was
    /// retried later on the timeline.
    pub shed_registrations: u64,
    /// Audit-log entries, over every lifecycle's window, whose frame hash
    /// matched no legitimate view of the served page.
    pub audit_mismatches: u64,
    /// Simulated time from first spawn to fleet drain.
    pub elapsed: SimDuration,
    /// Fleet-wide network/retry accounting.
    pub metrics: ProtocolMetrics,
    /// [`derive_metrics`] folded chunk-wise over the drained trace while
    /// the run progressed (`Some` only when tracing is enabled); must
    /// equal `metrics`.
    pub derived: Option<ProtocolMetrics>,
}

/// Drives `cfg.lifecycles` full device lifecycles (provision → register →
/// login → windowed interactions → close) through one deterministic event
/// queue against a single server.
///
/// At most `cfg.max_live` devices exist at a time: each completed
/// lifecycle is closed, aggregated, and dropped before the next spawns,
/// so a 100k-lifecycle run holds hundreds — not hundreds of thousands —
/// of device states. Register/login/close are coarse blocking stages at
/// their scheduled instant (their retries still run the full lock-step
/// policy and share the fleet's metrics and trace); interactions are
/// message-granular events. A registration shed under storage pressure
/// is retried later on the timeline and counted. When tracing is enabled
/// the trace buffer is drained after every event and folded through
/// [`derive_metrics`], keeping memory bounded while still proving
/// live-counter parity at fleet scale.
///
/// `spawn` builds each lifecycle's device: it returns the provisioned
/// device, its owner, the account name, and the touch workload.
#[allow(clippy::too_many_arguments)]
pub fn run_windowed_fleet<F>(
    server: &mut WebServer,
    channel: &mut Channel,
    policy: &RetryPolicy,
    domain: &str,
    actions: &[&str],
    cfg: &FleetConfig,
    spawn: &mut F,
    rng: &mut SimRng,
) -> FleetReport
where
    F: FnMut(usize, &mut SimRng) -> (MobileDevice, u64, String, Vec<TouchSample>),
{
    run_observed_fleet(
        server,
        channel,
        policy,
        domain,
        actions,
        cfg,
        spawn,
        &mut |_, _, _, _| {},
        rng,
    )
}

/// [`run_windowed_fleet`], handing every drained trace chunk to
/// `observe(at, events, server, live)` before the event at `at` is
/// dispatched: `events` were recorded at the previous event's instant
/// (time zero for the first), and `live` counts the lifecycles alive.
/// The chunk has already been folded into [`FleetReport::derived`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_observed_fleet<F, O>(
    server: &mut WebServer,
    channel: &mut Channel,
    policy: &RetryPolicy,
    domain: &str,
    actions: &[&str],
    cfg: &FleetConfig,
    spawn: &mut F,
    observe: &mut O,
    rng: &mut SimRng,
) -> FleetReport
where
    F: FnMut(usize, &mut SimRng) -> (MobileDevice, u64, String, Vec<TouchSample>),
    O: FnMut(SimTime, Vec<TraceEvent>, &WebServer, usize),
{
    server.set_interaction_window(cfg.window);
    drive(
        Mode::Fleet,
        server,
        channel,
        policy,
        domain,
        actions,
        cfg,
        spawn,
        observe,
        &mut None,
        rng,
    )
}

/// The lifecycle loop behind every driver. `last` receives the most
/// recently retired run (the single-session case reads its outcome).
#[allow(clippy::too_many_arguments)]
fn drive<D, F, O>(
    mode: Mode,
    server: &mut WebServer,
    channel: &mut Channel,
    policy: &RetryPolicy,
    domain: &str,
    actions: &[&str],
    cfg: &FleetConfig,
    spawn: &mut F,
    observe: &mut O,
    last: &mut Option<SessionRun>,
    rng: &mut SimRng,
) -> FleetReport
where
    D: BorrowMut<MobileDevice>,
    F: FnMut(usize, &mut SimRng) -> (D, u64, String, Vec<TouchSample>),
    O: FnMut(SimTime, Vec<TraceEvent>, &WebServer, usize),
{
    assert!(!actions.is_empty(), "need at least one action");
    assert!(cfg.window >= 1, "window must be at least 1");
    assert!(cfg.max_live >= 1, "need at least one live lifecycle");
    if let Some(p) = cfg.profile {
        server.arm_crash_schedule(CrashSchedule::seeded(p, rng.next_u64()));
    }
    let tracer = server.tracer().clone();
    let drain = mode == Mode::Fleet && tracer.is_enabled();
    let mut derived = drain.then(ProtocolMetrics::default);
    // Drop anything already buffered so the fold starts from zero.
    if drain {
        let _ = tracer.drain();
    }
    let mut core = Core {
        server,
        channel,
        policy,
        tracer,
        mode,
        domain: domain.to_owned(),
        actions: actions.iter().map(|a| (*a).to_owned()).collect(),
        window: cfg.window,
        queue: EventQueue::new(),
        now: SimTime::ZERO,
        metrics: ProtocolMetrics::default(),
        profile: cfg.profile,
        recover_pending: false,
        crashes: 0,
        records_skipped: 0,
        quarantined_shards: 0,
        corrupt_segments: 0,
        shed_registrations: 0,
        views: ViewCache::default(),
    };
    let mut report = FleetReport {
        lifecycles: cfg.lifecycles as u64,
        ..FleetReport::default()
    };
    let mut live: HashMap<u64, (D, SessionRun)> = HashMap::new();
    let initial = cfg.max_live.min(cfg.lifecycles);
    for dev in 0..initial {
        core.queue.schedule(
            SimTime::ZERO + SPAWN_STAGGER * dev as u64,
            Ev::Up { dev: dev as u64 },
        );
    }
    let mut next_spawn = initial;

    while let Some((at, ev)) = core.queue.pop() {
        if let Some(folded) = derived.as_mut() {
            let events = core.tracer.drain();
            folded.absorb(&derive_metrics(&events));
            observe(at, events, core.server, live.len());
        }
        core.now = at;
        let Some((dev, slot)) = ev.target() else {
            core.on_recover(rng);
            if mode == Mode::Session && live.is_empty() {
                break;
            }
            continue;
        };
        let (device, run) = match live.entry(dev) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) if matches!(ev, Ev::Up { .. }) => {
                let (mut device, owner, account, touches) = spawn(dev as usize, rng);
                device.borrow_mut().set_tracer(core.tracer.clone());
                let audit_start = core.server.audit_log_for(&account).len();
                let run = SessionRun::new(account, owner, touches, audit_start);
                core.tracer.record_with(
                    run.ctx(None),
                    EventKind::SpanOpen {
                        span: SpanKind::Lifecycle,
                    },
                );
                entry.insert((device, run))
            }
            // A retired lifecycle's leftover timer or in-flight copy.
            Entry::Vacant(_) => continue,
        };
        let device = device.borrow_mut();
        core.tracer.enter(run.ctx(slot));
        match ev {
            Ev::Up { .. } => core.on_up(dev, device, run, rng),
            Ev::Send {
                slot,
                attempt,
                epoch,
                ..
            } => core.on_send(dev, device, run, slot, attempt, epoch, rng),
            Ev::ServerRx {
                req,
                slot,
                attempt,
                sent_at,
                dup,
                epoch,
                ..
            } => core.on_server_rx(dev, run, &req, slot, attempt, sent_at, dup, epoch),
            Ev::DeviceRx {
                reply,
                slot,
                attempt,
                sent_at,
                epoch,
                ..
            } => core.on_device_rx(dev, device, run, &reply, slot, attempt, sent_at, epoch),
            Ev::Timer {
                slot,
                attempt,
                epoch,
                ..
            } => core.on_timer(dev, run, slot, attempt, epoch),
            Ev::Recover => unreachable!("recoveries have no lifecycle"),
        }
        core.tracer.leave();
        if !run.finished() {
            continue;
        }
        let (mut device, run) = live.remove(&dev).expect("finished lifecycle is live");
        *last = Some(core.retire(device.borrow_mut(), run, &mut report, rng));
        if next_spawn < cfg.lifecycles {
            core.queue.schedule(
                core.now,
                Ev::Up {
                    dev: next_spawn as u64,
                },
            );
            next_spawn += 1;
        } else if mode == Mode::Session && !core.recover_pending {
            break;
        }
    }

    debug_assert!(
        live.is_empty(),
        "every lifecycle retires before the loop stops"
    );
    if let Some(folded) = derived.as_mut() {
        let events = core.tracer.drain();
        folded.absorb(&derive_metrics(&events));
        observe(core.now, events, core.server, live.len());
    }
    report.elapsed = core.now.saturating_duration_since(SimTime::ZERO);
    report.crashes = core.crashes;
    report.records_skipped = core.records_skipped;
    report.quarantined_shards = core.quarantined_shards;
    report.corrupt_segments = core.corrupt_segments;
    report.shed_registrations = core.shed_registrations;
    report.metrics = core.metrics;
    report.derived = derived;
    report
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Adversary;
    use crate::World;

    const DOMAIN: &str = "www.xyz.com";

    fn windowed_world(
        adversary: Adversary,
        window: u64,
        seed: u64,
    ) -> (World, usize, usize, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let mut world = World::with_adversary(adversary, &mut rng);
        let sidx = world.add_server(DOMAIN, &mut rng);
        let didx = world.add_device("phone-1", 7, &mut rng);
        world
            .register(didx, DOMAIN, "alice", &mut rng)
            .expect("register");
        world
            .login_windowed(didx, DOMAIN, window, &mut rng)
            .expect("login");
        (world, sidx, didx, rng)
    }

    #[test]
    fn honest_windowed_session_serves_everything_exactly_once() {
        let (mut world, sidx, didx, mut rng) = windowed_world(Adversary::None, 4, 11);
        let report = world
            .run_windowed_session(didx, DOMAIN, 12, 4, &mut rng)
            .expect("windowed session");
        assert!(report.completed, "rejects: {:?}", report.rejects);
        assert_eq!(report.attempted, 12);
        assert_eq!(report.served, 12);
        assert_eq!(report.metrics.replays_accepted, 0);
        assert_eq!(report.metrics.retries, 0);
        assert_eq!(report.audit_mismatches, 0);
        // The device's window base advanced past every slot: the login
        // reply carries seq 0, so 12 interactions land the base on 12.
        assert_eq!(world.device(didx).session_seq(DOMAIN), Some(12));
        let digest = world.server(sidx).state_digest();
        let report2 = world.server_mut(sidx).recover_in_place(&mut rng);
        assert_eq!(report2.records_skipped(), 0);
        assert_eq!(
            world.server(sidx).state_digest(),
            digest,
            "windowed records replay to the same durable state"
        );
    }

    #[test]
    fn pipelining_beats_stop_and_wait_on_elapsed_time() {
        let (mut world, _, didx, mut rng) = windowed_world(Adversary::None, 8, 13);
        let wide = world
            .run_windowed_session(didx, DOMAIN, 16, 8, &mut rng)
            .expect("windowed");
        let (mut world, _, didx, mut rng) = windowed_world(Adversary::None, 1, 13);
        let narrow = world
            .run_windowed_session(didx, DOMAIN, 16, 1, &mut rng)
            .expect("stop-and-wait");
        assert!(wide.completed && narrow.completed);
        assert!(
            wide.elapsed.as_nanos() * 4 <= narrow.elapsed.as_nanos(),
            "window 8 should cut elapsed time at least 4x on an honest \
             channel ({:?} vs {:?})",
            wide.elapsed,
            narrow.elapsed
        );
    }

    #[test]
    fn lossy_windowed_session_retransmits_selectively_and_stays_exactly_once() {
        let (mut world, _, didx, mut rng) =
            windowed_world(Adversary::RandomLoss { loss: 0.15 }, 4, 17);
        let report = world
            .run_windowed_session(didx, DOMAIN, 24, 4, &mut rng)
            .expect("windowed session");
        assert!(report.completed, "rejects: {:?}", report.rejects);
        assert_eq!(report.served, 24);
        assert_eq!(report.metrics.replays_accepted, 0);
        assert!(
            report.metrics.retries > 0,
            "15% loss must force at least one selective retransmit"
        );
    }

    #[test]
    fn replayer_duplicates_are_all_detected_in_window() {
        let (mut world, _, didx, mut rng) = windowed_world(Adversary::Replayer, 4, 19);
        let report = world
            .run_windowed_session(didx, DOMAIN, 10, 4, &mut rng)
            .expect("windowed session");
        assert!(report.completed);
        assert_eq!(report.metrics.replays_accepted, 0);
        assert!(
            report.metrics.duplicates_resent + report.metrics.stale_content_ignored > 0,
            "the replayer's copies must surface as cache hits, not fresh serves"
        );
    }

    #[test]
    fn windowed_session_survives_crashes_without_resume_rounds() {
        use crate::server::journal::CrashProfile;
        let mut rng = SimRng::seed_from(23);
        let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.05 }, &mut rng);
        let _ = world.add_server(DOMAIN, &mut rng);
        let didx = world.add_device("phone-1", 7, &mut rng);
        world
            .register(didx, DOMAIN, "alice", &mut rng)
            .expect("register");
        world
            .login_windowed(didx, DOMAIN, 4, &mut rng)
            .expect("login");
        let mut crashes = 0;
        for round in 0..8u64 {
            let report = world
                .run_windowed_chaos_session(
                    didx,
                    DOMAIN,
                    8,
                    4,
                    CrashProfile::uniform(0.10),
                    &mut rng,
                )
                .expect("windowed session under crashes");
            assert!(report.completed, "round {round}: {:?}", report.rejects);
            assert_eq!(report.served, 8);
            assert_eq!(report.metrics.replays_accepted, 0);
            assert_eq!(report.records_skipped, 0, "clean crashes tear nothing");
            crashes += report.crashes;
        }
        assert!(crashes > 0, "the profile must actually fire");
    }

    #[test]
    fn fleet_smoke_run_is_exactly_once_with_derive_parity() {
        use crate::server::journal::CrashProfile;
        let mut rng = SimRng::seed_from(29);
        let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.05 }, &mut rng);
        world.enable_tracing();
        let _ = world.add_server_with_shards(DOMAIN, 8, &mut rng);
        let cfg = FleetConfig {
            lifecycles: 12,
            touches: 5,
            window: 4,
            max_live: 4,
            profile: Some(CrashProfile::uniform(0.02)),
        };
        let report = world.run_windowed_fleet(DOMAIN, &cfg, &mut rng);
        assert_eq!(report.lifecycles, 12);
        assert_eq!(report.completed, 12, "failed: {}", report.failed);
        assert_eq!(report.closed, 12);
        assert_eq!(report.served, 12 * 5);
        assert_eq!(report.metrics.replays_accepted, 0);
        let derived = report.derived.as_ref().expect("tracing was on");
        assert_eq!(
            derived, &report.metrics,
            "chunk-folded derive_metrics must equal the live counters"
        );
    }

    #[test]
    fn transient_flow_retries_false_rejections_not_forgeries() {
        assert!(transient_flow(&FlowError::NetworkDropped));
        assert!(transient_flow(&FlowError::Device(
            DeviceError::BiometricRejected
        )));
        assert!(transient_flow(&FlowError::Server(Reject::RiskTerminated)));
        assert!(!transient_flow(&FlowError::Server(Reject::BadSignature)));
        assert!(!transient_flow(&FlowError::Server(Reject::Replay)));
        assert!(!transient_flow(&FlowError::Device(DeviceError::NoSession)));
    }

    #[test]
    fn fleet_lifecycles_survive_risk_terminations_by_reauthenticating() {
        use crate::risk_policy::ServerRiskPolicy;
        let mut rng = SimRng::seed_from(31);
        let mut world = World::with_adversary(Adversary::RandomLoss { loss: 0.02 }, &mut rng);
        world.enable_tracing();
        let sidx = world.add_server_with_shards(DOMAIN, 4, &mut rng);
        // Every request under-verifies, and the fifth consecutive step-up
        // terminates. A session can serve at most four interactions (one
        // window) before the risk policy pulls the plug, and each lifecycle
        // owes six — so every lifecycle is forced through at least one
        // mid-run re-authentication to finish.
        world.server_mut(sidx).set_risk_policy(ServerRiskPolicy {
            max_mismatches: u32::MAX,
            min_verified: u32::MAX,
            max_consecutive_stepups: 5,
        });
        let cfg = FleetConfig {
            lifecycles: 8,
            touches: 6,
            window: 4,
            max_live: 4,
            profile: None,
        };
        let report = world.run_windowed_fleet(DOMAIN, &cfg, &mut rng);
        assert!(
            report.terminated >= report.lifecycles,
            "the aggressive policy must terminate sessions mid-run (got {})",
            report.terminated
        );
        assert_eq!(report.completed, 8, "failures: {:?}", report.failures);
        assert_eq!(report.failed, 0, "failures: {:?}", report.failures);
        assert_eq!(
            report.served,
            8 * 6,
            "every touch served exactly once across re-auths"
        );
        assert_eq!(report.metrics.replays_accepted, 0);
        let derived = report.derived.as_ref().expect("tracing was on");
        assert_eq!(
            derived, &report.metrics,
            "re-auth epochs must not break trace/metrics parity"
        );
    }
}
