//! The repository benchmark: one command runs a workload from a seed,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans and no
//! allocation counting. `--trace 1` is a separate run that times the
//! benchmark's own calls into each layer's public functions and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. README.md in this
//! directory maps each per-layer metric to the end-to-end metric and
//! workload it should move.

mod cpus;
mod fleet;
mod kernels;
mod probe;
mod shard;
mod spans;
mod stats;

use std::process::Command;
use std::time::{Duration, Instant};

use spans::Spans;

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["churn", "long_session", "shard_chaos"];

/// End-to-end metrics and their units (`BENCHMARK.json` `end_to_end`).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("lifecycles_per_s", "1/s"),
    ("interactions_per_s", "1/s"),
    ("cpu_ms_per_interaction", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_goodput_per_s", "1/sim-s"),
    ("sends_per_interaction", "count"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics and their units (`BENCHMARK.json` `per_layer`).
/// Every traced run prints all of them; one a workload does not exercise
/// reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("crypto.pow_g_us", "us"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("crypto.hmac_ns", "ns"),
    ("registration.register_ms", "ms"),
    ("auth.login_ms", "ms"),
    ("flock.provision_ms", "ms"),
    ("flock.enroll_ms", "ms"),
    ("flock.process_touch_us", "us"),
    ("engine.interaction_us", "us"),
    ("journal.frame_ns", "ns"),
    ("journal.bytes_per_interaction", "B"),
    ("workload.generate_us_per_touch", "us"),
    ("server.cold_recover_ms", "ms"),
    ("server.records_replayed", "count"),
    ("server.recoveries", "count"),
    ("parallel.shard_ms_p50", "ms"),
    ("parallel.shard_ms_max", "ms"),
    ("parallel.imbalance", "ratio"),
    ("parallel.busy_ratio", "ratio"),
    ("parallel.merge_ms", "ms"),
    ("storage.sync_retries", "count"),
    ("storage.corrupt_segments", "count"),
    ("storage.quarantined_shards", "count"),
    ("trace.export_ms", "ms"),
    ("trace.derive_ms", "ms"),
    ("trace.export_bytes_per_interaction", "B"),
    ("trace.events_per_interaction", "count"),
    ("telemetry.reconcile_ms", "ms"),
    ("telemetry.health_ms", "ms"),
    ("channel.duplicates_resent", "count"),
    ("engine.retries", "count"),
    ("engine.timeouts", "count"),
    ("engine.reauths", "count"),
    ("alloc.allocs_per_interaction", "count"),
    ("alloc.bytes_per_interaction", "B"),
    ("attrib.residual_share", "ratio"),
    ("attrib.tracing_overhead", "ratio"),
    ("attrib.register_login_share", "ratio"),
    ("attrib.interaction_share", "ratio"),
];

/// Fresh processes timed per run for `setup_s`: lazy statics are built
/// once per process, so set-up can only be repeated in new ones.
const SETUP_PROBES: usize = 31;

/// A stretch of a unit's measured section: the share of the unit's work
/// it held, and the host and process CPU seconds it took.
#[derive(Clone, Copy, Debug)]
pub struct Stretch {
    pub share: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Stretch {
    /// The whole measured section as one stretch.
    pub fn whole(wall_s: f64, cpu_s: f64) -> Stretch {
        Stretch {
            share: 1.0,
            wall_s,
            cpu_s,
        }
    }
}

/// One fixed-size execution of a workload, timed with tracing off.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Host seconds of the measured section.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same section.
    pub cpu_s: f64,
    /// The stretches the host-time metrics take their medians over: the
    /// whole section, or, for a fleet that admits lifecycles as others
    /// retire, each stretch of a fixed number of admissions.
    pub stretches: Vec<Stretch>,
    /// Lifecycles driven, and how many completed every interaction.
    pub lifecycles: u64,
    pub completed: u64,
    /// Lifecycles that died on a conclusive failure.
    pub lifecycles_failed: u64,
    /// Interactions the workload asked for (lifecycles × touches), and
    /// how many were served.
    pub demanded: u64,
    pub served: u64,
    /// Simulated seconds the served interactions took (fleet elapsed, or
    /// the modeled makespan).
    pub sim_s: f64,
    /// Messages sent, retries included.
    pub sends: u64,
    /// Durable-state digest: same seed, same digest, on every repeat.
    pub digest: String,
    /// Correctness violations found in this unit.
    pub problems: Vec<String>,
}

impl Unit {
    /// Operations the unit attempted: every demanded interaction plus
    /// every lifecycle.
    pub fn attempted(&self) -> u64 {
        self.demanded + self.lifecycles
    }

    /// Operations that failed: demanded interactions never served plus
    /// lifecycles that died.
    pub fn failed(&self) -> u64 {
        self.demanded.saturating_sub(self.served) + self.lifecycles_failed
    }

    /// The simulated outcome, which must repeat exactly for one seed.
    fn outcome(&self) -> (String, u64, u64, u64, u64, u64) {
        (
            self.digest.clone(),
            self.served,
            self.completed,
            self.sends,
            self.sim_s.to_bits(),
            self.failed(),
        )
    }
}

/// The `k`-th input seed of a run: a run cycles through a fixed number of
/// distinct inputs derived from its `--seed`, so one seed's figures
/// average over several draws of the workload instead of hanging on one.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// Runs `unit(i)` for `i = 0, 1, …` back to back, at least `min` times,
/// then while another unit would end nearer to `seconds` than stopping
/// now does.
pub fn repeat_for<T>(seconds: u64, min: usize, mut unit: impl FnMut(usize) -> T) -> Vec<T> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.len() < min.max(1) || start.elapsed() + last / 2 < budget {
        let started = Instant::now();
        out.push(unit(out.len()));
        last = started.elapsed();
    }
    out
}

/// Records a correctness violation unless `ok`.
pub fn require(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        probe_setup: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe-setup" {
            args.probe_setup = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("whole seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// A workload and the module that runs it.
#[derive(Clone, Copy)]
enum Workload {
    Fleet(&'static fleet::Shape),
    Shard,
}

impl Workload {
    fn named(name: &str) -> Workload {
        match name {
            "churn" => Workload::Fleet(&fleet::CHURN),
            "long_session" => Workload::Fleet(&fleet::LONG_SESSION),
            _ => Workload::Shard,
        }
    }

    /// Distinct inputs a run cycles through: as many units as take about
    /// 20 s on a 2-core host.
    fn cycle(self) -> usize {
        match self {
            Workload::Fleet(shape) => shape.cycle,
            Workload::Shard => shard::CYCLE,
        }
    }

    /// Builds the workload up to its first admitted lifecycle in this
    /// process and returns the seconds that took.
    fn setup(self, seed: u64) -> f64 {
        match self {
            Workload::Fleet(shape) => fleet::setup(shape, seed),
            Workload::Shard => shard::setup(seed),
        }
    }

    /// The fleet workloads run on one thread, which is rotated over every
    /// CPU ([`cpus::rotating`]); the shard workload's two workers occupy
    /// both CPUs of a 2-core host by themselves.
    fn timed(self, seed: u64, seconds: u64) -> Vec<Unit> {
        match self {
            Workload::Fleet(shape) => cpus::rotating(|| fleet::timed(shape, seed, seconds)),
            Workload::Shard => shard::timed(seed, seconds),
        }
    }

    fn traced(self, seed: u64, spans: &mut Spans) -> (Unit, Vec<(&'static str, f64)>) {
        match self {
            Workload::Fleet(shape) => cpus::rotating(|| fleet::traced(shape, seed, spans)),
            Workload::Shard => shard::traced(seed, spans),
        }
    }
}

/// Median set-up time over [`SETUP_PROBES`] fresh child processes, each
/// waited for before the next starts. Probe `k` is pinned to the `k`-th
/// allowed CPU, round-robin, so every CPU is sampled alike.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cpus = cpus::allowed();
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for k in 0..SETUP_PROBES {
        let spawn = || {
            Command::new(&exe)
                .args(["--probe-setup", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .output()
        };
        let out = match cpus.get(k % cpus.len().max(1)) {
            Some(&cpu) => cpus::on_cpu(cpu, spawn),
            None => spawn(),
        }
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("set-up probe failed: {}", text.trim()))?;
        samples.push(value);
    }
    Ok(stats::median(&samples).expect("at least one probe"))
}

/// End-to-end metrics from the timed units. Unit `i` ran input
/// `i % cycle`; a repeat must reproduce its input's first unit exactly.
/// Host-time figures are medians over every stretch of every unit, each
/// stretch credited with its share of its unit's work, so a few seconds of
/// a slower host move them little. Simulated figures and the operation
/// counts sum over one cycle, so they repeat exactly.
fn end_to_end(
    units: &[Unit],
    cycle: usize,
    setup_s: f64,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    for (i, u) in units.iter().enumerate().skip(cycle) {
        require(problems, u.outcome() == units[i % cycle].outcome(), || {
            format!(
                "unit {i} diverged from unit {} on the same input",
                i % cycle
            )
        });
    }
    let host = |f: &dyn Fn(&Unit, &Stretch) -> f64| {
        let values: Vec<f64> = units
            .iter()
            .flat_map(|u| u.stretches.iter().map(move |s| f(u, s)))
            .collect();
        stats::median(&values).expect("at least one stretch")
    };
    let sum = |f: &dyn Fn(&Unit) -> f64| units[..cycle].iter().map(f).sum::<f64>();
    let served = sum(&|u| u.served as f64);
    vec![
        ("setup_s", setup_s),
        (
            "lifecycles_per_s",
            host(&|u, s| u.completed as f64 * s.share / s.wall_s),
        ),
        (
            "interactions_per_s",
            host(&|u, s| u.served as f64 * s.share / s.wall_s),
        ),
        (
            "cpu_ms_per_interaction",
            host(&|u, s| s.cpu_s * 1e3 / (u.served as f64 * s.share)),
        ),
        ("peak_rss_mb", probe::peak_rss_mib()),
        ("sim_goodput_per_s", per(served, sum(&|u| u.sim_s))),
        (
            "sends_per_interaction",
            per(sum(&|u| u.sends as f64), served),
        ),
        (
            "success_ratio",
            1.0 - per(sum(&|u| u.failed() as f64), sum(&|u| u.attempted() as f64)),
        ),
    ]
}

/// Medians, per metric name, over the traced passes.
fn median_by_name(passes: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let mut names: Vec<&'static str> = passes.iter().flatten().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = passes
                .iter()
                .flatten()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect();
            (name, stats::median(&values).expect("named value"))
        })
        .collect()
}

/// Lays `measured` out in `table` order, with 0 for a metric the workload
/// does not exercise; a measured name missing from the table is a bug.
fn complete(
    table: &[(&'static str, &'static str)],
    measured: &[(&'static str, f64)],
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    for (name, value) in measured {
        require(problems, table.iter().any(|(n, _)| n == name), || {
            format!("metric {name} is not declared")
        });
        require(problems, value.is_finite(), || {
            format!("metric {name} is {value}")
        });
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, value, unit)
        })
        .collect()
}

/// A JSON number; a non-finite value, already reported as a correctness
/// failure, prints as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the traced passes' spans, one JSON object per line, under
/// `perfbench/out/` in the working directory.
fn write_spans(args: &Args, lines: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, lines)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> Result<(), String> {
    stats::self_test().map_err(|e| format!("statistics self-test failed: {e}"))?;
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if !stats::valid_name(name) || !stats::valid_unit(unit) {
            return Err(format!("metric {name} [{unit}] breaks the naming rules"));
        }
    }
    println!("{}", probe::host_descriptor());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut problems = Vec::new();
    let workload = Workload::named(&args.workload);
    let cycle = workload.cycle();
    let (units, metrics) = if args.trace {
        let mut units = Vec::new();
        let mut span_lines = String::new();
        let passes = repeat_for(args.seconds, 1, |pass| {
            let mut spans = Spans::new();
            let (unit, layers) = workload.traced(sub_seed(args.seed, pass % cycle), &mut spans);
            span_lines.push_str(&spans.to_jsonl());
            units.push(unit);
            layers
        });
        write_spans(args, &span_lines);
        let layers = median_by_name(&passes);
        for (name, value) in &layers {
            println!("  {name:<38} {value:.4}");
        }
        for u in &units {
            problems.extend(u.problems.iter().cloned());
        }
        (units, complete(&PER_LAYER, &layers, &mut problems))
    } else {
        let setup_s = probe_setup(args)?;
        let units = workload.timed(args.seed, args.seconds);
        for (i, u) in units.iter().enumerate() {
            problems.extend(u.problems.iter().cloned());
            println!(
                "unit {i}: input {} digest {} served {}/{} failed {} wall {:.3}s",
                i % cycle,
                u.digest,
                u.served,
                u.demanded,
                u.failed(),
                u.wall_s
            );
        }
        let rates: Vec<f64> = units
            .iter()
            .flat_map(|u| {
                u.stretches
                    .iter()
                    .map(|s| u.served as f64 * s.share / s.wall_s)
            })
            .collect();
        if let Some(spread) = stats::relative_spread(&rates) {
            println!(
                "spread of interactions/s over {} stretches (IQR / median): {spread:.4}",
                rates.len()
            );
        }
        let e2e = end_to_end(&units, cycle, setup_s, &mut problems);
        for (name, value) in &e2e {
            println!("  {name:<24} {value:.6}");
        }
        (units, complete(&END_TO_END, &e2e, &mut problems))
    };

    problems.sort();
    problems.dedup();
    for p in &problems {
        eprintln!("correctness: {p}");
    }
    // Operations of the inputs this run measured: one cycle when timed,
    // the inputs of the passes when traced.
    let measured = &units[..units.len().min(cycle)];
    println!(
        "{}",
        result_json(
            problems.is_empty(),
            measured.iter().map(Unit::attempted).sum(),
            measured.iter().map(Unit::failed).sum(),
            &metrics
        )
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.probe_setup {
        println!("{}", Workload::named(&args.workload).setup(args.seed));
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER, WORKLOADS};

    /// Every `"<key>": "<value>"` string value in `json`, in order.
    fn string_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\": \"");
        json.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &json[at + needle.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(metrics.clone().map(|(n, _)| *n))
            .collect();
        assert_eq!(string_values(&json, "name"), names);
        let units: Vec<&str> = metrics.map(|(_, u)| *u).collect();
        assert_eq!(string_values(&json, "unit"), units);
    }
}
