//! Order statistics for the benchmark's repeated measurements, and the
//! metric-name rules its output must follow.

/// Median of `values` (mean of the middle pair for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here equals one computed in Python from the same
/// values. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark is judged by.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Percentiles the tail report may name, ascending, in hundredths of a
/// percent so ranks are exact integer arithmetic.
const TAIL_PERCENTILES: [usize; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// The highest percentile in [`TAIL_PERCENTILES`] with at least ten
/// samples beyond it, and its nearest-rank value. A tail read from fewer
/// samples than that is noise, so `None` below twenty samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    let mut best = None;
    for p in TAIL_PERCENTILES {
        // Nearest rank: the smallest sample with at least p% at or below.
        let rank = (p * n).div_ceil(10_000).max(1);
        if n.saturating_sub(rank) >= 10 {
            best = Some((p as f64 / 100.0, v[rank - 1]));
        }
    }
    best
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` may name a workload or metric: starts with a letter or
/// digit, then at most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` may label a metric: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Checks the helpers against hand-computed cases (the reference values
/// for [`quartiles`] are what Python's `statistics.quantiles` returns).
/// Every benchmark run calls this before measuring, so a broken helper
/// can never report a spread.
pub fn self_test() -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_owned()) };
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();

    check(median(&[]).is_none(), "median of nothing")?;
    check(median(&[3.0, 1.0, 2.0]) == Some(2.0), "odd median")?;
    check(median(&[4.0, 1.0, 3.0, 2.0]) == Some(2.5), "even median")?;

    let q = quartiles(&one_to_ten).ok_or("quartiles of 1..=10")?;
    check(
        close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
        "quartiles of 1..=10 must be [2.75, 5.5, 8.25]",
    )?;
    let q = quartiles(&[1.0, 2.0]).ok_or("quartiles of two")?;
    check(
        close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
        "quartiles of [1, 2] must extrapolate to [0.75, 1.5, 2.25]",
    )?;
    let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).ok_or("quartiles of five")?;
    check(
        close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5),
        "quartiles of 1..=5 must be [1.5, 3.0, 4.5]",
    )?;
    check(quartiles(&[1.0]).is_none(), "quartiles need two values")?;
    let spread = relative_spread(&one_to_ten).ok_or("spread of 1..=10")?;
    check(
        close(spread, 1.0),
        "spread of 1..=10 must be (8.25 - 2.75) / 5.5",
    )?;

    check(tail_percentile(&one_to_ten).is_none(), "no tail below 20")?;
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    check(
        tail_percentile(&hundred) == Some((90.0, 90.0)),
        "100 samples resolve p90 (10 beyond), not p95",
    )?;
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    check(
        tail_percentile(&thousand) == Some((99.0, 990.0)),
        "1000 samples resolve p99 (10 beyond), not p99.9",
    )?;
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    check(
        tail_percentile(&twenty) == Some((50.0, 10.0)),
        "20 samples resolve only the median",
    )?;

    for good in ["setup_s", "crypto.pow_g_us", "shard_chaos", "9-lives"] {
        check(valid_name(good), good)?;
    }
    let long = "a".repeat(65);
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/name",
        "ünï",
        long.as_str(),
    ] {
        check(!valid_name(bad), bad)?;
    }
    for good in ["ms", "s", "1/s", "1/sim-s", "count", "%", "MiB"] {
        check(valid_unit(good), good)?;
    }
    for bad in ["", "m s", "seventeen-letters"] {
        check(!valid_unit(bad), bad)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn helpers_match_their_reference_values() {
        super::self_test().unwrap();
    }
}
