//! Partial-fingerprint matching by Hough alignment voting.
//!
//! The paper's local-identity mechanism assumes partial-print matching "is
//! robust enough" (§IV-A, assumption 3, citing score-level fusion work).
//! This matcher recovers the unknown rigid transform between an enrolled
//! template (fingertip frame) and an observation (sensor frame) by letting
//! every (template, observed) minutia pair vote for the transform it
//! implies, then scoring greedy one-to-one correspondences under the best
//! transform.

use std::fmt;

use crate::minutiae::{angle_distance, normalize_angle, Minutia};
use crate::template::Template;

/// Matcher tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Max positional error for a correspondence, millimetres.
    pub pos_tolerance_mm: f64,
    /// Max angular error for a correspondence, radians.
    pub angle_tolerance_rad: f64,
    /// Rotation quantization for Hough voting, radians.
    pub rotation_bin_rad: f64,
    /// Translation quantization for Hough voting, millimetres.
    pub translation_bin_mm: f64,
    /// Score at or above which the match is accepted as genuine.
    pub score_threshold: f64,
    /// Score at or below which the observation is *conclusively* someone
    /// else's finger. Scores between the two thresholds are inconclusive —
    /// typical of noisy genuine captures — and should not be treated as
    /// evidence of fraud.
    pub reject_threshold: f64,
    /// Minimum matched correspondences for an accept: the quadratic score
    /// is noisy on tiny observations, so a high score from very few pairs
    /// is treated as inconclusive rather than as a match.
    pub min_match_count: usize,
    /// Minimum observed minutiae for a meaningful match attempt.
    pub min_minutiae: usize,
    /// Minimum observed minutiae before a low score may be treated as a
    /// *conclusive* reject rather than merely inconclusive.
    pub reject_min_minutiae: usize,
    /// How many of the top-voted Hough bins to refine and score (the best
    /// result wins). Noisy observations split the true transform's votes
    /// across neighbouring bins, so evaluating more candidates trades a
    /// little work for robustness.
    pub hough_bins_evaluated: usize,
    /// ICP refinement iterations per bin. More iterations recover noisy
    /// genuine transforms better but also let impostor alignments
    /// over-fit; keep low unless the observation noise demands it.
    pub refine_iterations: usize,
    /// Treat minutia directions as π-periodic orientations instead of full
    /// 2π headings. Image-domain extraction ([`crate::extract`]) recovers
    /// direction only up to the ridge's sign, so matching extracted
    /// observations needs this mode.
    pub angle_mod_pi: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            pos_tolerance_mm: 0.9,
            angle_tolerance_rad: 0.5,
            rotation_bin_rad: 0.18,
            translation_bin_mm: 1.2,
            score_threshold: 0.38,
            reject_threshold: 0.20,
            min_match_count: 7,
            min_minutiae: 4,
            reject_min_minutiae: 8,
            hough_bins_evaluated: 4,
            refine_iterations: 1,
            angle_mod_pi: false,
        }
    }
}

impl MatchConfig {
    /// The configuration for matching image-extracted observations
    /// (π-periodic directions, slightly wider angular tolerance).
    pub fn for_image_extraction() -> Self {
        MatchConfig {
            angle_mod_pi: true,
            angle_tolerance_rad: 0.55,
            pos_tolerance_mm: 0.6,
            rotation_bin_rad: 0.35,
            hough_bins_evaluated: 8,
            refine_iterations: 3,
            score_threshold: 0.45,
            ..MatchConfig::default()
        }
    }

    /// Folds an angle difference into this configuration's canonical
    /// range: `[0, 2π)` for full headings, or the *signed* `[−π/2, π/2)`
    /// for π-periodic orientations. The signed range matters: a tiny
    /// negative orientation difference must fold near 0, not near π,
    /// or Hough votes for the identity transform split into a spurious
    /// 180°-rotation bin.
    fn fold(&self, a: f64) -> f64 {
        if self.angle_mod_pi {
            let pi = std::f64::consts::PI;
            let mut d = a % pi;
            if d < -pi / 2.0 {
                d += pi;
            } else if d >= pi / 2.0 {
                d -= pi;
            }
            d
        } else {
            normalize_angle(a)
        }
    }

    /// Angular distance under this configuration's period.
    fn angle_gap(&self, a: f64, b: f64) -> f64 {
        if self.angle_mod_pi {
            self.fold(a - b).abs()
        } else {
            angle_distance(a, b)
        }
    }
}

/// The outcome of a match attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchResult {
    /// Normalized similarity in `[0, 1]`.
    pub score: f64,
    /// Number of minutia correspondences under the best transform.
    pub matched: usize,
    /// Recovered rotation (template → sensor frame), radians.
    pub rotation: f64,
    /// Recovered translation, millimetres.
    pub translation: (f64, f64),
}

impl MatchResult {
    /// A definite non-match.
    pub fn no_match() -> Self {
        MatchResult {
            score: 0.0,
            matched: 0,
            rotation: 0.0,
            translation: (0.0, 0.0),
        }
    }

    /// Whether this result clears `config`'s acceptance criteria (score
    /// threshold and minimum matched-pair count).
    pub fn is_accepted(&self, config: &MatchConfig) -> bool {
        self.score >= config.score_threshold && self.matched >= config.min_match_count
    }
}

/// Matches an observation (sensor-frame minutiae) against a template.
///
/// Returns [`MatchResult::no_match`] when the observation has fewer than
/// [`MatchConfig::min_minutiae`] points.
///
/// # Example
///
/// ```
/// use btd_fingerprint::matcher::{match_observation, MatchConfig};
/// use btd_fingerprint::pattern::FingerPattern;
/// use btd_fingerprint::enroll::enroll;
/// use btd_fingerprint::minutiae::CaptureWindow;
/// use btd_fingerprint::quality::CaptureConditions;
/// use btd_sim::geom::MmPoint;
/// use btd_sim::rng::SimRng;
///
/// let finger = FingerPattern::generate(1, 0);
/// let mut rng = SimRng::seed_from(2);
/// let template = enroll(&finger, 5, &mut rng);
/// let window = CaptureWindow::centered(MmPoint::new(0.0, 2.0), 8.0, 8.0);
/// let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
/// let genuine = match_observation(&template, &obs.minutiae, &MatchConfig::default());
///
/// let impostor_finger = FingerPattern::generate(2, 0);
/// let obs2 = impostor_finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
/// let impostor = match_observation(&template, &obs2.minutiae, &MatchConfig::default());
/// assert!(genuine.score > impostor.score);
/// ```
pub fn match_observation(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
) -> MatchResult {
    match_observation_with(template, observed, config, &mut MatchScratch::default())
}

/// [`match_observation`] with caller-owned working memory: a caller that
/// matches touch after touch keeps one [`MatchScratch`], and matching stops
/// allocating once its buffers have grown to the largest input.
pub fn match_observation_with(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
    scratch: &mut MatchScratch,
) -> MatchResult {
    if observed.len() < config.min_minutiae {
        return MatchResult::no_match();
    }

    // --- Hough voting over (rotation, translation) ----------------------
    // Every pair hypothesizes: rotate template minutia by Δθ (the angle
    // difference), translation is whatever maps it onto the observed one.
    let votes = &mut scratch.votes;
    votes.reset(template.len() * observed.len());
    for t in template.minutiae() {
        for o in observed {
            let dtheta = config.fold(o.angle - t.angle);
            let (s, c) = dtheta.sin_cos();
            let tx = o.pos.x - (t.pos.x * c - t.pos.y * s);
            let ty = o.pos.y - (t.pos.x * s + t.pos.y * c);
            votes.add((
                (dtheta / config.rotation_bin_rad).round() as i64,
                (tx / config.translation_bin_mm).round() as i64,
                (ty / config.translation_bin_mm).round() as i64,
            ));
        }
    }
    // Evaluate the top few bins — vote quantization occasionally splits
    // the true transform across neighbouring bins, and committing to a
    // single bin causes catastrophic genuine misalignments.
    votes.top(config.hough_bins_evaluated.max(1), &mut scratch.top);
    let mut best_result = MatchResult::no_match();
    for &(_, bin) in &scratch.top {
        let candidate = score_bin(template, observed, config, bin, &mut scratch.bin);
        if candidate.score > best_result.score {
            best_result = candidate;
        }
    }
    best_result
}

/// A Hough bin: quantized (rotation, translation x, translation y).
type BinKey = (i64, i64, i64);

/// Reusable working memory for [`match_observation_with`]: the Hough vote
/// table, the bins picked from it, and the per-bin buffers.
#[derive(Clone, Default)]
pub struct MatchScratch {
    votes: VoteTable,
    /// The bins to refine, best first.
    top: Vec<(u32, BinKey)>,
    bin: BinScratch,
}

// The buffers hold the last transformed template, which is as secret as
// the template itself (see `Template`'s `Debug`): print only sizes.
impl fmt::Debug for MatchScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatchScratch({} vote slots)", self.votes.index.len())
    }
}

/// Hough votes: a flat open-addressed (linear probing) index over a dense
/// list of distinct bins.
#[derive(Clone, Default)]
struct VoteTable {
    /// `0` marks an empty slot and `i + 1` points at `bins[i]`. A power of
    /// two long and at most half full.
    index: Vec<u32>,
    /// `64 − log2(index.len())`: the multiply-shift hash keeps the top
    /// bits of its product.
    shift: u32,
    /// Every distinct bin with its vote count, in first-vote order.
    bins: Vec<(u32, BinKey)>,
}

impl VoteTable {
    /// Empties the table and sizes it for up to `keys` distinct keys.
    fn reset(&mut self, keys: usize) {
        assert!(
            keys < u32::MAX as usize,
            "{keys} vote pairs overflow the index"
        );
        let len = (2 * keys).next_power_of_two().max(16);
        self.shift = 64 - len.trailing_zeros();
        self.index.clear();
        self.index.resize(len, 0);
        self.bins.clear();
        self.bins.reserve(keys);
    }

    /// Adds one vote for `key`.
    fn add(&mut self, key: BinKey) {
        let mask = self.index.len() - 1;
        let hash = (key.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.1 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add((key.2 as u64).wrapping_mul(0x1656_67B1_9E37_79F9));
        let mut i = (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.index[i] {
                0 => {
                    self.bins.push((1, key));
                    self.index[i] = self.bins.len() as u32;
                    return;
                }
                at => {
                    let bin = &mut self.bins[at as usize - 1];
                    if bin.1 == key {
                        bin.0 += 1;
                        return;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Writes the `k` best bins into `top`, best first: more votes first,
    /// then the smaller key. Keys are unique, so this order is total and
    /// `top` is exactly the first `k` bins of the fully sorted table,
    /// whatever order the table holds them in.
    fn top(&self, k: usize, top: &mut Vec<(u32, BinKey)>) {
        let ahead = |a: &(u32, BinKey), b: &(u32, BinKey)| a.0 > b.0 || (a.0 == b.0 && a.1 < b.1);
        top.clear();
        for &bin in &self.bins {
            if top.len() == k {
                if !ahead(&bin, &top[k - 1]) {
                    continue;
                }
                top.pop();
            }
            let at = top.partition_point(|t| ahead(t, &bin));
            top.insert(at, bin);
        }
    }
}

/// Per-bin working memory: the transformed template and the
/// correspondence search's buffers.
#[derive(Clone, Default)]
struct BinScratch {
    transformed: Vec<Minutia>,
    candidates: Vec<(f64, usize, usize)>,
    t_used: Vec<bool>,
    o_used: Vec<bool>,
    /// The latest correspondences, `(template_index, observed_index)`.
    pairs: Vec<(usize, usize)>,
}

impl BinScratch {
    /// Applies one rigid transform to every template minutia.
    fn transform(&mut self, template: &Template, rotation: f64, (tx, ty): (f64, f64)) {
        let sin_cos = rotation.sin_cos();
        self.transformed.clear();
        self.transformed.extend(
            template
                .minutiae()
                .iter()
                .map(|m| m.transformed_with(sin_cos, rotation, tx, ty)),
        );
    }

    /// Greedy one-to-one correspondences (closest pairs first) between
    /// the transformed template minutiae and observed minutiae, into
    /// [`BinScratch::pairs`].
    fn correspond(
        &mut self,
        observed: &[Minutia],
        pos_tolerance: f64,
        angle_tolerance: f64,
        config: &MatchConfig,
    ) {
        // A pair further apart than the tolerance along one axis fails the
        // distance test, so it is skipped before the square root. This is
        // exact: in round-to-nearest binary floating point sqrt(x·x) == |x|
        // when x·x neither overflows nor underflows (the floor keeps it
        // from underflowing), and adding a non-negative square and taking
        // the root are monotone, so the computed distance is never below
        // either component's magnitude.
        let axis_bound = pos_tolerance.max(AXIS_BOUND_FLOOR);
        let candidates = &mut self.candidates;
        candidates.clear();
        for (oi, o) in observed.iter().enumerate() {
            for (ti, t) in self.transformed.iter().enumerate() {
                if (o.pos.x - t.pos.x).abs() > axis_bound || (o.pos.y - t.pos.y).abs() > axis_bound
                {
                    continue;
                }
                let d = o.pos.distance_to(t.pos);
                if d <= pos_tolerance && config.angle_gap(o.angle, t.angle) <= angle_tolerance {
                    candidates.push((d, ti, oi));
                }
            }
        }
        // Candidates are generated observed-index-major, so ordering by
        // (d, oi, ti) is the order a stable sort by distance alone gives.
        candidates.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.2.cmp(&b.2))
                .then(a.1.cmp(&b.1))
        });
        self.t_used.clear();
        self.t_used.resize(self.transformed.len(), false);
        self.o_used.clear();
        self.o_used.resize(observed.len(), false);
        self.pairs.clear();
        for &(_, ti, oi) in candidates.iter() {
            if !self.t_used[ti] && !self.o_used[oi] {
                self.t_used[ti] = true;
                self.o_used[oi] = true;
                self.pairs.push((ti, oi));
            }
        }
    }
}

/// Below this, squaring a coordinate difference can underflow; the axis
/// prefilter in [`BinScratch::correspond`] never skips at a bound this
/// small.
const AXIS_BOUND_FLOOR: f64 = 1e-150;

/// Refines the transform implied by one Hough bin and scores the
/// correspondences it induces.
///
/// Refinement is ICP-style: starting from the bin-centre transform, find
/// greedy one-to-one correspondences, re-estimate the rigid transform from
/// *those pairs only*, and repeat. Estimating only from matched pairs (as
/// opposed to every pair that voted near the bin) keeps accidental
/// pairings from contaminating the transform.
fn score_bin(
    template: &Template,
    observed: &[Minutia],
    config: &MatchConfig,
    (rb, xb, yb): BinKey,
    work: &mut BinScratch,
) -> MatchResult {
    let mut rotation = config.fold(rb as f64 * config.rotation_bin_rad);
    let mut translation = (
        xb as f64 * config.translation_bin_mm,
        yb as f64 * config.translation_bin_mm,
    );

    let iterations = config.refine_iterations.max(1);
    for iteration in 0..iterations {
        // Generous tolerances while the transform is still coarse.
        let slack = match iterations - 1 - iteration {
            0 => 1.0,
            1 => 1.3,
            _ => 1.6,
        };
        work.transform(template, rotation, translation);
        work.correspond(
            observed,
            config.pos_tolerance_mm * slack,
            config.angle_tolerance_rad * slack,
            config,
        );
        let pairs = &work.pairs;
        if pairs.is_empty() {
            return MatchResult::no_match();
        }
        // Re-estimate the transform from the matched pairs only.
        let (mut sin2, mut cos2, mut sin1, mut cos1) = (0.0f64, 0.0, 0.0, 0.0);
        for &(ti, oi) in pairs {
            let d = observed[oi].angle - template.minutiae()[ti].angle;
            sin2 += (2.0 * d).sin();
            cos2 += (2.0 * d).cos();
            sin1 += d.sin();
            cos1 += d.cos();
        }
        // Circular mean with the period the angle convention demands:
        // doubled angles for pi-periodic orientations.
        rotation = if config.angle_mod_pi {
            // Doubled-angle circular mean, kept in the signed [−π/2, π/2)
            // range so near-identity rotations stay near zero.
            config.fold(0.5 * sin2.atan2(cos2))
        } else {
            normalize_angle(sin1.atan2(cos1))
        };
        let (s, c) = rotation.sin_cos();
        let (mut tx, mut ty) = (0.0f64, 0.0);
        for &(ti, oi) in pairs {
            let tm = &template.minutiae()[ti];
            tx += observed[oi].pos.x - (tm.pos.x * c - tm.pos.y * s);
            ty += observed[oi].pos.y - (tm.pos.x * s + tm.pos.y * c);
        }
        translation = (tx / pairs.len() as f64, ty / pairs.len() as f64);
    }

    // --- Final correspondence count under exact tolerances ---------------
    work.transform(template, rotation, translation);
    work.correspond(
        observed,
        config.pos_tolerance_mm,
        config.angle_tolerance_rad,
        config,
    );
    let matched = work.pairs.len();

    // --- Normalization ---------------------------------------------------
    // The classic quadratic minutiae score: matched^2 over the product of
    // the candidate set sizes. Accidental alignments that pair only a few
    // minutiae are punished much harder than by a linear ratio, which is
    // what keeps impostor scores low on small partial prints.
    let obs_bound = bounding_radius(observed);
    let in_region = work
        .transformed
        .iter()
        .filter(|t| t.pos.x.hypot(t.pos.y) <= obs_bound + config.pos_tolerance_mm)
        .count()
        .max(config.min_minutiae);
    let denom = (observed.len() * in_region) as f64;
    let score = ((matched * matched) as f64 / denom).clamp(0.0, 1.0);

    MatchResult {
        score,
        matched,
        rotation,
        translation,
    }
}

/// Radius of the observation cloud around the sensor-frame origin.
fn bounding_radius(minutiae: &[Minutia]) -> f64 {
    minutiae
        .iter()
        .map(|m| m.pos.x.hypot(m.pos.y))
        .fold(0.0, f64::max)
}

/// The matcher before the flat vote table: a SipHash `HashMap` of votes,
/// a full sort of every bin, one `sin_cos` per transformed minutia and a
/// stable sort of every candidate pair. The test oracle that
/// [`match_observation_with`] must reproduce bit for bit.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::{bounding_radius, MatchConfig, MatchResult};
    use crate::minutiae::{normalize_angle, Minutia};
    use crate::template::Template;

    pub(super) fn match_observation(
        template: &Template,
        observed: &[Minutia],
        config: &MatchConfig,
    ) -> MatchResult {
        if observed.len() < config.min_minutiae {
            return MatchResult::no_match();
        }
        let mut votes: HashMap<(i64, i64, i64), u32> = HashMap::new();
        for t in template.minutiae() {
            for o in observed {
                let dtheta = config.fold(o.angle - t.angle);
                let (s, c) = dtheta.sin_cos();
                let tx = o.pos.x - (t.pos.x * c - t.pos.y * s);
                let ty = o.pos.y - (t.pos.x * s + t.pos.y * c);
                let key = (
                    (dtheta / config.rotation_bin_rad).round() as i64,
                    (tx / config.translation_bin_mm).round() as i64,
                    (ty / config.translation_bin_mm).round() as i64,
                );
                *votes.entry(key).or_insert(0) += 1;
            }
        }
        let mut bins: Vec<(u32, (i64, i64, i64))> =
            votes.into_iter().map(|(k, v)| (v, k)).collect();
        bins.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        bins.truncate(config.hough_bins_evaluated.max(1));
        let mut best_result = MatchResult::no_match();
        for (_, bin) in bins {
            let candidate = score_bin(template, observed, config, bin);
            if candidate.score > best_result.score {
                best_result = candidate;
            }
        }
        best_result
    }

    fn score_bin(
        template: &Template,
        observed: &[Minutia],
        config: &MatchConfig,
        (rb, xb, yb): (i64, i64, i64),
    ) -> MatchResult {
        let mut rotation = config.fold(rb as f64 * config.rotation_bin_rad);
        let mut translation = (
            xb as f64 * config.translation_bin_mm,
            yb as f64 * config.translation_bin_mm,
        );
        let mut pairs: Vec<(usize, usize)>;
        let iterations = config.refine_iterations.max(1);
        for iteration in 0..iterations {
            let slack = match iterations - 1 - iteration {
                0 => 1.0,
                1 => 1.3,
                _ => 1.6,
            };
            let transformed: Vec<Minutia> = template
                .minutiae()
                .iter()
                .map(|m| m.transformed(rotation, translation.0, translation.1))
                .collect();
            pairs = correspondences(
                &transformed,
                observed,
                config.pos_tolerance_mm * slack,
                config.angle_tolerance_rad * slack,
                config,
            );
            if pairs.is_empty() {
                return MatchResult::no_match();
            }
            let (mut sin2, mut cos2, mut sin1, mut cos1) = (0.0f64, 0.0, 0.0, 0.0);
            for &(ti, oi) in &pairs {
                let d = observed[oi].angle - template.minutiae()[ti].angle;
                sin2 += (2.0 * d).sin();
                cos2 += (2.0 * d).cos();
                sin1 += d.sin();
                cos1 += d.cos();
            }
            rotation = if config.angle_mod_pi {
                config.fold(0.5 * sin2.atan2(cos2))
            } else {
                normalize_angle(sin1.atan2(cos1))
            };
            let (s, c) = rotation.sin_cos();
            let (mut tx, mut ty) = (0.0f64, 0.0);
            for &(ti, oi) in &pairs {
                let tm = &template.minutiae()[ti];
                tx += observed[oi].pos.x - (tm.pos.x * c - tm.pos.y * s);
                ty += observed[oi].pos.y - (tm.pos.x * s + tm.pos.y * c);
            }
            translation = (tx / pairs.len() as f64, ty / pairs.len() as f64);
        }
        let transformed: Vec<Minutia> = template
            .minutiae()
            .iter()
            .map(|m| m.transformed(rotation, translation.0, translation.1))
            .collect();
        let matched = correspondences(
            &transformed,
            observed,
            config.pos_tolerance_mm,
            config.angle_tolerance_rad,
            config,
        )
        .len();
        let obs_bound = bounding_radius(observed);
        let in_region = transformed
            .iter()
            .filter(|t| t.pos.x.hypot(t.pos.y) <= obs_bound + config.pos_tolerance_mm)
            .count()
            .max(config.min_minutiae);
        let denom = (observed.len() * in_region) as f64;
        let score = ((matched * matched) as f64 / denom).clamp(0.0, 1.0);
        MatchResult {
            score,
            matched,
            rotation,
            translation,
        }
    }

    fn correspondences(
        transformed: &[Minutia],
        observed: &[Minutia],
        pos_tolerance: f64,
        angle_tolerance: f64,
        config: &MatchConfig,
    ) -> Vec<(usize, usize)> {
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
        for (oi, o) in observed.iter().enumerate() {
            for (ti, t) in transformed.iter().enumerate() {
                let d = o.pos.distance_to(t.pos);
                if d <= pos_tolerance && config.angle_gap(o.angle, t.angle) <= angle_tolerance {
                    candidates.push((d, ti, oi));
                }
            }
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let mut t_used = vec![false; transformed.len()];
        let mut o_used = vec![false; observed.len()];
        let mut pairs = Vec::new();
        for (_, ti, oi) in candidates {
            if !t_used[ti] && !o_used[oi] {
                t_used[ti] = true;
                o_used[oi] = true;
                pairs.push((ti, oi));
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enroll::enroll;
    use crate::minutiae::{CaptureWindow, MinutiaKind};
    use crate::pattern::FingerPattern;
    use crate::quality::CaptureConditions;
    use btd_sim::geom::MmPoint;
    use btd_sim::rng::SimRng;
    use proptest::prelude::*;

    fn genuine_and_impostor_scores(window_size: f64, trials: u64) -> (Vec<f64>, Vec<f64>) {
        let cfg = MatchConfig::default();
        let mut genuine = Vec::new();
        let mut impostor = Vec::new();
        for trial in 0..trials {
            let owner = FingerPattern::generate(trial, 0);
            let other = FingerPattern::generate(10_000 + trial, 0);
            let mut rng = SimRng::seed_from(500 + trial);
            let template = enroll(&owner, 5, &mut rng);
            let window = CaptureWindow::centered(
                MmPoint::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-3.0, 3.0)),
                window_size,
                window_size,
            );
            let obs_g = owner.observe(&window, &CaptureConditions::ideal(), &mut rng);
            genuine.push(match_observation(&template, &obs_g.minutiae, &cfg).score);
            let obs_i = other.observe(&window, &CaptureConditions::ideal(), &mut rng);
            impostor.push(match_observation(&template, &obs_i.minutiae, &cfg).score);
        }
        (genuine, impostor)
    }

    #[test]
    fn genuine_scores_dominate_impostor_scores() {
        let (genuine, impostor) = genuine_and_impostor_scores(8.0, 12);
        let g_mean = genuine.iter().sum::<f64>() / genuine.len() as f64;
        let i_mean = impostor.iter().sum::<f64>() / impostor.len() as f64;
        assert!(
            g_mean > i_mean + 0.25,
            "genuine {g_mean:.3} vs impostor {i_mean:.3}"
        );
    }

    #[test]
    fn default_threshold_separates_most_cases() {
        let cfg = MatchConfig::default();
        let (genuine, impostor) = genuine_and_impostor_scores(8.0, 12);
        let frr = genuine.iter().filter(|s| **s < cfg.score_threshold).count();
        let far = impostor
            .iter()
            .filter(|s| **s >= cfg.score_threshold)
            .count();
        assert!(frr <= 3, "false rejects: {frr}/12 (scores {genuine:?})");
        assert!(far <= 1, "false accepts: {far}/12 (scores {impostor:?})");
    }

    #[test]
    fn recovers_the_applied_rotation() {
        let finger = FingerPattern::generate(77, 0);
        let mut rng = SimRng::seed_from(4);
        let template = enroll(&finger, 5, &mut rng);
        let window = CaptureWindow::centered(MmPoint::new(0.0, 0.0), 9.0, 9.0);
        let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
        let result = match_observation(&template, &obs.minutiae, &MatchConfig::default());
        assert!(result.matched >= 4);
        let err = angle_distance(result.rotation, obs.true_rotation);
        assert!(err < 0.2, "rotation error {err}");
    }

    #[test]
    fn too_few_minutiae_is_no_match() {
        let finger = FingerPattern::generate(78, 0);
        let mut rng = SimRng::seed_from(5);
        let template = enroll(&finger, 5, &mut rng);
        let obs = [Minutia::new(
            MmPoint::new(0.0, 0.0),
            0.0,
            crate::minutiae::MinutiaKind::Ending,
        )];
        let result = match_observation(&template, &obs, &MatchConfig::default());
        assert_eq!(result, MatchResult::no_match());
    }

    #[test]
    fn empty_observation_is_no_match() {
        let finger = FingerPattern::generate(79, 0);
        let mut rng = SimRng::seed_from(6);
        let template = enroll(&finger, 5, &mut rng);
        let result = match_observation(&template, &[], &MatchConfig::default());
        assert_eq!(result.score, 0.0);
    }

    #[test]
    fn smaller_windows_lower_scores_but_still_match() {
        let (g_large, _) = genuine_and_impostor_scores(10.0, 8);
        let (g_small, _) = genuine_and_impostor_scores(5.0, 8);
        let large_mean = g_large.iter().sum::<f64>() / g_large.len() as f64;
        let small_mean = g_small.iter().sum::<f64>() / g_small.len() as f64;
        // Small patches carry fewer minutiae; scores drop but stay usable.
        assert!(small_mean > 0.2, "small-window mean {small_mean}");
        assert!(large_mean > 0.4, "large-window mean {large_mean}");
    }

    /// Runs the fast matcher (one shared scratch) and the reference under
    /// both shipped configurations and requires bit-identical results.
    fn matches_reference(
        scratch: &mut MatchScratch,
        template: &Template,
        observed: &[Minutia],
    ) -> Result<(), String> {
        for config in [MatchConfig::default(), MatchConfig::for_image_extraction()] {
            let fast = match_observation_with(template, observed, &config, scratch);
            let slow = reference::match_observation(template, observed, &config);
            let same = fast.score.to_bits() == slow.score.to_bits()
                && fast.matched == slow.matched
                && fast.rotation.to_bits() == slow.rotation.to_bits()
                && fast.translation.0.to_bits() == slow.translation.0.to_bits()
                && fast.translation.1.to_bits() == slow.translation.1.to_bits();
            if !same {
                return Err(format!(
                    "angle_mod_pi {}: fast {fast:?} != reference {slow:?}",
                    config.angle_mod_pi
                ));
            }
        }
        Ok(())
    }

    fn kind(bifurcation: bool) -> MinutiaKind {
        if bifurcation {
            MinutiaKind::Bifurcation
        } else {
            MinutiaKind::Ending
        }
    }

    /// Minutiae anywhere in an 18 mm square, at any heading.
    fn arb_minutia() -> impl Strategy<Value = Minutia> {
        (
            -9.0..9.0,
            -9.0..9.0,
            0.0..std::f64::consts::TAU,
            any::<bool>(),
        )
            .prop_map(|(x, y, a, b)| Minutia::new(MmPoint::new(x, y), a, kind(b)))
    }

    /// Minutiae on a 0.6 mm grid at multiples of 45°: half a translation
    /// bin apart, so vote counts tie, keys round at bin edges, and many
    /// candidate pairs lie at exactly equal distances.
    fn grid_minutia() -> impl Strategy<Value = Minutia> {
        (0u32..13, 0u32..13, 0u32..8, any::<bool>()).prop_map(|(i, j, k, b)| {
            let at = |n: u32| (f64::from(n) - 6.0) * 0.6;
            let angle = f64::from(k) * std::f64::consts::FRAC_PI_4;
            Minutia::new(MmPoint::new(at(i), at(j)), angle, kind(b))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matches_reference_on_random_constellations(
            template in proptest::collection::vec(arb_minutia(), 1..40),
            observed in proptest::collection::vec(arb_minutia(), 0..25),
        ) {
            let template = Template::new(1, 0, template);
            matches_reference(&mut MatchScratch::default(), &template, &observed)?;
        }

        #[test]
        fn matches_reference_on_grid_constellations(
            template in proptest::collection::vec(grid_minutia(), 1..30),
            observed in proptest::collection::vec(grid_minutia(), 0..20),
        ) {
            let template = Template::new(1, 0, template);
            matches_reference(&mut MatchScratch::default(), &template, &observed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Enrolled templates against genuine and impostor captures, with
        /// one scratch reused across differently sized inputs.
        #[test]
        fn matches_reference_on_enrolled_fingers(
            user in 0u64..1_000_000,
            seed in 0u64..1_000_000,
            size in 4u32..11,
        ) {
            let owner = FingerPattern::generate(user, 0);
            let other = FingerPattern::generate(user + 1, 0);
            let mut rng = SimRng::seed_from(seed);
            let template = enroll(&owner, 5, &mut rng);
            let window = CaptureWindow::centered(
                MmPoint::new(rng.range_f64(-2.0, 2.0), rng.range_f64(-3.0, 3.0)),
                f64::from(size),
                f64::from(size),
            );
            let mut scratch = MatchScratch::default();
            for finger in [&owner, &other] {
                let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
                matches_reference(&mut scratch, &template, &obs.minutiae)?;
            }
        }
    }

    #[test]
    fn tied_top_bins_match_the_reference() {
        // Two disjoint halves of the template, each shifted by its own
        // translation: two bins of equal top vote count.
        let template: Vec<Minutia> = (0..6)
            .map(|i| {
                let p = MmPoint::new(f64::from(i) * 1.7 - 4.0, f64::from(i % 3) * 2.3 - 2.0);
                Minutia::new(p, f64::from(i) * 0.9, MinutiaKind::Ending)
            })
            .collect();
        let observed: Vec<Minutia> = template
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let (dx, dy) = if i < 3 { (2.4, 0.0) } else { (0.0, -3.6) };
                Minutia::new(m.pos.offset(dx, dy), m.angle, m.kind)
            })
            .collect();
        let template = Template::new(1, 0, template);
        let mut scratch = MatchScratch::default();
        matches_reference(&mut scratch, &template, &observed).unwrap();
        let cfg = MatchConfig::default();
        match_observation_with(&template, &observed, &cfg, &mut scratch);
        let top = &scratch.top;
        assert!(top.len() >= 2 && top[0].0 == top[1].0, "top bins {top:?}");
        assert!(top[0].1 < top[1].1, "ties break toward the smaller key");
    }

    #[test]
    fn equal_distance_candidates_match_the_reference() {
        // Observed minutiae straddle each template minutia symmetrically,
        // so greedy pairing meets exact distance ties.
        let template: Vec<Minutia> = (0..5)
            .map(|i| {
                let p = MmPoint::new(f64::from(i) * 2.0 - 4.0, 0.5);
                Minutia::new(p, 0.3, MinutiaKind::Bifurcation)
            })
            .collect();
        let observed: Vec<Minutia> = template
            .iter()
            .flat_map(|m| {
                [-0.25, 0.25].map(|dx| Minutia::new(m.pos.offset(dx, 0.0), m.angle, m.kind))
            })
            .collect();
        let template = Template::new(1, 0, template);
        matches_reference(&mut MatchScratch::default(), &template, &observed).unwrap();
    }

    #[test]
    fn short_and_empty_observations_match_the_reference() {
        let finger = FingerPattern::generate(80, 0);
        let mut rng = SimRng::seed_from(7);
        let template = enroll(&finger, 5, &mut rng);
        let cfg = MatchConfig::default();
        let few: Vec<Minutia> = template.minutiae()[..cfg.min_minutiae - 1].to_vec();
        let mut scratch = MatchScratch::default();
        for observed in [&few[..], &[]] {
            matches_reference(&mut scratch, &template, observed).unwrap();
            let result = match_observation_with(&template, observed, &cfg, &mut scratch);
            assert_eq!(result, MatchResult::no_match());
        }
        // With no minimum, an empty observation casts no votes at all.
        let anything = MatchConfig {
            min_minutiae: 0,
            ..cfg
        };
        assert_eq!(
            match_observation_with(&template, &[], &anything, &mut scratch),
            reference::match_observation(&template, &[], &anything)
        );
    }

    #[test]
    fn result_accept_uses_threshold_and_match_count() {
        let cfg = MatchConfig::default();
        let good = MatchResult {
            score: cfg.score_threshold + 0.01,
            matched: cfg.min_match_count,
            ..MatchResult::no_match()
        };
        let low_score = MatchResult {
            score: cfg.score_threshold - 0.01,
            matched: cfg.min_match_count,
            ..MatchResult::no_match()
        };
        let too_few_pairs = MatchResult {
            score: cfg.score_threshold + 0.2,
            matched: cfg.min_match_count - 1,
            ..MatchResult::no_match()
        };
        assert!(good.is_accepted(&cfg));
        assert!(!low_score.is_accepted(&cfg));
        assert!(!too_few_pairs.is_accepted(&cfg));
    }
}
