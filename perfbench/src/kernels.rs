//! Leaf kernels timed on the workload's own inputs: full-width 512-bit
//! group exponentiation and Schnorr sign/verify, the session MAC over a
//! request-sized body, the FLock touch pipeline on the workload's touches,
//! and journal framing over the records the workload journaled.

use std::hint::black_box;
use std::time::Instant;

use btd_crypto::entropy::ChaChaEntropy;
use btd_crypto::group::DhGroup;
use btd_crypto::hmac::hmac_sha256;
use btd_crypto::nonce::Nonce;
use btd_crypto::sha256::sha256;
use btd_flock::module::{FlockConfig, FlockModule};
use btd_sim::rng::SimRng;
use btd_workload::session::TouchSample;
use trust_core::messages::InteractionRequest;
use trust_core::risk_policy::RiskReport;
use trust_core::server::journal::{crc32, JournalRecord};

use crate::spans::Spans;
use crate::stats;

const POW_G_SAMPLES: usize = 64;
const SIGN_SAMPLES: usize = 32;
/// MACs per timed batch: one MAC is a few microseconds, so batches keep
/// clock reads out of the figure.
const HMAC_BATCH: usize = 64;
const HMAC_BATCHES: usize = 64;
/// Passes over the journaled records.
const FRAME_PASSES: usize = 16;

/// Median of `samples` scaled by `scale`; prints it with the quartiles
/// and the highest percentile that has ten samples beyond it.
fn summarize(name: &str, samples: &[f64], scale: f64) -> f64 {
    let scaled: Vec<f64> = samples.iter().map(|v| v * scale).collect();
    let median = stats::median(&scaled).unwrap_or(0.0);
    let mut line = format!("  kernel {name}: median {median:.3}");
    if let Some([q1, _, q3]) = stats::quartiles(&scaled) {
        line += &format!(", quartiles {q1:.3}..{q3:.3}");
    }
    if let Some((p, v)) = stats::tail_percentile(&scaled) {
        line += &format!(", p{p} {v:.3}");
    }
    println!("{line} (n={})", scaled.len());
    median
}

fn time_each(n: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let started = Instant::now();
            op(i);
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// `crypto.*`: `pow_g` on full-width scalars (as many bits as the group
/// order), the device's Schnorr sign and its verify, and the session MAC
/// over an interaction request's MAC bytes, built with a session id the
/// workload's server issued.
pub fn crypto(seed: u64, session_id: &str, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let group = DhGroup::test_512();
    let mut seed_bytes = [0u8; 32];
    seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
    let mut entropy = ChaChaEntropy::from_seed(seed_bytes);
    let order_bits = group.order().bits();
    let scalars: Vec<_> = std::iter::repeat_with(|| group.random_scalar(&mut entropy))
        .filter(|x| x.bits() == order_bits)
        .take(POW_G_SAMPLES)
        .collect();
    let pow_g = spans.time("crypto.pow_g", || {
        time_each(scalars.len(), |i| {
            black_box(group.pow_g(black_box(&scalars[i])));
        })
    });

    let mut rng = SimRng::seed_from(seed);
    let mut flock = FlockModule::new("kernel-dev", FlockConfig::fast_test(), &mut rng);
    let message = sha256(session_id.as_bytes());
    let mut signatures = Vec::with_capacity(SIGN_SAMPLES);
    let sign = spans.time("crypto.sign", || {
        time_each(SIGN_SAMPLES, |_| {
            signatures.push(flock.sign_with_device_key(message.as_bytes()));
        })
    });
    let public = flock.device_public_key().clone();
    let verify = spans.time("crypto.verify", || {
        time_each(SIGN_SAMPLES, |i| {
            assert!(
                public.verify(message.as_bytes(), &signatures[i]),
                "a device signature must verify"
            );
        })
    });

    let body = InteractionRequest::mac_bytes(
        session_id,
        "fleet-user-0",
        &Nonce([0x5A; 16]),
        7,
        "/transfer",
        &sha256(b"displayed frame"),
        &RiskReport {
            window: 5,
            verified: 4,
            mismatched: 0,
        },
    );
    let key = sha256(b"session key");
    let hmac = spans.time("crypto.hmac", || {
        time_each(HMAC_BATCHES, |_| {
            for _ in 0..HMAC_BATCH {
                black_box(hmac_sha256(key.as_bytes(), black_box(&body)));
            }
        })
    });
    println!("  kernel crypto.hmac body: {} bytes", body.len());

    vec![
        ("crypto.pow_g_us", summarize("crypto.pow_g_us", &pow_g, 1e6)),
        ("crypto.sign_us", summarize("crypto.sign_us", &sign, 1e6)),
        (
            "crypto.verify_us",
            summarize("crypto.verify_us", &verify, 1e6),
        ),
        (
            "crypto.hmac_ns",
            summarize("crypto.hmac_ns", &hmac, 1e9 / HMAC_BATCH as f64),
        ),
    ]
}

/// `flock.process_touch`: each kept device's touches through a FLock
/// module enrolled for that owner; mean microseconds per touch. The mean,
/// not the median: most touches miss every sensor and cost well under a
/// microsecond, while a capture that reaches the matcher costs hundreds.
pub fn process_touch(kept: &[(u64, Vec<TouchSample>)], seed: u64, spans: &mut Spans) -> f64 {
    let mut rng = SimRng::seed_from(seed ^ 0x70C4);
    let mut samples = Vec::new();
    spans.open("flock.process_touch");
    for (owner, touches) in kept {
        let mut flock = FlockModule::new("kernel-dev", FlockConfig::fast_test(), &mut rng);
        flock.enroll_owner(*owner, 3, &mut rng);
        samples.extend(time_each(touches.len(), |i| {
            black_box(flock.process_touch(&touches[i], &mut rng));
        }));
    }
    spans.close("flock.process_touch");
    summarize("flock.process_touch_us", &samples, 1e6);
    samples.iter().sum::<f64>() * 1e6 / samples.len().max(1) as f64
}

/// `journal.frame`: encode each journaled record and frame it with its
/// length and crc32 as the journal's append does; median nanoseconds per
/// record over several passes.
pub fn journal_frame(records: &[JournalRecord], spans: &mut Spans) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let passes = spans.time("journal.frame", || {
        time_each(FRAME_PASSES, |_| {
            for record in records {
                let payload = record.encode();
                let mut frame = Vec::with_capacity(payload.len() + 8);
                frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                frame.extend_from_slice(&crc32(&payload).to_be_bytes());
                frame.extend_from_slice(&payload);
                black_box(frame);
            }
        })
    });
    println!("  kernel journal.frame records: {}", records.len());
    summarize("journal.frame_ns", &passes, 1e9 / records.len() as f64)
}
