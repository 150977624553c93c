//! Order statistics and the scored-view digest behind the benchmark's
//! metrics and output checks.

use sm_attack::ScoredView;

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `pct` outside `[0, 100]`.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} out of range"
    );
    let v = sorted(values);
    let rank = (pct / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a-64 digest of everything a [`ScoredView`] holds. Probabilities
/// enter by their bit patterns, so a one-ulp change moves the digest.
pub fn scored_view_digest(view: &ScoredView) -> String {
    let mut bytes = Vec::new();
    let mut put = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    put(view.num_view_vpins as u64);
    put(view.pairs_scored);
    put(view.hist.len() as u64);
    view.hist.iter().for_each(|&h| put(h));
    put(view.slots.len() as u64);
    for slot in &view.slots {
        put(u64::from(slot.vpin));
        put(slot.true_prob.map_or(u64::MAX, f64::to_bits));
        put(slot.top.len() as u64);
        for c in &slot.top {
            put(c.p.to_bits());
            put(u64::from(c.index));
            put(c.dist as u64);
        }
    }
    sm_attack::durable::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_attack::attack::{Cand, VpinScore};

    #[test]
    fn median_takes_the_middle_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn statistics_of_nothing_panic() {
        median(&[]);
    }

    fn view(p: f64) -> ScoredView {
        ScoredView {
            slots: vec![VpinScore {
                vpin: 3,
                true_prob: Some(p),
                top: vec![Cand {
                    p,
                    index: 7,
                    dist: 120,
                }],
            }],
            hist: vec![0, 1],
            num_view_vpins: 10,
            pairs_scored: 1,
        }
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        let a = view(0.25);
        assert_eq!(scored_view_digest(&a), scored_view_digest(&a.clone()));
        let nudged = view(f64::from_bits(0.25f64.to_bits() + 1));
        assert_ne!(scored_view_digest(&a), scored_view_digest(&nudged));
        let mut missing = a.clone();
        missing.slots[0].true_prob = None;
        assert_ne!(scored_view_digest(&a), scored_view_digest(&missing));
        assert!(scored_view_digest(&a).starts_with("fnv1a64:"));
    }
}
