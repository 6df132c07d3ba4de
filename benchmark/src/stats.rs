//! Order statistics behind every reported number.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); `None` when
/// `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p < 1) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it — a tail figure resting
/// on a handful of samples does not repeat between runs.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    // The epsilon keeps products like 0.9 × 100 from rounding up a rank.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads computed here match
/// the ones an external checker computes from the same values. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        for n in 1..400usize {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            for p in [0.5, 0.9, 0.99] {
                let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
                match percentile(&values, p) {
                    Some(v) => {
                        let beyond = values.iter().filter(|&&x| x > v).count();
                        assert!(beyond >= MIN_BEYOND, "n={n} p={p}: {beyond} beyond");
                        assert_eq!(v, (rank - 1) as f64, "n={n} p={p}: nearest rank");
                    }
                    None => assert!(n - rank.min(n) < MIN_BEYOND, "n={n} p={p} refused"),
                }
            }
        }
        // The boundaries the benchmark sizes its request counts by.
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(89.0));
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        assert_eq!(percentile(&hundred, 0.99), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
