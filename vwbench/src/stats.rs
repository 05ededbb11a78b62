//! Order statistics used for every reported number.

/// Value at quantile `p` (0..=1) of an ascending slice, by linear
/// interpolation between the two nearest ranks. Empty input gives NaN.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; NaN when empty or any value is not
/// positive (a zero latency means a broken timer, not a fast query).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), which
/// is what the acceptance check of the benchmark contract uses. Needs two
/// values or more.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread the contract
/// compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Statement latencies in milliseconds, kept per template.
pub struct LatencyLog {
    pub names: Vec<&'static str>,
    pub ms: Vec<Vec<f64>>,
}

impl LatencyLog {
    pub fn new(names: Vec<&'static str>) -> LatencyLog {
        let ms = names.iter().map(|_| Vec::new()).collect();
        LatencyLog { names, ms }
    }

    pub fn record(&mut self, template: usize, ms: f64) {
        self.ms[template].push(ms);
    }

    pub fn count(&self) -> usize {
        self.ms.iter().map(Vec::len).sum()
    }

    /// Every latency of every template, ascending.
    pub fn all_sorted(&self) -> Vec<f64> {
        let all: Vec<f64> = self.ms.iter().flatten().copied().collect();
        sorted(&all)
    }

    /// Median latency of each template, in template order.
    pub fn template_medians(&self) -> Vec<f64> {
        self.ms.iter().map(|v| median(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_weighs_every_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn latency_log_keeps_templates_apart() {
        let mut log = LatencyLog::new(vec!["a", "b"]);
        for ms in [3.0, 1.0, 2.0] {
            log.record(0, ms);
        }
        log.record(1, 10.0);
        assert_eq!(log.count(), 4);
        assert_eq!(log.all_sorted(), vec![1.0, 2.0, 3.0, 10.0]);
        assert_eq!(log.template_medians(), vec![2.0, 10.0]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), Some(0.0));
    }
}
