//! Table statistics: equi-width histograms, distinct counts, null fractions.
//!
//! Stands in for the Ingres front-end's "quite accurate histogram-based query
//! estimation" (§I-B). Statistics are built from a sample of column values at
//! load/analyze time and consumed by the selectivity estimator in
//! [`crate::optimizer`].

use std::collections::HashMap;
use vw_common::{DataType, Value};

/// Number of buckets in an equi-width histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-width histogram over a numeric domain (ints, floats, dates all
/// map onto f64 bucket boundaries).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub min: f64,
    pub max: f64,
    pub buckets: Vec<u64>,
    pub total: u64,
}

impl Histogram {
    /// Build from numeric samples; `None` if fewer than 2 samples or a
    /// degenerate domain.
    pub fn build(samples: &[f64]) -> Option<Histogram> {
        if samples.len() < 2 {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in samples {
            if s.is_nan() {
                return None;
            }
            min = min.min(s);
            max = max.max(s);
        }
        if max <= min {
            return None;
        }
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let width = (max - min) / HISTOGRAM_BUCKETS as f64;
        for &s in samples {
            let b = (((s - min) / width) as usize).min(HISTOGRAM_BUCKETS - 1);
            buckets[b] += 1;
        }
        Some(Histogram {
            min,
            max,
            buckets,
            total: samples.len() as u64,
        })
    }

    /// Estimated fraction of values `< x` (linear interpolation in-bucket).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if x <= self.min {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        let width = (self.max - self.min) / HISTOGRAM_BUCKETS as f64;
        let pos = (x - self.min) / width;
        let full = pos.floor() as usize;
        let frac = pos - full as f64;
        let mut count = 0.0;
        for b in 0..full.min(HISTOGRAM_BUCKETS) {
            count += self.buckets[b] as f64;
        }
        if full < HISTOGRAM_BUCKETS {
            count += self.buckets[full] as f64 * frac;
        }
        count / self.total as f64
    }

    /// Estimated selectivity of an equality with `x`.
    pub fn eq_selectivity(&self, x: f64, n_distinct: u64) -> f64 {
        if x < self.min || x > self.max {
            return 0.0;
        }
        1.0 / n_distinct.max(1) as f64
    }
}

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColStats {
    pub n_distinct: u64,
    pub null_fraction: f64,
    pub histogram: Option<Histogram>,
}

impl ColStats {
    /// Build from a sample that is the whole column.
    pub fn build(ty: DataType, samples: &[Value]) -> ColStats {
        let n = samples.len() as u64;
        ColStats::from_groups(ty, &[samples], n, n)
    }

    /// Build from a uniform sample of some of a table's row groups:
    /// `groups[g]` is the sample of the g-th group read, the groups read hold
    /// `rows_read` of the table's `n_rows` rows.
    ///
    /// The distinct count is the Haas–Stokes Duj1 estimate
    /// `d / (1 − (1 − n/N)·f1/n)` (`d` distinct values and `f1` singletons
    /// among `n` sampled values of a population of `N`), clamped to `[d, N]`.
    /// A column whose sampled groups share no values is a clustered key
    /// (`l_orderkey` in a table loaded in key order): the unread groups hold
    /// values of their own, so its estimate is made for the rows read and
    /// scaled to the table. Any other column is estimated against the whole
    /// table.
    pub fn from_groups(ty: DataType, groups: &[&[Value]], rows_read: u64, n_rows: u64) -> ColStats {
        // value → (occurrences, group first seen in, seen in a second group)
        let mut seen: HashMap<&Value, (u32, usize, bool)> = HashMap::new();
        let (mut sampled, mut nulls) = (0usize, 0usize);
        for (g, sample) in groups.iter().enumerate() {
            sampled += sample.len();
            for v in sample.iter() {
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                let e = seen.entry(v).or_insert((0, g, false));
                e.0 += 1;
                e.2 |= e.1 != g;
            }
        }
        let null_fraction = nulls as f64 / sampled.max(1) as f64;
        let n = (sampled - nulls) as f64;
        let d = seen.len() as f64;
        let f1 = seen.values().filter(|e| e.0 == 1).count() as f64;
        let shared = seen.values().filter(|e| e.2).count() as f64;
        let duj1 = |population: f64| {
            if n == 0.0 || population <= 0.0 {
                return d;
            }
            let unseen = (1.0 - n / population).max(0.0) * f1 / n;
            (d / (1.0 - unseen)).clamp(d, population.max(d))
        };
        let non_null = |rows: u64| rows as f64 * (1.0 - null_fraction);
        let clustered = groups.len() > 1 && rows_read < n_rows && shared * 100.0 <= d;
        let estimate = if clustered {
            duj1(non_null(rows_read)) * n_rows as f64 / rows_read.max(1) as f64
        } else {
            duj1(non_null(n_rows))
        };
        let estimate = estimate.clamp(d, non_null(n_rows).max(d));
        let histogram = if ty.is_numeric() || ty == DataType::Date {
            let numeric: Vec<f64> = groups
                .iter()
                .flat_map(|s| s.iter())
                .filter_map(|v| v.as_f64().or_else(|| v.as_i64().map(|x| x as f64)))
                .collect();
            Histogram::build(&numeric)
        } else {
            None
        };
        ColStats {
            n_distinct: (estimate.round() as u64).max(1),
            null_fraction,
            histogram,
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub n_rows: u64,
    pub cols: Vec<ColStats>,
}

impl TableStats {
    /// Build from per-column samples of some row groups: `samples[c][g]` is
    /// column `c`'s sample of the g-th group read; see
    /// [`ColStats::from_groups`].
    pub fn build(
        n_rows: u64,
        rows_read: u64,
        types: &[DataType],
        samples: &[Vec<Vec<Value>>],
    ) -> TableStats {
        TableStats {
            n_rows,
            cols: types
                .iter()
                .zip(samples)
                .map(|(t, groups)| {
                    let groups: Vec<&[Value]> = groups.iter().map(Vec::as_slice).collect();
                    ColStats::from_groups(*t, &groups, rows_read, n_rows)
                })
                .collect(),
        }
    }

    /// A stats object with no information (uniform guesses everywhere).
    pub fn unknown(n_rows: u64, n_cols: usize) -> TableStats {
        TableStats {
            n_rows,
            cols: vec![
                ColStats {
                    n_distinct: (n_rows / 10).max(1),
                    null_fraction: 0.0,
                    histogram: None,
                };
                n_cols
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_fractions() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(&samples).unwrap();
        assert!((h.fraction_below(500.0) - 0.5).abs() < 0.05);
        assert_eq!(h.fraction_below(-10.0), 0.0);
        assert_eq!(h.fraction_below(2000.0), 1.0);
        assert!((h.fraction_below(250.0) - 0.25).abs() < 0.05);
        // skewed data
        let skew: Vec<f64> = (0..1000)
            .map(|i| if i < 900 { 1.0 } else { 100.0 })
            .collect();
        let hs = Histogram::build(&skew).unwrap();
        assert!(hs.fraction_below(50.0) > 0.85);
    }

    #[test]
    fn histogram_degenerate() {
        assert!(Histogram::build(&[]).is_none());
        assert!(Histogram::build(&[1.0]).is_none());
        assert!(Histogram::build(&[2.0, 2.0]).is_none());
        assert!(Histogram::build(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn col_stats() {
        let vals: Vec<Value> = (0..100)
            .map(|i| {
                if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::I64(i % 7)
                }
            })
            .collect();
        let s = ColStats::build(DataType::I64, &vals);
        assert_eq!(s.n_distinct, 7); // i % 7 ∈ {0..6}, all present among non-nulls
        assert!((s.null_fraction - 0.1).abs() < 1e-9);
        assert!(s.histogram.is_some());
        let strs: Vec<Value> = (0..10).map(|i| Value::Str(format!("s{}", i % 3))).collect();
        let s2 = ColStats::build(DataType::Str, &strs);
        assert_eq!(s2.n_distinct, 3);
        assert!(s2.histogram.is_none());
    }

    #[test]
    fn eq_selectivity_ranges() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = Histogram::build(&samples).unwrap();
        assert_eq!(h.eq_selectivity(200.0, 100), 0.0);
        assert!((h.eq_selectivity(50.0, 100) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn unknown_stats() {
        let s = TableStats::unknown(1000, 3);
        assert_eq!(s.cols.len(), 3);
        assert_eq!(s.n_rows, 1000);
        assert_eq!(s.cols[0].n_distinct, 100);
    }

    #[test]
    fn duj1_sees_a_unique_column_through_a_small_sample() {
        // 1 000 sampled values of a 100 000-row key: all singletons.
        let vals: Vec<Value> = (0..1000).map(|i| Value::I64(i * 97)).collect();
        let s = ColStats::from_groups(DataType::I64, &[&vals], 100_000, 100_000);
        assert_eq!(s.n_distinct, 100_000);
        // Every value seen again and again: the domain was all sampled.
        let vals: Vec<Value> = (0..4096).map(|i| Value::I64(i % 50)).collect();
        let s = ColStats::from_groups(DataType::I64, &[&vals], 1_000_000, 1_000_000);
        assert_eq!(s.n_distinct, 50);
    }

    #[test]
    fn clustered_key_scales_to_the_groups_not_read() {
        // Four groups of 4 000 rows, 1 000 values four times each; groups 0
        // and 2 are read in full. They share no values, so the unread two
        // hold as many again.
        let group =
            |g: i64| -> Vec<Value> { (0..4000).map(|i| Value::I64(g * 1000 + i / 4)).collect() };
        let (g0, g2) = (group(0), group(2));
        let s = ColStats::from_groups(DataType::I64, &[&g0, &g2], 8000, 16_000);
        assert_eq!(s.n_distinct, 4000);
        // The same values in every group: what was read is all there is.
        let g2 = group(0);
        let s = ColStats::from_groups(DataType::I64, &[&g0, &g2], 8000, 16_000);
        assert_eq!(s.n_distinct, 1000);
    }
}
