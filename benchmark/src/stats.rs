//! Order statistics of a handful of timed repetitions.

/// Median, quartiles and range of one metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarises `values`. Quartiles are those of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), the rule the
/// benchmark's acceptance check applies to the medians this produces, so
/// both speak of the same spread.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarise");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    Summary {
        median: quartile(&v, 2),
        q1: quartile(&v, 1),
        q3: quartile(&v, 3),
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

/// The `i`-th quartile cut of sorted `v`: position `i · (n + 1) / 4`
/// (1-based), interpolated linearly between its neighbours and, as in
/// Python, extrapolated from the outermost pair when it falls outside them.
fn quartile(v: &[f64], i: i64) -> f64 {
    let n = v.len() as i64;
    if n == 1 {
        return v[0];
    }
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1) - j * 4) as f64;
    (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[5.0]).median, 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=7], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 7.0, 7));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn a_single_sample_is_its_own_summary() {
        let s = summarize(&[2.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.5, 2.5, 2.5, 1));
    }
}
