//! Order statistics the harness reports: percentiles, the five-slice
//! p99, the highest percentile a sample supports, and the quartile
//! spread the acceptance rule is written in.

/// Sorts a sample in place (latencies are finite by construction;
/// `total_cmp` keeps the sort total even if one were not).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of a **sorted** sample, `q` in `[0, 1]`.
/// An empty sample has no percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[idx])
}

/// Median of an unsorted sample (the mean of the middle two for an
/// even count, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// The tail percentile used for request latency: the window is cut into
/// `slices` equal time slices, each slice's p99 is taken, and the median
/// of those is reported. One scheduler hiccup then moves one slice, not
/// the metric. `samples` are `(seconds since window start, latency)`.
/// Slices with fewer than 100 samples have no p99 and are skipped; when
/// every slice is that thin (a smoke run), the whole window's p99 is
/// reported instead.
pub fn sliced_p99(samples: &[(f64, f64)], window_s: f64, slices: usize) -> Option<f64> {
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(at, latency) in samples {
        let i = ((at / window_s) * slices as f64) as usize;
        per_slice[i.min(slices - 1)].push(latency);
    }
    let p99s: Vec<f64> = per_slice
        .iter_mut()
        .filter(|s| s.len() >= 100)
        .filter_map(|s| {
            sort(s);
            percentile(s, 0.99)
        })
        .collect();
    median(&p99s).or_else(|| {
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        sort(&mut all);
        percentile(&all, 0.99)
    })
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, as `(q, value)`. Below 20 samples not even the
/// median has ten on each side; the median is what is reported then.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let q = [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| sorted.len() as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    percentile(sorted, q).map(|v| (q, v))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the acceptance rule
/// for this benchmark is stated in those terms. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(51.0)); // index round(49.5) = 50
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn sliced_p99_ignores_one_bad_slice() {
        // 5 slices of 200 samples at latency 10; slice 2 has a stall
        // that puts 5 % of its samples at 1000.
        let mut samples = Vec::new();
        for i in 0..1000 {
            let at = i as f64 / 100.0; // 10 s window
            let stalled = (400..600).contains(&i) && i % 20 == 0;
            samples.push((at, if stalled { 1000.0 } else { 10.0 }));
        }
        assert_eq!(sliced_p99(&samples, 10.0, 5), Some(10.0));
        // A whole-window p99 would have seen the stall.
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        sort(&mut all);
        assert_eq!(percentile(&all, 0.995), Some(1000.0));
        // A sample at exactly the window's end lands in the last slice.
        assert_eq!(sliced_p99(&[(10.0, 1.0)], 10.0, 5), Some(1.0));
        assert_eq!(sliced_p99(&[], 10.0, 5), None);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_tail(&v(0)), None);
        assert_eq!(supported_tail(&v(19)), Some((0.5, 9.0)));
        assert_eq!(supported_tail(&v(39)).map(|t| t.0), Some(0.5));
        assert_eq!(supported_tail(&v(40)).map(|t| t.0), Some(0.75));
        assert_eq!(supported_tail(&v(199)).map(|t| t.0), Some(0.9));
        assert_eq!(supported_tail(&v(200)).map(|t| t.0), Some(0.95));
        assert_eq!(supported_tail(&v(500)).map(|t| t.0), Some(0.95));
        assert_eq!(supported_tail(&v(1000)).map(|t| t.0), Some(0.99));
        assert_eq!(supported_tail(&v(10_000)).map(|t| t.0), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            Some((15.0, 120.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(spread(&v), Some(1.0));
    }
}
