//! Window and percentile maths.
//!
//! A run is cut into windows of a fixed operation count. Every timing metric
//! is one window's statistic (a median, a tail percentile, a rate), taken at
//! the median over the windows. On the 2-core sandbox the same pure-CPU loop
//! runs at one of a few speeds that hold for seconds to a minute: at times
//! mostly 1.3 times its fastest with rare fast spells, at other times mostly
//! its fastest with slow spells of 2 to 6 s, and bursts 1.6 to 2.2 times
//! slower. Over recorded traces of that loop a median over windows moved
//! least between runs; a minimum or fast quartile chases the fast spells, a
//! mean follows every burst.

/// Percentile of an ascending slice, interpolated linearly between the two
/// nearest ranks: a window of 18 queries or 5 cycles then has no rank at which
/// the value jumps from one sample to its neighbour.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    Some(percentile(values, 0.5))
}

/// Median over the non-empty windows of each window's `q` percentile.
pub fn over_windows<'a>(windows: impl Iterator<Item = &'a mut Vec<f64>>, q: f64) -> Option<f64> {
    let mut per_window: Vec<f64> = windows
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_by(|a, b| a.total_cmp(b));
            percentile(w, q)
        })
        .collect();
    median(&mut per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert!((percentile(&v, 0.99) - 10.9).abs() < 1e-9);
        let cycles = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((percentile(&cycles, 0.8) - 42.0).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_takes_the_midpoint_of_an_even_count() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn a_minority_of_windows_at_another_speed_does_not_move_the_result() {
        let mut windows = vec![vec![10.0, 11.0, 12.0]; 6];
        windows.extend(vec![vec![20.0, 22.0, 24.0]; 3]); // a burst of interference
        windows.extend(vec![vec![7.0, 8.0, 9.0]; 2]); // a rare quiet spell
        windows.push(Vec::new()); // a class with no sample in this window
        assert_eq!(over_windows(windows.iter_mut(), 0.5), Some(11.0));
        assert_eq!(over_windows(windows.iter_mut(), 1.0), Some(12.0));
        assert_eq!(over_windows([Vec::new()].iter_mut(), 0.5), None);
    }
}
