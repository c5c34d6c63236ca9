//! Civil date/time math on timestamps stored as microseconds since the Unix
//! epoch. Uses Howard Hinnant's `days_from_civil` algorithm, the same one
//! modern date libraries build on.

pub const MICROS_PER_SEC: i64 = 1_000_000;
pub const MICROS_PER_DAY: i64 = 86_400 * MICROS_PER_SEC;

/// Days since 1970-01-01 for a civil (proleptic Gregorian) date.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date (year, month, day) from days since 1970-01-01.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Parse `YYYY-MM-DD[ HH:MM:SS]` into epoch microseconds.
pub fn parse_timestamp(text: &str) -> Option<i64> {
    let text = text.trim();
    let (date_part, time_part) = match text.split_once([' ', 'T']) {
        Some((d, t)) => (d, Some(t)),
        None => (text, None),
    };
    let mut it = date_part.split('-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let mut micros = days_from_civil(y, m, d) * MICROS_PER_DAY;
    if let Some(t) = time_part {
        let t = t.trim_end_matches(['Z', 'z']);
        let (hms, frac) = match t.split_once('.') {
            Some((a, b)) => (a, Some(b)),
            None => (t, None),
        };
        let mut it = hms.split(':');
        let h: i64 = it.next()?.parse().ok()?;
        let mi: i64 = it.next().unwrap_or("0").parse().ok()?;
        let s: i64 = it.next().unwrap_or("0").parse().ok()?;
        if h > 23 || mi > 59 || s > 60 {
            return None;
        }
        micros += ((h * 60 + mi) * 60 + s) * MICROS_PER_SEC;
        if let Some(fr) = frac {
            let digits: String = fr.chars().take(6).collect();
            let n: i64 = digits.parse().ok()?;
            micros += n * 10_i64.pow(6 - digits.len() as u32);
        }
    }
    Some(micros)
}

/// Format epoch microseconds as `YYYY-MM-DD HH:MM:SS` (date-only when midnight).
pub fn format_timestamp(micros: i64) -> String {
    let days = micros.div_euclid(MICROS_PER_DAY);
    let tod = micros.rem_euclid(MICROS_PER_DAY);
    let (y, m, d) = civil_from_days(days);
    if tod == 0 {
        format!("{y:04}-{m:02}-{d:02}")
    } else {
        let secs = tod / MICROS_PER_SEC;
        let (h, rem) = (secs / 3600, secs % 3600);
        format!("{y:04}-{m:02}-{d:02} {h:02}:{:02}:{:02}", rem / 60, rem % 60)
    }
}

/// Truncate to the start of `field` ("day", "month", "year", "hour", "minute").
pub fn date_trunc(field: &str, micros: i64) -> Option<i64> {
    let days = micros.div_euclid(MICROS_PER_DAY);
    let tod = micros.rem_euclid(MICROS_PER_DAY);
    Some(match field {
        "day" => days * MICROS_PER_DAY,
        "hour" => days * MICROS_PER_DAY + tod / (3600 * MICROS_PER_SEC) * 3600 * MICROS_PER_SEC,
        "minute" => days * MICROS_PER_DAY + tod / (60 * MICROS_PER_SEC) * 60 * MICROS_PER_SEC,
        "month" => {
            let (y, m, _) = civil_from_days(days);
            days_from_civil(y, m, 1) * MICROS_PER_DAY
        }
        "year" => {
            let (y, _, _) = civil_from_days(days);
            days_from_civil(y, 1, 1) * MICROS_PER_DAY
        }
        _ => return None,
    })
}

/// `extract(field from ts)` for year/month/day/hour/dow/epoch.
pub fn extract(field: &str, micros: i64) -> Option<f64> {
    let days = micros.div_euclid(MICROS_PER_DAY);
    let tod = micros.rem_euclid(MICROS_PER_DAY);
    let (y, m, d) = civil_from_days(days);
    Some(match field {
        "year" => y as f64,
        "month" => m as f64,
        "day" => d as f64,
        "hour" => (tod / (3600 * MICROS_PER_SEC)) as f64,
        "minute" => (tod / (60 * MICROS_PER_SEC) % 60) as f64,
        "dow" => (days + 4).rem_euclid(7) as f64, // 1970-01-01 was a Thursday
        "epoch" => micros as f64 / MICROS_PER_SEC as f64,
        _ => return None,
    })
}

/// Add whole months, clamping the day (Jan 31 + 1 month = Feb 28/29).
pub fn add_months(micros: i64, months: i64) -> i64 {
    let days = micros.div_euclid(MICROS_PER_DAY);
    let tod = micros.rem_euclid(MICROS_PER_DAY);
    let (y, m, d) = civil_from_days(days);
    let total = y * 12 + (m as i64 - 1) + months;
    let (ny, nm) = (total.div_euclid(12), total.rem_euclid(12) as u32 + 1);
    let nd = d.min(days_in_month(ny, nm));
    days_from_civil(ny, nm, nd) * MICROS_PER_DAY + tod
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        _ => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip() {
        for &(y, m, d) in
            &[(1970, 1, 1), (2000, 2, 29), (2020, 1, 31), (1969, 12, 31), (2400, 2, 29)]
        {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
    }

    #[test]
    fn parse_and_format() {
        let t = parse_timestamp("2020-01-15 12:30:45").unwrap();
        assert_eq!(format_timestamp(t), "2020-01-15 12:30:45");
        let d = parse_timestamp("1994-06-01").unwrap();
        assert_eq!(format_timestamp(d), "1994-06-01");
        assert_eq!(parse_timestamp("2020-01-15T08:00:00Z").map(format_timestamp).unwrap(), "2020-01-15 08:00:00");
        assert!(parse_timestamp("not a date").is_none());
        assert!(parse_timestamp("2020-13-01").is_none());
    }

    #[test]
    fn fractional_seconds() {
        let a = parse_timestamp("2020-01-01 00:00:00.5").unwrap();
        let b = parse_timestamp("2020-01-01 00:00:00").unwrap();
        assert_eq!(a - b, 500_000);
    }

    #[test]
    fn trunc_and_extract() {
        let t = parse_timestamp("2020-03-15 13:45:12").unwrap();
        assert_eq!(format_timestamp(date_trunc("day", t).unwrap()), "2020-03-15");
        assert_eq!(format_timestamp(date_trunc("month", t).unwrap()), "2020-03-01");
        assert_eq!(format_timestamp(date_trunc("year", t).unwrap()), "2020-01-01");
        assert_eq!(extract("year", t), Some(2020.0));
        assert_eq!(extract("month", t), Some(3.0));
        assert_eq!(extract("day", t), Some(15.0));
        assert_eq!(extract("hour", t), Some(13.0));
    }

    #[test]
    fn month_arithmetic_clamps() {
        let jan31 = parse_timestamp("2021-01-31").unwrap();
        assert_eq!(format_timestamp(add_months(jan31, 1)), "2021-02-28");
        assert_eq!(format_timestamp(add_months(jan31, -2)), "2020-11-30");
        let d = parse_timestamp("1994-01-01").unwrap();
        assert_eq!(format_timestamp(add_months(d, 12)), "1995-01-01");
    }

    #[test]
    fn negative_micros_before_epoch() {
        let t = parse_timestamp("1969-12-31 23:00:00").unwrap();
        assert!(t < 0);
        assert_eq!(format_timestamp(t), "1969-12-31 23:00:00");
    }
}
