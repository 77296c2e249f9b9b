//! Virtual time for the simulation and analyses.
//!
//! The paper's collection window runs 2021-05-01 through 2022-06-30
//! (14 calendar months). We model time as minutes since the **epoch
//! 2021-01-01 00:00 UTC** — the premium feed interface in the paper is
//! polled every minute, so minute resolution is the natural grain.
//!
//! Civil-date conversion uses Howard Hinnant's `days_from_civil`
//! algorithm (public domain), exact over the whole proleptic Gregorian
//! calendar; we property-test the round trip.

use core::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Minutes in a day.
pub const MINUTES_PER_DAY: i64 = 24 * 60;

/// A point in virtual time: minutes since 2021-01-01 00:00 UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Timestamp(pub i64);

/// A span of virtual time in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Duration(pub i64);

impl Duration {
    /// A duration of `n` minutes.
    pub const fn minutes(n: i64) -> Self {
        Self(n)
    }

    /// A duration of `n` hours.
    pub const fn hours(n: i64) -> Self {
        Self(n * 60)
    }

    /// A duration of `n` days.
    pub const fn days(n: i64) -> Self {
        Self(n * MINUTES_PER_DAY)
    }

    /// Whole days in this duration (truncating).
    pub const fn as_days(self) -> i64 {
        self.0 / MINUTES_PER_DAY
    }

    /// Days as a float (fractional days preserved).
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MINUTES_PER_DAY as f64
    }

    /// Minutes in this duration.
    pub const fn as_minutes(self) -> i64 {
        self.0
    }

    /// Absolute value.
    pub const fn abs(self) -> Self {
        Self(self.0.abs())
    }
}

impl Timestamp {
    /// The epoch (2021-01-01 00:00).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Constructs a timestamp at 00:00 of the given civil date.
    pub fn from_date(date: Date) -> Self {
        Self(date.days_since_epoch() * MINUTES_PER_DAY)
    }

    /// Constructs a timestamp from a civil date plus minute-of-day.
    pub fn from_date_time(date: Date, minute_of_day: i64) -> Self {
        debug_assert!((0..MINUTES_PER_DAY).contains(&minute_of_day));
        Self(date.days_since_epoch() * MINUTES_PER_DAY + minute_of_day)
    }

    /// The civil date this timestamp falls on.
    pub fn date(self) -> Date {
        Date::from_days_since_epoch(self.0.div_euclid(MINUTES_PER_DAY))
    }

    /// Whole days since the epoch (floor).
    pub fn day_number(self) -> i64 {
        self.0.div_euclid(MINUTES_PER_DAY)
    }

    /// Minute within the day, 0..1440.
    pub fn minute_of_day(self) -> i64 {
        self.0.rem_euclid(MINUTES_PER_DAY)
    }

    /// The calendar month this timestamp falls in.
    pub fn month(self) -> Month {
        let d = self.date();
        Month {
            year: d.year,
            month: d.month,
        }
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        let m = self.minute_of_day();
        write!(f, "{} {:02}:{:02}", d, m / 60, m % 60)
    }
}

/// A civil (proleptic Gregorian) calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Date {
    /// Calendar year, e.g. 2021.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31.
    pub day: u8,
}

impl Date {
    /// Constructs a date, validating the day against the month length.
    ///
    /// # Panics
    /// Panics on out-of-range month or day.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day out of range: {year}-{month:02}-{day:02}"
        );
        Self { year, month, day }
    }

    /// Days since the 2021-01-01 epoch (negative before it).
    pub fn days_since_epoch(self) -> i64 {
        days_from_civil(self.year, self.month, self.day) - days_from_civil(2021, 1, 1)
    }

    /// Inverse of [`Date::days_since_epoch`].
    pub fn from_days_since_epoch(days: i64) -> Self {
        civil_from_days(days + days_from_civil(2021, 1, 1))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A calendar month (year + month), used for the monthly partitions of
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Month {
    /// Calendar year.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
}

impl Month {
    /// The paper's collection window start: May 2021.
    pub const COLLECTION_START: Month = Month {
        year: 2021,
        month: 5,
    };

    /// Number of months in the paper's collection window.
    pub const COLLECTION_LEN: usize = 14;

    /// The months of the collection window, in order
    /// (2021-05 ..= 2022-06).
    pub fn collection_window() -> impl Iterator<Item = Month> {
        (0..Self::COLLECTION_LEN).map(|i| Self::COLLECTION_START.plus(i))
    }

    /// The month `n` months after this one.
    pub fn plus(self, n: usize) -> Month {
        let zero = self.year as i64 * 12 + (self.month as i64 - 1) + n as i64;
        Month {
            year: zero.div_euclid(12) as i32,
            month: (zero.rem_euclid(12) + 1) as u8,
        }
    }

    /// Index of this month within the collection window, or `None` if it
    /// falls outside.
    pub fn collection_index(self) -> Option<usize> {
        let base =
            Self::COLLECTION_START.year as i64 * 12 + (Self::COLLECTION_START.month as i64 - 1);
        let this = self.year as i64 * 12 + (self.month as i64 - 1);
        let diff = this - base;
        (0..Self::COLLECTION_LEN as i64)
            .contains(&diff)
            .then_some(diff as usize)
    }

    /// Timestamp of the first minute of the month.
    pub fn start(self) -> Timestamp {
        Timestamp::from_date(Date::new(self.year, self.month, 1))
    }

    /// Timestamp of the first minute of the following month.
    pub fn end(self) -> Timestamp {
        self.plus(1).start()
    }

    /// Number of days in the month.
    pub fn days(self) -> u8 {
        days_in_month(self.year, self.month)
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}/{:04}", self.month, self.year)
    }
}

/// True for Gregorian leap years.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("invalid month {month}"),
    }
}

/// Hinnant's `days_from_civil`: days since 1970-01-01 for a civil date.
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Hinnant's `civil_from_days`: inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> Date {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    Date {
        year: (y + i64::from(m <= 2)) as i32,
        month: m,
        day: d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_2021_01_01() {
        assert_eq!(Date::new(2021, 1, 1).days_since_epoch(), 0);
        assert_eq!(Timestamp::EPOCH.date(), Date::new(2021, 1, 1));
    }

    #[test]
    fn known_day_offsets() {
        assert_eq!(Date::new(2021, 1, 2).days_since_epoch(), 1);
        assert_eq!(Date::new(2021, 2, 1).days_since_epoch(), 31);
        assert_eq!(Date::new(2021, 5, 1).days_since_epoch(), 120); // 31+28+31+30
        assert_eq!(Date::new(2022, 1, 1).days_since_epoch(), 365);
        assert_eq!(Date::new(2020, 12, 31).days_since_epoch(), -1);
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2020));
        assert!(!is_leap_year(2021));
        assert!(!is_leap_year(2100));
        assert!(is_leap_year(2000));
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2021, 2), 28);
    }

    #[test]
    fn timestamp_roundtrip_date() {
        let d = Date::new(2022, 6, 30);
        let t = Timestamp::from_date_time(d, 23 * 60 + 59);
        assert_eq!(t.date(), d);
        assert_eq!(t.minute_of_day(), 23 * 60 + 59);
    }

    #[test]
    fn collection_window_months() {
        let months: Vec<Month> = Month::collection_window().collect();
        assert_eq!(months.len(), 14);
        assert_eq!(
            months[0],
            Month {
                year: 2021,
                month: 5
            }
        );
        assert_eq!(
            months[7],
            Month {
                year: 2021,
                month: 12
            }
        );
        assert_eq!(
            months[8],
            Month {
                year: 2022,
                month: 1
            }
        );
        assert_eq!(
            months[13],
            Month {
                year: 2022,
                month: 6
            }
        );
        for (i, m) in months.iter().enumerate() {
            assert_eq!(m.collection_index(), Some(i));
        }
        assert_eq!(
            Month {
                year: 2021,
                month: 4
            }
            .collection_index(),
            None
        );
        assert_eq!(
            Month {
                year: 2022,
                month: 7
            }
            .collection_index(),
            None
        );
    }

    #[test]
    fn month_boundaries() {
        let may = Month {
            year: 2021,
            month: 5,
        };
        assert_eq!(may.start().date(), Date::new(2021, 5, 1));
        assert_eq!(may.end().date(), Date::new(2021, 6, 1));
        assert_eq!(may.days(), 31);
        // A timestamp one minute before the end is still in May.
        let t = may.end() - Duration::minutes(1);
        assert_eq!(t.month(), may);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::days(2) + Duration::hours(3);
        assert_eq!(d.as_minutes(), 2 * 1440 + 180);
        assert_eq!(d.as_days(), 2);
        assert!((d.as_days_f64() - 2.125).abs() < 1e-12);
        let t = Timestamp::EPOCH + Duration::days(10);
        assert_eq!((t - Timestamp::EPOCH).as_days(), 10);
        assert_eq!(Duration::minutes(-5).abs(), Duration::minutes(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Date::new(2021, 5, 9).to_string(), "2021-05-09");
        assert_eq!(
            Month {
                year: 2021,
                month: 5
            }
            .to_string(),
            "05/2021"
        );
        let t = Timestamp::from_date_time(Date::new(2021, 5, 9), 61);
        assert_eq!(t.to_string(), "2021-05-09 01:01");
    }

    proptest! {
        #[test]
        fn civil_roundtrip(days in -200_000i64..200_000) {
            let d = Date::from_days_since_epoch(days);
            prop_assert_eq!(d.days_since_epoch(), days);
            prop_assert!((1..=12).contains(&d.month));
            prop_assert!(d.day >= 1 && d.day <= days_in_month(d.year, d.month));
        }

        #[test]
        fn successive_days_are_consecutive(days in -10_000i64..10_000) {
            let a = Date::from_days_since_epoch(days);
            let b = Date::from_days_since_epoch(days + 1);
            prop_assert_eq!(b.days_since_epoch() - a.days_since_epoch(), 1);
        }

        #[test]
        fn month_plus_is_additive(n in 0usize..500, m in 0usize..500) {
            let base = Month { year: 2021, month: 5 };
            prop_assert_eq!(base.plus(n).plus(m), base.plus(n + m));
        }
    }
}
