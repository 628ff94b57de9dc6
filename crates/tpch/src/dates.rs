//! Calendar dates for TPC-H, stored as days since 1992-01-01.
//!
//! TPC-H's data window is [1992-01-01, 1998-12-31]; a compact day
//! offset keeps tuples small and comparisons cheap while remaining
//! convertible to and from `y-m-d` for display and predicates.

/// A date as a day offset from 1992-01-01 (the TPC-H epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Date(pub i32);

const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// True for leap years in the TPC-H window (1992, 1996 — the Gregorian
/// century rules don't bite between 1992 and 1998, but implement them
/// anyway for correctness outside the window).
pub(crate) fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_year(year: i32) -> i32 {
    if is_leap(year) {
        366
    } else {
        365
    }
}

fn days_in_month(year: i32, month: u32) -> i32 {
    let m = DAYS_IN_MONTH[(month - 1) as usize];
    if month == 2 && is_leap(year) {
        m + 1
    } else {
        m
    }
}

impl Date {
    /// TPC-H epoch: 1992-01-01.
    pub(crate) const EPOCH_YEAR: i32 = 1992;

    /// Build a date from year/month/day. Panics on invalid components.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "bad month {month}");
        assert!(
            day >= 1 && (day as i32) <= days_in_month(year, month),
            "bad day {year}-{month}-{day}"
        );
        let mut days: i32 = 0;
        if year >= Self::EPOCH_YEAR {
            for y in Self::EPOCH_YEAR..year {
                days += days_in_year(y);
            }
        } else {
            for y in year..Self::EPOCH_YEAR {
                days -= days_in_year(y);
            }
        }
        for m in 1..month {
            days += days_in_month(year, m);
        }
        Date(days + day as i32 - 1)
    }

    /// Decompose into (year, month, day).
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let mut days = self.0;
        let mut year = Self::EPOCH_YEAR;
        while days < 0 {
            year -= 1;
            days += days_in_year(year);
        }
        while days >= days_in_year(year) {
            days -= days_in_year(year);
            year += 1;
        }
        let mut month = 1u32;
        while days >= days_in_month(year, month) {
            days -= days_in_month(year, month);
            month += 1;
        }
        (year, month, days as u32 + 1)
    }

    /// Add a number of days (may be negative).
    pub fn plus_days(self, d: i32) -> Self {
        Date(self.0 + d)
    }

    /// First day of the given year.
    pub fn year_start(year: i32) -> Self {
        Self::from_ymd(year, 1, 1)
    }

    /// `self` formatted as `YYYY-MM-DD`.
    pub fn iso(self) -> String {
        let (y, m, d) = self.to_ymd();
        format!("{y:04}-{m:02}-{d:02}")
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.iso())
    }
}

/// TPC-H data window start.
pub(crate) fn start_date() -> Date {
    Date::from_ymd(1992, 1, 1)
}

/// TPC-H data window end (inclusive).
pub(crate) fn end_date() -> Date {
    Date::from_ymd(1998, 12, 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1992, 1, 1).0, 0);
    }

    #[test]
    fn leap_years() {
        assert!(is_leap(1992));
        assert!(is_leap(1996));
        assert!(!is_leap(1993));
        assert!(!is_leap(1900));
        assert!(is_leap(2000));
    }

    #[test]
    fn roundtrip_every_day_in_window() {
        let start = start_date().0;
        let end = end_date().0;
        for d in start..=end {
            let date = Date(d);
            let (y, m, dd) = date.to_ymd();
            assert_eq!(Date::from_ymd(y, m, dd), date);
        }
    }

    #[test]
    fn window_length() {
        // 1992..=1998 = 2 leap + 5 normal years.
        assert_eq!(end_date().0 - start_date().0 + 1, 2 * 366 + 5 * 365);
    }

    #[test]
    fn ordering_matches_calendar() {
        assert!(Date::from_ymd(1994, 1, 1) < Date::from_ymd(1995, 1, 1));
        assert!(Date::from_ymd(1994, 6, 2) > Date::from_ymd(1994, 6, 1));
    }

    #[test]
    fn iso_format() {
        assert_eq!(Date::from_ymd(1995, 3, 7).iso(), "1995-03-07");
    }

    #[test]
    fn feb_29_in_leap_year() {
        let d = Date::from_ymd(1996, 2, 29);
        assert_eq!(d.to_ymd(), (1996, 2, 29));
        assert_eq!(d.plus_days(1).to_ymd(), (1996, 3, 1));
    }

    #[test]
    #[should_panic]
    fn feb_29_in_common_year_rejected() {
        let _ = Date::from_ymd(1993, 2, 29);
    }

    #[test]
    fn dates_before_epoch() {
        let d = Date::from_ymd(1991, 12, 31);
        assert_eq!(d.0, -1);
        assert_eq!(d.to_ymd(), (1991, 12, 31));
    }
}
