//! Exact fixed-point money arithmetic.
//!
//! Slot prices and window costs are compared for strict inequality against a
//! user budget, so floating-point drift would make results depend on summation
//! order. [`Money`] stores milli-credits in an `i64`, giving three decimal
//! digits of precision and exact, order-independent sums.
//!
//! # Examples
//!
//! ```
//! use slotsel_core::money::Money;
//!
//! let price = Money::from_f64(2.5);
//! let cost = price * 150;
//! assert_eq!(cost, Money::from_f64(375.0));
//! assert!(cost <= Money::from_f64(1500.0));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of fixed-point sub-units per credit.
const MILLIS_PER_UNIT: i64 = 1_000;

/// An exact amount of currency ("credits") in the VO's economic model.
///
/// Internally a signed count of milli-credits. All arithmetic is exact;
/// conversions to and from `f64` exist only at the API boundary (environment
/// generation, reporting).
///
/// # Examples
///
/// ```
/// use slotsel_core::money::Money;
///
/// let a = Money::from_f64(1.25);
/// let b = Money::from_f64(0.75);
/// assert_eq!(a + b, Money::from_f64(2.0));
/// assert_eq!((a + b).as_f64(), 2.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Money(i64);

impl Money {
    /// No money.
    pub const ZERO: Money = Money(0);
    /// The largest representable amount. Useful as an "infinite budget"
    /// sentinel.
    pub const MAX: Money = Money(i64::MAX);

    /// Creates an amount from whole credits.
    #[must_use]
    pub const fn from_units(units: i64) -> Self {
        Money(units * MILLIS_PER_UNIT)
    }

    /// Creates an amount from a raw milli-credit count.
    #[must_use]
    pub const fn from_millis(millis: i64) -> Self {
        Money(millis)
    }

    /// Creates an amount from a floating-point credit value, rounding to the
    /// nearest milli-credit.
    ///
    /// # Panics
    ///
    /// Panics if `units` is not finite or overflows the representable range.
    #[must_use]
    pub fn from_f64(units: f64) -> Self {
        assert!(units.is_finite(), "money from non-finite value {units}");
        Self::checked_from_f64(units).unwrap_or_else(|| panic!("money value {units} overflows"))
    }

    /// [`from_f64`](Self::from_f64) for values from outside the program:
    /// `None` when `units` is not finite or its milli-credits overflow.
    #[must_use]
    pub fn checked_from_f64(units: f64) -> Option<Self> {
        let millis = (units * MILLIS_PER_UNIT as f64).round();
        (millis >= i64::MIN as f64 && millis <= i64::MAX as f64).then_some(Money(millis as i64))
    }

    /// Returns the amount as floating-point credits (for reporting only).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_UNIT as f64
    }

    /// Returns the raw milli-credit count.
    #[must_use]
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Returns `true` for amounts strictly greater than zero.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Returns `true` for amounts strictly less than zero.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Returns `true` for the zero amount.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Money) -> Option<Money> {
        self.0.checked_add(rhs.0).map(Money)
    }

    /// Saturating addition.
    #[must_use]
    pub fn saturating_add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }

    /// Multiplies by a non-negative scalar, saturating on overflow.
    #[must_use]
    pub fn saturating_mul(self, rhs: i64) -> Money {
        Money(self.0.saturating_mul(rhs))
    }

    /// Returns the smaller of two amounts.
    #[must_use]
    pub fn min_of(self, other: Money) -> Money {
        self.min(other)
    }

    /// Returns the larger of two amounts.
    #[must_use]
    pub fn max_of(self, other: Money) -> Money {
        self.max(other)
    }
}

impl Add for Money {
    type Output = Money;

    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;

    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;

    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<i64> for Money {
    type Output = Money;

    /// Scales the amount, e.g. `price_per_unit * length_in_ticks`.
    fn mul(self, rhs: i64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Div<i64> for Money {
    type Output = Money;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        Money(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let units = self.0 / MILLIS_PER_UNIT;
        let millis = (self.0 % MILLIS_PER_UNIT).abs();
        if millis == 0 {
            write!(f, "{units}")
        } else {
            let sign = if self.0 < 0 && units == 0 { "-" } else { "" };
            write!(f, "{sign}{units}.{millis:03}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_units_roundtrips() {
        assert_eq!(Money::from_units(5).as_f64(), 5.0);
        assert_eq!(Money::from_units(5).millis(), 5_000);
    }

    #[test]
    fn from_f64_rounds_to_milli() {
        assert_eq!(Money::from_f64(1.2345).millis(), 1_235);
        assert_eq!(Money::from_f64(-1.2345).millis(), -1_235);
        assert_eq!(Money::from_f64(0.0004).millis(), 0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn from_f64_rejects_nan() {
        let _ = Money::from_f64(f64::NAN);
    }

    #[test]
    fn checked_from_f64_refuses_what_does_not_fit() {
        assert_eq!(
            Money::checked_from_f64(2.5),
            Some(Money::from_millis(2_500))
        );
        for units in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300] {
            assert_eq!(Money::checked_from_f64(units), None, "{units}");
        }
    }

    #[test]
    fn arithmetic_is_exact() {
        // 0.1 + 0.2 == 0.3 exactly, unlike f64.
        assert_eq!(
            Money::from_f64(0.1) + Money::from_f64(0.2),
            Money::from_f64(0.3)
        );
    }

    #[test]
    fn scaling_by_length() {
        let price = Money::from_f64(2.5);
        assert_eq!(price * 4, Money::from_units(10));
        assert_eq!(Money::from_units(10) / 4, Money::from_f64(2.5));
    }

    #[test]
    fn ordering_matches_value() {
        assert!(Money::from_f64(1.001) > Money::from_units(1));
        assert!(Money::ZERO < Money::from_units(1));
        assert!((-Money::from_units(1)).is_negative());
    }

    #[test]
    fn sum_of_iterator() {
        let total: Money = (1..=4).map(Money::from_units).sum();
        assert_eq!(total, Money::from_units(10));
    }

    #[test]
    fn checked_and_saturating_ops() {
        assert_eq!(Money::MAX.checked_add(Money::from_millis(1)), None);
        assert_eq!(Money::MAX.saturating_add(Money::from_millis(1)), Money::MAX);
        assert_eq!(Money::MAX.saturating_mul(2), Money::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Money::from_units(7).to_string(), "7");
        assert_eq!(Money::from_f64(7.25).to_string(), "7.250");
        assert_eq!(Money::from_f64(-0.5).to_string(), "-0.500");
        assert_eq!(Money::from_f64(-1.5).to_string(), "-1.500");
    }

    #[test]
    fn min_max_helpers() {
        let a = Money::from_units(1);
        let b = Money::from_units(2);
        assert_eq!(a.min_of(b), a);
        assert_eq!(a.max_of(b), b);
    }
}
