//! Message usefulness.
//!
//! The reactive function `REACTIVE(a, u)` takes the *usefulness* `u` of the
//! received message: "some messages are more important than others in most
//! applications" (Section 3.1). The paper treats `u` as Boolean, and so
//! does this crate: a [`DecisionTable`](crate::table::DecisionTable) holds
//! one entry per value.

use std::fmt;

/// How useful a received message was to the application. The
/// discriminants index a [`Row`](crate::table::Row)'s reactive entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Usefulness {
    /// The message carried no new information (`u = 0`).
    NotUseful = 0,
    /// The message was useful (`u = 1`).
    Useful = 1,
}

impl Usefulness {
    /// Converts a Boolean usefulness.
    #[inline]
    pub fn from_bool(useful: bool) -> Self {
        if useful {
            Usefulness::Useful
        } else {
            Usefulness::NotUseful
        }
    }

    /// The numeric value `u ∈ {0, 1}`.
    #[inline]
    pub fn value(self) -> f64 {
        match self {
            Usefulness::NotUseful => 0.0,
            Usefulness::Useful => 1.0,
        }
    }
}

impl fmt::Display for Usefulness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Usefulness::NotUseful => write!(f, "not-useful"),
            Usefulness::Useful => write!(f, "useful"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_conversions() {
        assert_eq!(Usefulness::from_bool(true), Usefulness::Useful);
        assert_eq!(Usefulness::from_bool(false), Usefulness::NotUseful);
        assert_eq!(Usefulness::Useful.value(), 1.0);
        assert_eq!(Usefulness::NotUseful.value(), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Usefulness::Useful.to_string(), "useful");
        assert_eq!(Usefulness::NotUseful.to_string(), "not-useful");
    }
}
