//! Declarative strategy specifications.
//!
//! Experiment configurations need to name strategies in data (sweeps over
//! the `(A, C)` grid, JSON reports); [`StrategySpec`] is the plain-data
//! mirror of the concrete strategy types, buildable into a boxed
//! [`Strategy`] — which a [`DecisionTable`](crate::table::DecisionTable)
//! then compiles, so decisions call through the box only for balances the
//! table has no row for.

use crate::error::InvalidStrategyError;
use crate::strategies::{
    GeneralizedTokenAccount, PurelyProactive, PurelyReactive, RandomizedTokenAccount,
    SimpleTokenAccount,
};
use crate::strategy::Strategy;

/// A declarative strategy description.
///
/// ```
/// use token_account::spec::StrategySpec;
///
/// let spec = StrategySpec::Randomized { a: 10, c: 20 };
/// let strategy = spec.build()?;
/// assert_eq!(strategy.label(), "randomized(A=10,C=20)");
/// # Ok::<(), token_account::error::InvalidStrategyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategySpec {
    /// The purely proactive baseline.
    Proactive,
    /// The purely reactive reference with burst `k` (useful messages only).
    Reactive {
        /// Burst size per useful message.
        k: u64,
    },
    /// Simple token account with capacity `c`.
    Simple {
        /// Capacity `C`.
        c: u64,
    },
    /// Generalized token account.
    Generalized {
        /// Spend rate `A`.
        a: u64,
        /// Capacity `C`.
        c: u64,
    },
    /// Randomized token account.
    Randomized {
        /// Spend rate `A`.
        a: u64,
        /// Capacity `C`.
        c: u64,
    },
}

impl StrategySpec {
    /// Instantiates the concrete strategy.
    ///
    /// # Errors
    ///
    /// Propagates [`InvalidStrategyError`] from the constructors.
    pub fn build(self) -> Result<Box<dyn Strategy>, InvalidStrategyError> {
        Ok(match self {
            StrategySpec::Proactive => Box::new(PurelyProactive),
            StrategySpec::Reactive { k } => Box::new(PurelyReactive::if_useful(k)?),
            StrategySpec::Simple { c } => Box::new(SimpleTokenAccount::new(c)),
            StrategySpec::Generalized { a, c } => Box::new(GeneralizedTokenAccount::new(a, c)?),
            StrategySpec::Randomized { a, c } => Box::new(RandomizedTokenAccount::new(a, c)?),
        })
    }

    /// Label of the strategy this spec builds (stable even without
    /// building).
    pub fn label(self) -> String {
        match self {
            StrategySpec::Proactive => "proactive".into(),
            StrategySpec::Reactive { k } => format!("reactive(k={k},useful-only)"),
            StrategySpec::Simple { c } => format!("simple(C={c})"),
            StrategySpec::Generalized { a, c } => format!("generalized(A={a},C={c})"),
            StrategySpec::Randomized { a, c } => format!("randomized(A={a},C={c})"),
        }
    }

    /// The `(A, C)` parameters, where applicable.
    pub fn params(self) -> (Option<u64>, Option<u64>) {
        match self {
            StrategySpec::Proactive | StrategySpec::Reactive { .. } => (None, None),
            StrategySpec::Simple { c } => (None, Some(c)),
            StrategySpec::Generalized { a, c } | StrategySpec::Randomized { a, c } => {
                (Some(a), Some(c))
            }
        }
    }
}

/// Parses the command-line syntax of a spec: `proactive`,
/// `reactive:<k>`, `simple:<C>`, `generalized:<A>,<C>` or
/// `randomized:<A>,<C>`.
impl std::str::FromStr for StrategySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (name, params) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let nums = |want: usize| -> Result<Vec<u64>, String> {
            let p = params.ok_or_else(|| format!("strategy `{name}` needs {want} parameter(s)"))?;
            let vals: Result<Vec<u64>, _> = p.split(',').map(|v| v.trim().parse()).collect();
            let vals = vals.map_err(|_| format!("bad strategy parameters `{p}`"))?;
            if vals.len() != want {
                return Err(format!("strategy `{name}` needs {want} parameter(s)"));
            }
            Ok(vals)
        };
        match name {
            "proactive" => Ok(StrategySpec::Proactive),
            "reactive" => Ok(StrategySpec::Reactive { k: nums(1)?[0] }),
            "simple" => Ok(StrategySpec::Simple { c: nums(1)?[0] }),
            "generalized" => nums(2).map(|v| StrategySpec::Generalized { a: v[0], c: v[1] }),
            "randomized" => nums(2).map(|v| StrategySpec::Randomized { a: v[0], c: v[1] }),
            other => Err(format!("unknown strategy `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse() {
        let parse = |s: &str| s.parse::<StrategySpec>();
        assert_eq!(parse("proactive"), Ok(StrategySpec::Proactive));
        assert_eq!(parse("reactive:2"), Ok(StrategySpec::Reactive { k: 2 }));
        assert_eq!(parse("simple:10"), Ok(StrategySpec::Simple { c: 10 }));
        assert_eq!(
            parse("generalized:5,10"),
            Ok(StrategySpec::Generalized { a: 5, c: 10 })
        );
        assert_eq!(
            parse("randomized:5,10"),
            Ok(StrategySpec::Randomized { a: 5, c: 10 })
        );
        assert!(parse("bogus").is_err());
        assert!(parse("simple").is_err());
        assert!(parse("generalized:5").is_err());
    }

    #[test]
    fn builds_every_variant() {
        let specs = [
            StrategySpec::Proactive,
            StrategySpec::Reactive { k: 1 },
            StrategySpec::Simple { c: 10 },
            StrategySpec::Generalized { a: 5, c: 10 },
            StrategySpec::Randomized { a: 5, c: 10 },
        ];
        for spec in specs {
            let s = spec.build().unwrap();
            assert_eq!(s.label(), spec.label(), "label mismatch for {spec:?}");
        }
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(StrategySpec::Generalized { a: 0, c: 10 }.build().is_err());
        assert!(StrategySpec::Randomized { a: 11, c: 10 }.build().is_err());
        assert!(StrategySpec::Reactive { k: 0 }.build().is_err());
    }

    #[test]
    fn params_accessor() {
        assert_eq!(StrategySpec::Proactive.params(), (None, None));
        assert_eq!(StrategySpec::Simple { c: 7 }.params(), (None, Some(7)));
        assert_eq!(
            StrategySpec::Randomized { a: 2, c: 7 }.params(),
            (Some(2), Some(7))
        );
    }

    #[test]
    fn debug_names_the_variant() {
        let spec = StrategySpec::Generalized { a: 5, c: 20 };
        assert!(format!("{spec:?}").contains("Generalized"));
    }
}
