//! CNF formula types: variables, literals and clause collections.
//!
//! Variables are dense `u32` indices; a [`Lit`] packs a variable and a
//! sign into one word (`var << 1 | negated`), the layout every modern
//! SAT solver uses so that a literal indexes watch lists directly.

use std::fmt;
use std::ops::Not;

/// A propositional variable (0-based dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal asserting this variable equals `value`.
    pub fn lit(self, value: bool) -> Lit {
        if value {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the negated polarity.
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index usable for watch lists (`2 * var + sign`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The value this literal asserts for its variable.
    pub fn asserts(self) -> bool {
        !self.is_negative()
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "!{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

/// A CNF formula under construction (used by the Tseitin encoder before
/// the clauses are loaded into a [`Solver`](crate::Solver)).
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Append a clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: impl Into<Vec<Lit>>) {
        self.clauses.push(lits.into());
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Evaluate the formula under a complete assignment (for testing and
    /// certificate validation).
    pub fn eval(&self, model: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var().index()] == l.asserts()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_roundtrip() {
        let v = Var::from_index(17);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(!v.positive().is_negative());
        assert!(v.negative().is_negative());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
        assert_eq!(v.positive().index() / 2, v.index());
    }

    #[test]
    fn cnf_eval() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(vec![a.positive(), b.positive()]);
        cnf.add_clause(vec![a.negative(), b.negative()]);
        assert!(cnf.eval(&[true, false]));
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[false, false]));
        assert!(!cnf.eval(&[true, true]));
    }
}
