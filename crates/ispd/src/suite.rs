//! Convenience constructors for whole benchmark suites.

use crate::{Case, CaseParams};

/// The two synthetic benchmark suites the paper's tables run over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The ISPD-2018-like suite (Table II).
    Ispd18,
    /// The ISPD-2019-like suite (Table III).
    Ispd19,
}

impl Suite {
    /// Parses a suite name as used by CLI flags (`ispd18` / `ispd19`).
    pub fn parse(name: &str) -> Option<Suite> {
        match name {
            "ispd18" => Some(Suite::Ispd18),
            "ispd19" => Some(Suite::Ispd19),
            _ => None,
        }
    }

    /// The canonical CLI/report name of the suite.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Ispd18 => "ispd18",
            Suite::Ispd19 => "ispd19",
        }
    }

    /// Parameters of case `idx` (1..=10) of this suite.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not in `1..=10`.
    pub fn case(self, idx: usize) -> CaseParams {
        match self {
            Suite::Ispd18 => CaseParams::ispd18_like(idx),
            Suite::Ispd19 => CaseParams::ispd19_like(idx),
        }
    }
}

/// The ten ISPD-2018-like cases, in order (`test1` .. `test10`).
pub fn ispd18_suite() -> Vec<CaseParams> {
    (1..=10).map(CaseParams::ispd18_like).collect()
}

/// The ten ISPD-2019-like cases, in order (`test1` .. `test10`).
pub fn ispd19_suite() -> Vec<CaseParams> {
    (1..=10).map(CaseParams::ispd19_like).collect()
}

/// Builds the ready-to-run case list of one suite run: picks the requested
/// case indices (all ten when `indices` is empty) and applies the scale
/// factor in one place.
///
/// A factor within `f64::EPSILON` of `1.0` leaves the cases untouched so
/// full-size runs keep their canonical, suffix-free names.  This is the one
/// spot that pairs [`CaseParams`] with a scale factor; CLI layers should not
/// re-implement the pairing.
///
/// # Panics
///
/// Panics if an index is not in `1..=10` or the scale factor is not positive.
pub fn run_suite(suite: Suite, indices: &[usize], scale: f64) -> Vec<Case> {
    let all: Vec<usize> = (1..=10).collect();
    let picked = if indices.is_empty() { &all } else { indices };
    picked
        .iter()
        .map(|&idx| {
            let params = suite.case(idx);
            Case::synthetic(if (scale - 1.0).abs() < f64::EPSILON {
                params
            } else {
                params.scaled(scale)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_ten_cases_each() {
        assert_eq!(ispd18_suite().len(), 10);
        assert_eq!(ispd19_suite().len(), 10);
    }

    #[test]
    fn case_names_are_unique() {
        let mut names: Vec<String> = ispd18_suite()
            .into_iter()
            .chain(ispd19_suite())
            .map(|c| c.name)
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn suite_parses_and_round_trips_names() {
        assert_eq!(Suite::parse("ispd18"), Some(Suite::Ispd18));
        assert_eq!(Suite::parse("ispd19"), Some(Suite::Ispd19));
        assert_eq!(Suite::parse("ispd20"), None);
        for suite in [Suite::Ispd18, Suite::Ispd19] {
            assert_eq!(Suite::parse(suite.name()), Some(suite));
        }
    }

    #[test]
    fn run_suite_defaults_to_all_ten_unscaled() {
        let cases = run_suite(Suite::Ispd18, &[], 1.0);
        let params: Vec<CaseParams> = cases.iter().map(|c| c.params().unwrap().clone()).collect();
        assert_eq!(params, ispd18_suite());
        assert!(cases.iter().all(|c| !c.name().contains("_x")));
    }

    #[test]
    fn run_suite_picks_indices_in_order_and_scales() {
        let cases = run_suite(Suite::Ispd19, &[4, 2], 0.5);
        assert_eq!(cases.len(), 2);
        assert_eq!(
            cases[0].params(),
            Some(&CaseParams::ispd19_like(4).scaled(0.5))
        );
        assert_eq!(
            cases[1].params(),
            Some(&CaseParams::ispd19_like(2).scaled(0.5))
        );
    }

    #[test]
    #[should_panic(expected = "1..=10")]
    fn run_suite_rejects_out_of_range_indices() {
        run_suite(Suite::Ispd18, &[11], 1.0);
    }
}
