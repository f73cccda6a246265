//! The [`Method`] trait and the registry of built-in flows.

use crate::flows;
use crate::scheduler::PreparedCase;
use mrtpl_core::MrTplConfig;
use tpl_dac12::Dac12Config;
use tpl_decompose::DecomposeConfig;
use tpl_drcu::DrCuConfig;
use tpl_metrics::CaseRecord;

/// A routing/decomposition flow the harness can schedule.
///
/// A method turns one benchmark case into one [`CaseRecord`]: it takes the
/// case's design and route guides from the scheduler's shared
/// [`PreparedCase`] (prepared once per case, however many methods run on
/// it), runs its flow and scores the result.  Methods must be [`Sync`]
/// because the scheduler shares them across worker threads, and `run` must
/// be a pure function of the case so results do not depend on scheduling
/// order.
pub trait Method: Sync {
    /// Registry name, e.g. `"mrtpl"`.
    fn name(&self) -> &'static str;

    /// One-line human description for `--list-methods`.
    fn description(&self) -> &'static str;

    /// Runs the flow on one case and returns its evaluation record.
    fn run(&self, case: &PreparedCase) -> CaseRecord;
}

/// Mr.TPL itself (the paper's contribution), from `mrtpl-core`.
#[derive(Debug, Default)]
pub struct MrTplMethod;

impl Method for MrTplMethod {
    fn name(&self) -> &'static str {
        "mrtpl"
    }

    fn description(&self) -> &'static str {
        "Mr.TPL multi-pin TPL-aware detailed router (the paper's method)"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let prepared = case.get();
        let (design, guides, prep_outcome) = &*prepared;
        let mut record =
            flows::run_mrtpl(design, guides, &MrTplConfig::default(), &case.budget()).0;
        record.outcome = record.outcome.merge(*prep_outcome);
        record
    }
}

/// The DAC'12 vertex-splitting TPL-aware routing baseline, from `tpl-dac12`.
#[derive(Debug, Default)]
pub struct Dac12Method;

impl Method for Dac12Method {
    fn name(&self) -> &'static str {
        "dac12"
    }

    fn description(&self) -> &'static str {
        "DAC'12 vertex-splitting TPL-aware routing baseline"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let prepared = case.get();
        let (design, guides, prep_outcome) = &*prepared;
        let mut record =
            flows::run_dac12(design, guides, &Dac12Config::default(), &case.budget()).0;
        record.outcome = record.outcome.merge(*prep_outcome);
        record
    }
}

/// The colour-blind Dr.CU-like detailed router alone, from `tpl-drcu`.
#[derive(Debug, Default)]
pub struct DrCuMethod;

impl Method for DrCuMethod {
    fn name(&self) -> &'static str {
        "drcu"
    }

    fn description(&self) -> &'static str {
        "colour-blind Dr.CU-like router (no colouring; conflict/stitch columns n/a)"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let prepared = case.get();
        let (design, guides, prep_outcome) = &*prepared;
        let mut record = flows::run_drcu(design, guides, &DrCuConfig::default(), &case.budget()).0;
        record.outcome = record.outcome.merge(*prep_outcome);
        record
    }
}

/// Route colour-blind, then decompose OpenMPL-style (`tpl-drcu` +
/// `tpl-decompose`).
#[derive(Debug, Default)]
pub struct DecomposeMethod;

impl Method for DecomposeMethod {
    fn name(&self) -> &'static str {
        "decompose"
    }

    fn description(&self) -> &'static str {
        "Dr.CU-like routing followed by OpenMPL-style layout decomposition"
    }

    fn run(&self, case: &PreparedCase) -> CaseRecord {
        let prepared = case.get();
        let (design, guides, prep_outcome) = &*prepared;
        let mut record = flows::run_decompose(
            design,
            guides,
            &DrCuConfig::default(),
            &DecomposeConfig::default(),
            &case.budget(),
        )
        .0;
        record.outcome = record.outcome.merge(*prep_outcome);
        record
    }
}

/// The four flows the paper evaluates, looked up by the CLI's `--methods`
/// flag.
pub struct MethodRegistry {
    methods: [&'static dyn Method; 4],
}

impl MethodRegistry {
    /// The four flows with default configurations: `mrtpl`, `dac12`,
    /// `drcu`, `decompose`.
    pub fn builtin() -> Self {
        MethodRegistry {
            methods: [&MrTplMethod, &Dac12Method, &DrCuMethod, &DecomposeMethod],
        }
    }

    /// The method names, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.methods.iter().map(|m| m.name()).collect()
    }

    /// Looks a method up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Method> {
        self.methods.iter().copied().find(|m| m.name() == name)
    }

    /// Iterates over the methods, in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Method> {
        self.methods.iter().copied()
    }

    /// Resolves a comma-separated `--methods` specification into methods, in
    /// the order given.  Unknown and repeated names are errors: a duplicate
    /// would double-count totals and emit duplicate keys in the JSON report.
    pub fn select(&self, spec: &str) -> Result<Vec<&dyn Method>, String> {
        let mut selected: Vec<&dyn Method> = Vec::new();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if selected.iter().any(|m| m.name() == name) {
                return Err(format!("method `{name}` selected twice"));
            }
            match self.get(name) {
                Some(m) => selected.push(m),
                None => {
                    return Err(format!(
                        "unknown method `{name}`; available: {}",
                        self.names().join(", ")
                    ))
                }
            }
        }
        if selected.is_empty() {
            return Err("no methods selected".to_string());
        }
        Ok(selected)
    }
}

impl Default for MethodRegistry {
    fn default() -> Self {
        MethodRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_all_four_flows() {
        let registry = MethodRegistry::builtin();
        assert_eq!(
            registry.names(),
            vec!["mrtpl", "dac12", "drcu", "decompose"]
        );
        for name in registry.names() {
            assert!(registry.get(name).is_some());
            assert!(!registry.get(name).unwrap().description().is_empty());
        }
    }

    #[test]
    fn select_preserves_request_order_and_rejects_unknown() {
        let registry = MethodRegistry::builtin();
        let picked = registry.select("dac12, mrtpl").unwrap();
        assert_eq!(picked[0].name(), "dac12");
        assert_eq!(picked[1].name(), "mrtpl");
        let err = registry.select("nope").err().expect("unknown method");
        assert!(err.contains("mrtpl"));
        assert!(registry.select("").err().is_some());
        let err = registry.select("mrtpl,mrtpl").err().expect("duplicate");
        assert!(err.contains("twice"));
    }

    #[test]
    fn methods_run_a_tiny_case() {
        // Through the scheduler (the only constructor of PreparedCase), all
        // four flows on one tiny case, sharing its preparation.
        let case = tpl_ispd::Case::synthetic(tpl_ispd::CaseParams::ispd18_like(1).scaled(0.2));
        let registry = MethodRegistry::builtin();
        let methods: Vec<&dyn Method> = registry.iter().collect();
        let records = crate::run_matrix(
            &methods,
            std::slice::from_ref(&case),
            &crate::RunOptions::default(),
        );
        assert_eq!(records.len(), 4);
        for (record, method) in records.iter().zip(registry.iter()) {
            assert_eq!(record.method, method.name());
            let r = record.record().expect("flow succeeded");
            assert_eq!(r.case, case.name(), "method {}", method.name());
            assert!(r.runtime_seconds >= 0.0);
        }
    }
}
