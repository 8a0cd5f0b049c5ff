//! # harmony-analyze — static analysis for Resource Specification Language
//!
//! The paper's controller accepts whatever bundle an application registers
//! and only discovers broken specifications at match time, deep inside the
//! option-selection loop. This crate front-loads that discovery: it runs a
//! battery of static passes over parsed [`BundleSpec`]s and reports
//! [`Diagnostic`]s with stable `HAxxxx` codes, severities, and byte-span
//! labels that render rustc-style (see [`render()`]) or as JSON (see
//! [`to_json`]).
//!
//! Passes, in order:
//!
//! 1. **names** — duplicate options, dangling link endpoints, undeclared
//!    variables, empty/degenerate declarations (`HA0001`–`HA0006`,
//!    `HA0101`–`HA0105`);
//! 2. **types** — numeric tags must hold numbers, constant expressions must
//!    fold (`HA0011`, `HA0012`, `HA0113`);
//! 3. **reach** — exact interpretation over the cartesian product of the
//!    variable choice domains, proving freedom from division by zero and
//!    negative demands or producing a counterexample (`HA0020`, `HA0021`,
//!    `HA0106`);
//! 4. **perf** — piecewise-linear performance tables: duplicate knots,
//!    ordering, negative times (`HA0030`, `HA0031`, `HA0130`);
//! 5. **dominance** — options that can never be profitably selected
//!    (`HA0140`, `HA0141`);
//! 6. **namespace** — names must be valid `harmony-ns` path components and
//!    bundles must not collide in the namespace (`HA0050`–`HA0052`);
//! 7. **facts** — the abstract-interpretation engine ([`facts`]): interval
//!    bounds, monotonicity, dominance proofs, and interference partitions,
//!    surfacing provable problems as `HA0201`–`HA0203`.
//!
//! Entry points: [`analyze_bundle`] for one parsed bundle,
//! [`analyze_script`] for RSL source (which also catches cross-bundle
//! namespace collisions).

pub mod diag;
pub mod facts;
pub mod json;
pub mod passes;
pub mod render;
mod sites;

pub use diag::{has_errors, is_clean, Code, Diagnostic, Label, Severity};
pub use json::to_json;
pub use render::render;

use harmony_rsl::schema::{BundleSpec, Statement};

/// Runs every per-bundle pass over `bundle` and returns the diagnostics
/// sorted by source position, severity, then code.
pub fn analyze_bundle(bundle: &BundleSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(passes::names::check(bundle));
    out.extend(passes::types::check(bundle));
    out.extend(passes::reach::check(bundle));
    out.extend(passes::perf::check(bundle));
    out.extend(passes::dominance::check(bundle));
    out.extend(passes::namespace::check_bundle(bundle));
    out.extend(facts::check_bundle(bundle));
    diag::sort(&mut out);
    out
}

/// Parses `src` as an RSL script and analyzes every bundle it defines,
/// including cross-bundle namespace collisions.
///
/// Returns `Err` only when the script fails to parse at all; parseable
/// scripts with broken bundles come back as `Ok(diagnostics)`.
pub fn analyze_script(src: &str) -> harmony_rsl::Result<Vec<Diagnostic>> {
    let statements = harmony_rsl::schema::parse_statements(src)?;
    let bundles: Vec<&BundleSpec> = statements
        .iter()
        .filter_map(|s| match s {
            Statement::Bundle(b) => Some(b),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for b in &bundles {
        out.extend(analyze_bundle(b));
    }
    out.extend(passes::namespace::check_script(&bundles));
    diag::sort(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_listings_are_diagnostic_free() {
        for src in [
            harmony_rsl::listings::FIG2A_SIMPLE,
            harmony_rsl::listings::FIG2B_BAG,
            harmony_rsl::listings::FIG3_DBCLIENT,
        ] {
            let diags = analyze_script(src).unwrap();
            assert!(diags.is_empty(), "{}", render(&diags, src, "listing.rsl"));
        }
    }

    #[test]
    fn broken_bundle_yields_multiple_distinct_codes() {
        // Undeclared variable `w` + reachable division by zero via `z`.
        let src = "harmonyBundle app conf {\n\
                   \x20 {opt\n\
                   \x20   {variable z {0 1}}\n\
                   \x20   {node n {replicate w} {seconds {100 / z}}}\n\
                   \x20 }\n\
                   }\n";
        let diags = analyze_script(src).unwrap();
        assert!(diags.iter().any(|d| d.code == diag::UNDECLARED_VAR), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == diag::DIV_BY_ZERO), "{diags:?}");
        assert!(has_errors(&diags));
        assert!(!is_clean(&diags));
    }

    #[test]
    fn diagnostics_come_back_sorted_by_position() {
        let src = "harmonyBundle app conf {\n\
                   \x20 {a {node n {seconds -1}}}\n\
                   \x20 {b {node n {seconds {1 / 0}}}}\n\
                   }\n";
        let diags = analyze_script(src).unwrap();
        assert!(diags.len() >= 2);
        let starts: Vec<usize> =
            diags.iter().filter_map(|d| d.primary_span()).map(|s| s.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn script_parse_errors_are_err_not_diagnostics() {
        assert!(analyze_script("harmonyBundle app { unbalanced").is_err());
    }
}
