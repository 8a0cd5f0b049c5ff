//! Typed RSL schema: bundles, options, node/link requirements, resource
//! declarations, and the statement parser.

mod bundle;
mod decl;
mod parser;
mod tagvalue;

pub use bundle::{
    piecewise_linear, BundleSpec, CountSpec, LinkReq, NodeReq, OptionSpec, PerfSpec, VariableSpec,
};
pub use decl::{LinkDecl, NodeDecl, REFERENCE_MACHINE};
pub use parser::{parse_bundle_script, parse_statements, Statement};
pub use tagvalue::{node_to_value, Accepts, TagValue};
