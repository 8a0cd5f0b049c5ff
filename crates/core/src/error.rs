//! Error type for the adaptation controller.

use std::fmt;

/// Errors from controller operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An RSL parse or evaluation error.
    Rsl(String),
    /// A resource-layer error (matching, commit, release).
    Resource(String),
    /// A prediction error.
    Predict(String),
    /// The referenced application instance is not registered.
    UnknownInstance {
        /// The instance name (`app.id`).
        name: String,
    },
    /// The referenced bundle is not part of the instance.
    UnknownBundle {
        /// The bundle name.
        name: String,
    },
    /// The instance already has a bundle of this name with a different
    /// specification. (Re-sending the *same* specification is a retry and
    /// succeeds.)
    BundleConflict {
        /// The bundle name.
        bundle: String,
    },
    /// No candidate configuration of a bundle could be placed on the
    /// cluster.
    Unplaceable {
        /// The bundle that could not be placed.
        bundle: String,
        /// Why the last candidate failed.
        reason: String,
    },
    /// Static analysis rejected the bundle before placement (strict lint
    /// mode): the bundle has error-severity diagnostics.
    LintRejected {
        /// The rejected bundle's name.
        bundle: String,
        /// One line per error diagnostic (`code: message`).
        errors: Vec<String>,
    },
    /// A persistence-layer failure: an unreadable state directory, a
    /// snapshot that fails validation, or a corrupted (not merely torn)
    /// WAL record.
    Persistence {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The exhaustive optimizer's search space exceeded its bound.
    SearchSpaceTooLarge {
        /// Number of joint configurations that would need evaluation.
        size: u64,
        /// The configured bound.
        limit: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rsl(m) => write!(f, "rsl error: {m}"),
            CoreError::Resource(m) => write!(f, "resource error: {m}"),
            CoreError::Predict(m) => write!(f, "prediction error: {m}"),
            CoreError::UnknownInstance { name } => {
                write!(f, "unknown application instance `{name}`")
            }
            CoreError::UnknownBundle { name } => write!(f, "unknown bundle `{name}`"),
            CoreError::BundleConflict { bundle } => {
                write!(f, "bundle `{bundle}` is already registered with a different specification")
            }
            CoreError::Unplaceable { bundle, reason } => {
                write!(f, "bundle `{bundle}` cannot be placed: {reason}")
            }
            CoreError::LintRejected { bundle, errors } => {
                write!(f, "bundle `{bundle}` rejected by static analysis: {}", errors.join("; "))
            }
            CoreError::Persistence { detail } => write!(f, "persistence error: {detail}"),
            CoreError::SearchSpaceTooLarge { size, limit } => {
                write!(f, "search space of {size} joint configurations exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<harmony_rsl::RslError> for CoreError {
    fn from(e: harmony_rsl::RslError) -> Self {
        CoreError::Rsl(e.to_string())
    }
}

impl From<harmony_resources::ResourceError> for CoreError {
    fn from(e: harmony_resources::ResourceError) -> Self {
        CoreError::Resource(e.to_string())
    }
}

impl From<harmony_predict::PredictError> for CoreError {
    fn from(e: harmony_predict::PredictError) -> Self {
        CoreError::Predict(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_nonempty() {
        let cases = vec![
            CoreError::Rsl("x".into()),
            CoreError::Resource("y".into()),
            CoreError::Predict("z".into()),
            CoreError::UnknownInstance { name: "a.1".into() },
            CoreError::UnknownBundle { name: "where".into() },
            CoreError::BundleConflict { bundle: "where".into() },
            CoreError::Unplaceable { bundle: "where".into(), reason: "full".into() },
            CoreError::LintRejected {
                bundle: "where".into(),
                errors: vec!["HA0004: undeclared variable".into()],
            },
            CoreError::Persistence { detail: "corrupted record".into() },
            CoreError::SearchSpaceTooLarge { size: 1000, limit: 100 },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            let _: &dyn std::error::Error = &e;
        }
    }

    #[test]
    fn conversions() {
        let _: CoreError = harmony_rsl::RslError::DivideByZero.into();
        let _: CoreError =
            harmony_resources::ResourceError::UnknownNode { name: "n".into() }.into();
        let _: CoreError = harmony_predict::PredictError::MissingData { what: "w".into() }.into();
    }
}
