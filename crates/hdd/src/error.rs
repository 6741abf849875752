use std::fmt;

/// Errors from the HDD substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HddError {
    /// A drive specification field was missing or invalid.
    InvalidSpec {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
}

impl fmt::Display for HddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HddError::InvalidSpec { field, reason } => {
                write!(f, "invalid drive spec field {field}: {reason}")
            }
        }
    }
}

impl std::error::Error for HddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = HddError::InvalidSpec {
            field: "capacity",
            reason: "must be positive".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "invalid drive spec field capacity: must be positive"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HddError>();
    }
}
