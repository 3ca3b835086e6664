//! Error type for the FL protocol.

use oasis_nn::NnError;
use std::fmt;

/// Errors produced by the federated-learning simulation.
#[derive(Debug)]
pub enum FlError {
    /// A model execution error inside a client or the server.
    Nn(NnError),
    /// The protocol was configured inconsistently.
    BadConfig(String),
    /// A client update has the wrong parameter count.
    UpdateLength {
        /// Length received.
        len: usize,
        /// Length expected (global model parameter count).
        expected: usize,
    },
    /// No clients were selected for a round.
    NoClients,
    /// Encoding or decoding an update on the wire failed.
    Wire(oasis_wire::WireError),
    /// A client computed on a different number of samples than its
    /// batch stages' [`crate::BatchStage::output_len`] predicted, so
    /// the round's FedAvg weights would be wrong.
    SampleCount {
        /// The client's wire id.
        client: usize,
        /// The client's batch stages, `+`-joined (see
        /// [`crate::DefenseStack::batch_stage_names`]).
        stage: String,
        /// The count the round engine weighted the client by.
        predicted: usize,
        /// The count the client actually trained on.
        computed: usize,
    },
}

impl fmt::Display for FlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlError::Nn(e) => write!(f, "model error: {e}"),
            FlError::BadConfig(msg) => write!(f, "bad FL configuration: {msg}"),
            FlError::UpdateLength { len, expected } => {
                write!(f, "client update of length {len}, expected {expected}")
            }
            FlError::NoClients => write!(f, "round executed with no clients"),
            FlError::Wire(e) => write!(f, "wire error: {e}"),
            FlError::SampleCount {
                client,
                stage,
                predicted,
                computed,
            } => write!(
                f,
                "client {client}: batch stage `{stage}` produced {computed} samples, \
                 its output_len predicted {predicted}"
            ),
        }
    }
}

impl std::error::Error for FlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlError::Nn(e) => Some(e),
            FlError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for FlError {
    fn from(e: NnError) -> Self {
        FlError::Nn(e)
    }
}

impl From<oasis_wire::WireError> for FlError {
    fn from(e: oasis_wire::WireError) -> Self {
        FlError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        for e in [
            FlError::BadConfig("x".into()),
            FlError::UpdateLength {
                len: 1,
                expected: 2,
            },
            FlError::NoClients,
            FlError::SampleCount {
                client: 3,
                stage: "MR".into(),
                predicted: 16,
                computed: 8,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
