//! Error type for tensor operations.

use std::fmt;

/// Errors produced by tensor construction and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The data length does not match the product of the shape dims.
    LengthMismatch {
        /// Length of the provided buffer.
        len: usize,
        /// Number of elements implied by the shape.
        expected: usize,
    },
    /// Two operands have incompatible shapes for the requested op.
    ShapeMismatch {
        /// Human-readable name of the operation.
        op: &'static str,
        /// Shape of the left operand.
        lhs: Vec<usize>,
        /// Shape of the right operand.
        rhs: Vec<usize>,
    },
    /// The tensor does not have the rank required by the operation.
    RankMismatch {
        /// Human-readable name of the operation.
        op: &'static str,
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// An element index was out of range.
    IndexOutOfRange {
        /// The offending flat or per-axis index.
        index: usize,
        /// The bound it violated.
        bound: usize,
    },
    /// A shape with zero elements was used where data is required.
    EmptyTensor,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { len, expected } => {
                write!(
                    f,
                    "buffer of length {len} does not match shape with {expected} elements"
                )
            }
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => {
                write!(f, "{op} requires rank {expected}, got rank {actual}")
            }
            TensorError::IndexOutOfRange { index, bound } => {
                write!(f, "index {index} out of range (bound {bound})")
            }
            TensorError::EmptyTensor => write!(f, "operation requires a non-empty tensor"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_informative() {
        let errs: Vec<TensorError> = vec![
            TensorError::LengthMismatch {
                len: 3,
                expected: 4,
            },
            TensorError::ShapeMismatch {
                op: "add",
                lhs: vec![2],
                rhs: vec![3],
            },
            TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: 1,
            },
            TensorError::IndexOutOfRange { index: 9, bound: 4 },
            TensorError::EmptyTensor,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
