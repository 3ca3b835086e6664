//! # oasis-fl
//!
//! A horizontal federated-learning protocol simulation (paper §II-A)
//! with first-class support for **actively dishonest servers**
//! (paper §III-A threat model).
//!
//! The protocol is the iterative scheme of paper Eq. 1: each round the
//! server broadcasts the global weights `w_t`, a subset of clients
//! computes full-batch gradients `G_j = ∇ L(D_j, w_t)` on their local
//! data, and the server averages the updates and steps
//! `w_{t+1} = w_t − η·Ḡ`.
//!
//! The client's hook is its [`DefenseStack`], a composable defense
//! pipeline: [`BatchStage`]s preprocess the training batch *before*
//! gradients are computed (how the OASIS defense augments `D` into
//! `D′`) and [`UpdateStage`]s perturb the flattened update *before* it
//! is uploaded (how DP-SGD clips and noises). The dishonest server's
//! side — dispatching a malicious model and inverting the update —
//! lives in `oasis-attacks`, whose attacks build the malicious model
//! themselves.
//!
//! Updates travel over a real wire: each client's update is encoded
//! with the server's [`WireConfig`] codec (`oasis_wire`), a
//! deterministic simulated transport delivers, delays, or drops it,
//! and the server aggregates **only what arrived**, weighted by the
//! examples each client contributed. The default wire (raw codec,
//! ideal network) reproduces the in-process protocol bit-exactly.
//!
//! There is one round engine, [`FlServer::run_cohort_round`]. It runs
//! over a [`ClientSource`] — a resident `[FlClient]` slice here, or a
//! descriptor population in `oasis-population` — and samples each
//! cohort with the [`CohortScheduler`]. The wire plan is made before
//! any compute, so clients the wire drops never train, and every
//! delivered update folds through the one FedAvg fold,
//! [`StreamingAggregator`], in delivery order. [`FlServer::run_round`]
//! is the resident-slice caller.
//!
//! ```
//! use oasis_fl::{DefenseStack, FlConfig, FlServer, partition_iid};
//! use oasis_data::cifar_like_with;
//! use oasis_nn::{Linear, Relu, Sequential};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), oasis_fl::FlError> {
//! let data = cifar_like_with(4, 6, 8, 0); // tiny: 4 classes, 8×8
//! let d = data.feature_dim();
//! let factory: oasis_fl::ModelFactory = Arc::new(move || {
//!     let mut rng = StdRng::seed_from_u64(42);
//!     let mut m = Sequential::new();
//!     m.push(Linear::new(d, 32, &mut rng));
//!     m.push(Relu::new());
//!     m.push(Linear::new(32, 4, &mut rng));
//!     m
//! });
//! let clients = partition_iid(&data, 3, Arc::new(DefenseStack::identity()), &mut StdRng::seed_from_u64(1));
//! let mut server = FlServer::new(factory, FlConfig::default())?;
//! let report = server.run_round(&clients, &mut StdRng::seed_from_u64(2))?;
//! assert_eq!(report.participants, 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod aggregate;
mod client;
mod config;
mod defense;
mod error;
mod round;
mod scheduler;
mod server;
mod timings;
mod training;

pub use aggregate::StreamingAggregator;
pub use client::{ClientUpdate, FlClient, ModelFactory};
pub use config::FlConfig;
pub use defense::{
    BatchStage, ClipStage, Defense, DefenseStack, DpStage, IdentityPreprocessor, UpdateStage,
};
pub use error::FlError;
pub use round::{ClientSource, CohortReport};
pub use scheduler::CohortScheduler;
pub use server::{FlServer, RoundReport, WireConfig};
pub use timings::RoundTimings;
pub use training::{
    evaluate_accuracy, partition_dirichlet, partition_iid, train_centralized, TrainReport,
};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, FlError>;
