//! # oasis — Offsetting Active Reconstruction Attacks in Federated Learning
//!
//! A from-scratch reproduction of **OASIS** (Jeter, Nguyen, Alharbi,
//! Thai — ICDCS 2024): a client-side defense that counters *active
//! reconstruction attacks* by actively dishonest FL servers.
//!
//! ## How the defense works
//!
//! Active attacks (Robbing the Fed, Curious Abandon Honesty) plant a
//! malicious fully-connected layer whose per-neuron gradients
//! `(∂L/∂W_i, ∂L/∂b_i)` memorize individual samples; dividing them
//! (paper Eq. 6) reconstructs training images *exactly*. The paper's
//! Proposition 1 shows the inversion is blocked whenever every sample
//! `x_t` shares its malicious-layer **activation set** with some other
//! batch member `x′_t` — the attacker can then extract only a linear
//! combination of the two.
//!
//! OASIS manufactures those activation-set twins with **image
//! augmentation**: each batch `D` is expanded to
//! `D′ = D ∪ ⋃_t X′_t` (Eq. 7) where `X′_t` holds rotated / flipped /
//! sheared copies of `x_t` with the same label. Because augmentation
//! is also a generalization technique, accuracy is preserved
//! (paper Table I).
//!
//! ## Quickstart
//!
//! ```
//! use oasis::{Oasis, OasisConfig};
//! use oasis_augment::PolicyKind;
//! use oasis_data::{cifar_like_with, Batch};
//! use oasis_fl::BatchStage;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let defense = Oasis::new(OasisConfig::policy(PolicyKind::MajorRotation));
//! let ds = cifar_like_with(4, 2, 16, 0);
//! let batch = Batch::from_items(ds.items().to_vec());
//! let mut rng = StdRng::seed_from_u64(0);
//! let defended = defense.process(&batch, &mut rng);
//! assert_eq!(defended.len(), batch.len() * 4); // original + 3 rotations
//! ```

#![warn(missing_docs)]

mod analysis;
mod config;
mod defense;
mod detect;
mod pipeline;

pub use analysis::{activation_set_analysis, layer_from_parts, ActivationAnalysis};
pub use config::OasisConfig;
pub use defense::Oasis;
pub use detect::{audit_first_layer, LayerAudit};
pub use pipeline::{defended_client, undefended_client};

/// Commonly used items for downstream code.
pub mod prelude {
    pub use crate::{activation_set_analysis, defended_client, Oasis, OasisConfig};
    pub use oasis_augment::{AugmentationPolicy, PolicyKind, Transform};
    pub use oasis_fl::{
        BatchStage, ClipStage, Defense, DefenseStack, DpStage, IdentityPreprocessor, UpdateStage,
    };
}
