//! Convenience constructors wiring the defense into the FL client
//! pipeline.

use std::sync::Arc;

use oasis_data::Dataset;
use oasis_fl::{DefenseStack, FlClient};

use crate::{Oasis, OasisConfig};

/// An FL client whose batches pass through the OASIS defense before
/// gradient computation.
///
/// ```
/// use oasis::{defended_client, OasisConfig};
/// use oasis_augment::PolicyKind;
/// use oasis_data::cifar_like_with;
///
/// let shard = cifar_like_with(3, 4, 8, 0);
/// let client = defended_client(0, shard, OasisConfig::policy(PolicyKind::MajorRotation));
/// assert_eq!(client.id(), 0);
/// ```
pub fn defended_client(id: usize, data: Dataset, config: OasisConfig) -> FlClient {
    FlClient::new(id, data, Arc::new(DefenseStack::of(Oasis::new(config))))
}

/// An undefended FL client (the paper's "Without OASIS" baseline).
pub fn undefended_client(id: usize, data: Dataset) -> FlClient {
    FlClient::new(id, data, Arc::new(DefenseStack::identity()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_augment::PolicyKind;
    use oasis_data::cifar_like_with;
    use oasis_fl::ModelFactory;
    use oasis_nn::{flatten_params, Linear, Relu, Sequential};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc as StdArc;

    #[test]
    fn defended_client_computes_update_on_expanded_batch() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let factory: ModelFactory = StdArc::new(move || {
            let mut rng = StdRng::seed_from_u64(0);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 8, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(8, 3, &mut rng));
            m
        });
        let global = flatten_params(&mut factory());
        let client = defended_client(
            0,
            data.clone(),
            OasisConfig::policy(PolicyKind::MajorRotation),
        );
        let update = client.compute_update(&factory, &global, 4, 1).unwrap();
        assert_eq!(update.samples, 16, "4 samples × (1 + 3 rotations)");

        let plain = undefended_client(1, data);
        let update2 = plain.compute_update(&factory, &global, 4, 1).unwrap();
        assert_eq!(update2.samples, 4);
    }
}
