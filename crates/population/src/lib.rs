//! # oasis-population
//!
//! Population-scale federated rounds: the machinery that lets the
//! OASIS evaluation run cohorts sampled from 10⁵–10⁶ clients without
//! holding 10⁵–10⁶ [`FlClient`](oasis_fl::FlClient)s resident.
//!
//! [`Population`] is the deployment as data: a shared, shuffled
//! sample pool plus one 12-byte [`ClientDescriptor`] per client. It
//! is the second [`ClientSource`](oasis_fl::ClientSource) of the one
//! round engine in `oasis-fl` (the first is a resident `FlClient`
//! slice): a descriptor is **hydrated** into a full `FlClient` (shard,
//! defense stack) only while its update is being computed, then
//! dropped.
//!
//! [`CohortRunner`] couples a population to an
//! [`FlServer`](oasis_fl::FlServer) and runs the engine's rounds over
//! it. The engine samples each cohort with the [`CohortScheduler`],
//! whose per-round rng stream is keyed by `(seed, round)` so any round
//! is reproducible in isolation and at any thread count, and folds
//! each delivered update into the [`StreamingAggregator`]'s running
//! `O(model)` accumulator, so server memory is
//! `O(model + cohort_scratch)` regardless of population. Both types
//! live in `oasis-fl` and are re-exported here. At matched scale a
//! population round is **bit-identical** to a resident one: same
//! selection shuffle, same per-client rng streams, same wire, same
//! fold order, same SGD step.
//!
//! ```
//! use oasis_population::{CohortRunner, Population};
//! use oasis_fl::{DefenseStack, FlConfig, FlServer};
//! use oasis_data::cifar_like_with;
//! use oasis_nn::{Linear, Sequential};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), oasis_fl::FlError> {
//! let data = cifar_like_with(4, 6, 8, 0);
//! let d = data.feature_dim();
//! let factory: oasis_fl::ModelFactory = Arc::new(move || {
//!     let mut rng = StdRng::seed_from_u64(42);
//!     let mut m = Sequential::new();
//!     m.push(Linear::new(d, 4, &mut rng));
//!     m
//! });
//! // 1000 descriptors cost ~12 KB; 1000 resident clients would not.
//! let pop = Population::iid(
//!     &data,
//!     1000,
//!     Arc::new(DefenseStack::identity()),
//!     &mut StdRng::seed_from_u64(1),
//! );
//! let server = FlServer::new(factory, FlConfig { clients_per_round: 8, ..FlConfig::default() })?;
//! let mut runner = CohortRunner::new(server, pop);
//! let reports = runner.run(3, 2)?;
//! assert_eq!(reports.len(), 3);
//! assert_eq!(reports[0].round_report.cohort, 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod population;
mod round;
mod spec;

pub use oasis_fl::{CohortReport, CohortScheduler, StreamingAggregator};
pub use population::{ClientDescriptor, Population};
pub use round::CohortRunner;
pub use spec::{PopulationSpec, SampleSpec};
