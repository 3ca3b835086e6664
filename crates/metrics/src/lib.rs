//! # oasis-metrics
//!
//! Measurement utilities for the OASIS evaluation: PSNR (the paper's
//! reconstruction-quality metric), reconstruction↔original matching
//! and boxplot-style summary statistics.
//!
//! ```
//! use oasis_image::Image;
//! use oasis_metrics::psnr;
//!
//! let mut a = Image::new(3, 8, 8);
//! a.fill(0.5);
//! let b = a.clone();
//! assert_eq!(psnr(&a, &b), oasis_metrics::PSNR_CAP); // identical images
//! ```

#![warn(missing_docs)]

mod matching;
mod psnr;
mod stats;

pub use matching::{
    best_psnr_per_original, match_greedy, match_greedy_coarse, ReconstructionMatch,
};
pub use psnr::{psnr, psnr_data, PSNR_CAP};
pub use stats::Summary;
