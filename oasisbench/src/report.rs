//! The metrics the benchmark reports, by name and unit, and how each
//! is computed from a run.

use crate::record::{median, percentile, Record};

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Times and
/// counts are per op, over the ops whose steps reach the layer;
/// `data.synthesize_ms`, `campaign.build_ms` and
/// `attacks.calibrate_ms` are per setup.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.synthesize_ms", "ms"),
    ("attacks.calibrate_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("tensor.gemm_gflop", "GFLOP"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("attacks.build_model_ms", "ms"),
    ("attacks.reconstruct_ms", "ms"),
    ("attacks.recon_per_neuron", "ratio"),
    ("metrics.score_ms", "ms"),
    ("augment.process_batch_ms", "ms"),
    ("augment.expansion", "ratio"),
    ("wire.encode_ms", "ms"),
    ("wire.encode_bytes", "bytes"),
    ("wire.encode_allocs", "count"),
    ("wire.decode_ms", "ms"),
    ("wire.compression_ratio", "ratio"),
    ("wire.deliver_ms", "ms"),
    ("nn.factory_ms", "ms"),
    ("nn.factory_allocs", "count"),
    ("nn.load_params_ms", "ms"),
    ("fl.client_step_ms", "ms"),
    ("data.sample_batch_ms", "ms"),
    ("fl.round_samples_ms", "ms"),
    ("fl.broadcast_ms", "ms"),
    ("population.sample_ms", "ms"),
    ("population.hydrate_ms", "ms"),
    ("population.hydrate_bytes", "bytes"),
    ("population.fold_ms", "ms"),
    ("fl.apply_update_ms", "ms"),
    ("tensor.pool_idle_frac", "frac"),
    ("campaign.build_ms", "ms"),
    ("campaign.train_round_ms", "ms"),
    ("campaign.probe_round_ms", "ms"),
    ("campaign.phase_entry_ms", "ms"),
    ("wire.dropped_frac", "frac"),
    ("campaign.churned_per_round", "count"),
    ("bench.allocs_per_op", "count"),
    ("bench.alloc_mb_per_op", "MiB"),
    ("telemetry.trace_overhead_frac", "frac"),
];

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of every setup, s.
    pub setup_s: Vec<f64>,
    /// Latency of every op, ms.
    pub op_ms: Vec<f64>,
    /// Timed wall clock, s (setup and checks excluded).
    pub wall_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or gave a wrong output.
    pub failed: u64,
    /// Whether the run's outputs passed every check.
    pub correct: bool,
    /// Peak resident memory when timing ended, MiB.
    pub peak_rss_mb: f64,
    /// Check failures, for the log.
    pub notes: Vec<String>,
}

impl Timed {
    /// Every end-to-end metric, in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let completed = self.attempted - self.failed;
        let values = [
            median(&self.setup_s),
            completed as f64 / self.wall_s.max(1e-9),
            percentile(&self.op_ms, 50.0),
            percentile(&self.op_ms, 90.0),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// Ops slower than the p90 latency — the samples behind it.
    pub fn above_p90(&self) -> usize {
        let p90 = percentile(&self.op_ms, 90.0);
        self.op_ms.iter().filter(|&&ms| ms > p90).count()
    }
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Setup quantities, summed over `setups` setups.
    pub setup: Record,
    /// Setups made.
    pub setups: usize,
    /// One record per traced op.
    pub ops: Vec<Record>,
    /// Quantities of parallel fronts that span several ops.
    pub fronts: Record,
    /// Wall time of each traced op, ms.
    pub traced_ms: Vec<f64>,
    /// Wall time of each untraced op of the same run, ms.
    pub untraced_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose stepped outputs differed from the library op's.
    pub failed: u64,
    /// Check failures, for the log.
    pub notes: Vec<String>,
}

impl Traced {
    fn total(&self, key: &str) -> f64 {
        self.ops.iter().map(|r| r.get(key)).sum::<f64>() + self.fronts.get(key)
    }

    /// Mean of `key` over the ops that recorded it.
    fn per_op(&self, key: &str) -> f64 {
        let hits: Vec<f64> = self
            .ops
            .iter()
            .filter_map(|r| r.0.get(key).copied())
            .collect();
        if hits.is_empty() {
            0.0
        } else {
            hits.iter().sum::<f64>() / hits.len() as f64
        }
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.total(den);
        if d > 0.0 {
            self.total(num) / d
        } else {
            0.0
        }
    }

    /// One per-layer metric's value.
    fn value(&self, name: &str) -> f64 {
        let ops = self.ops.len().max(1) as f64;
        match name {
            "data.synthesize_ms" | "attacks.calibrate_ms" | "campaign.build_ms" => {
                (self.setup.get(name) + self.total(name)) / self.setups.max(1) as f64
            }
            "tensor.gemm_gflop" => self.per_op("tensor.gemm_flop") / 1e9,
            "tensor.gemm_gflops" => {
                let ms = self.total("nn.forward_ms") + self.total("nn.backward_ms");
                if ms > 0.0 {
                    self.total("tensor.gemm_flop") / (ms / 1e3) / 1e9
                } else {
                    0.0
                }
            }
            "attacks.recon_per_neuron" => self.ratio("attacks.recons", "attacks.neurons"),
            "augment.expansion" => self.ratio("augment.images_out", "augment.images_in"),
            "wire.compression_ratio" => self.ratio("wire.raw_bytes", "wire.encode_bytes"),
            "wire.dropped_frac" => self.ratio("wire.dropped", "wire.cohort"),
            "tensor.pool_idle_frac" => {
                let cap = self.total("tensor.pool_capacity_ms");
                if cap > 0.0 {
                    1.0 - self.total("tensor.pool_busy_ms") / cap
                } else {
                    0.0
                }
            }
            "campaign.churned_per_round" => self.total("campaign.churned") / ops,
            "bench.allocs_per_op" => self.total("bench.allocs") / ops,
            "bench.alloc_mb_per_op" => self.total("bench.alloc_bytes") / ops / 1048576.0,
            "telemetry.trace_overhead_frac" => {
                let untraced = median(&self.untraced_ms);
                if untraced > 0.0 {
                    median(&self.traced_ms) / untraced - 1.0
                } else {
                    0.0
                }
            }
            key => self.per_op(key),
        }
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.value(name), unit))
            .collect()
    }
}
