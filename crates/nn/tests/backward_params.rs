//! `Layer::backward_params` contract: the same parameter gradients as
//! `backward`, bit for bit, and the same error before `forward`.
//!
//! Each case runs two forward/backward steps on one copy of a layer
//! and two forward/`backward_params` steps on an identical copy, then
//! compares the accumulated gradients bitwise. Two steps check that
//! the skipped input gradient leaves no state behind that changes the
//! next step's accumulation.

use oasis_nn::{
    flatten_grads, resnet_lite, AvgPoolAll, BatchNorm, Conv2d, Layer, Linear, MaxPool2, Mode,
    NnError, Relu, ResidualBlock, Sequential,
};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One case: a layer builder (called twice with the same seed, so
/// both copies start identical) and its input width.
struct Case {
    name: &'static str,
    build: fn(&mut StdRng) -> Box<dyn Layer>,
    in_width: usize,
}

const BATCH: usize = 3;

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "linear",
            build: |rng| Box::new(Linear::new(12, 5, rng)),
            in_width: 12,
        },
        Case {
            name: "conv2d",
            build: |rng| Box::new(Conv2d::new(2, 3, 3, 1, 1, (4, 4), rng)),
            in_width: 2 * 16,
        },
        Case {
            name: "batchnorm",
            build: |_| Box::new(BatchNorm::new(3)),
            in_width: 3 * 4,
        },
        Case {
            name: "relu",
            build: |_| Box::new(Relu::new()),
            in_width: 7,
        },
        Case {
            name: "maxpool2",
            build: |_| Box::new(MaxPool2::new(2, 4, 4)),
            in_width: 2 * 16,
        },
        Case {
            name: "avgpool_all",
            build: |_| Box::new(AvgPoolAll::new(4)),
            in_width: 4 * 9,
        },
        Case {
            name: "residual_block",
            build: |rng| Box::new(ResidualBlock::new(2, 4, 2, (4, 4), rng)),
            in_width: 2 * 16,
        },
        Case {
            name: "mlp",
            build: |rng| {
                let mut m = Sequential::new();
                m.push(Linear::new(6, 8, rng));
                m.push(Relu::new());
                m.push(Linear::new(8, 3, rng));
                Box::new(m)
            },
            in_width: 6,
        },
        Case {
            name: "resnet_lite",
            build: |rng| Box::new(resnet_lite((3, 8, 8), 2, 4, rng)),
            in_width: 3 * 64,
        },
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn backward_params_accumulates_the_same_bits_as_backward() {
    for case in cases() {
        let mut full = (case.build)(&mut StdRng::seed_from_u64(7));
        let mut params_only = (case.build)(&mut StdRng::seed_from_u64(7));
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..2 {
            let x = Tensor::randn(&[BATCH, case.in_width], &mut rng);
            let y = full.forward(&x, Mode::Train).unwrap();
            let y2 = params_only.forward(&x, Mode::Train).unwrap();
            assert_eq!(bits(y.data()), bits(y2.data()), "{} step {step}", case.name);
            let g = Tensor::randn(y.dims(), &mut rng);
            let gx = full.backward(&g).unwrap();
            assert_eq!(gx.dims(), x.dims(), "{}", case.name);
            params_only.backward_params(&g).unwrap();
            assert_eq!(
                bits(&flatten_grads(full.as_mut())),
                bits(&flatten_grads(params_only.as_mut())),
                "{} step {step}",
                case.name
            );
        }
    }
}

#[test]
fn backward_params_before_forward_is_the_same_error_as_backward() {
    for case in cases() {
        // A third copy's eval pass gives the output shape, so the two
        // copies under test never see a forward.
        let mut probe = (case.build)(&mut StdRng::seed_from_u64(7));
        let x = Tensor::randn(&[BATCH, case.in_width], &mut StdRng::seed_from_u64(11));
        let g = Tensor::ones(probe.forward(&x, Mode::Eval).unwrap().dims());
        let expected = (case.build)(&mut StdRng::seed_from_u64(7))
            .backward(&g)
            .expect_err("backward before forward");
        let got = (case.build)(&mut StdRng::seed_from_u64(7))
            .backward_params(&g)
            .expect_err("backward_params before forward");
        assert!(
            matches!(got, NnError::BackwardBeforeForward { .. }),
            "{}: {got:?}",
            case.name
        );
        assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{}", case.name);
    }
}
