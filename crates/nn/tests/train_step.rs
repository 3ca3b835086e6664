//! `train_step` contract: the same loss and parameter gradients as the
//! hand-written zero-grad → forward → cross-entropy → `backward_params`
//! sequence, bit for bit, and one `nn.train_step` span with its three
//! phases as children.
//!
//! Each case runs two steps on one reused model through `train_step`
//! and two hand-written steps on an identical copy. The second step
//! sees a different batch, so a step that left the first batch's
//! gradients in place would not match.

use oasis_nn::{
    flatten_grads, resnet_lite, softmax_cross_entropy, train_step, Layer, Linear, Mode, Relu,
    Sequential,
};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mlp(rng: &mut StdRng) -> Sequential {
    let mut m = Sequential::new();
    m.push(Linear::new(6, 8, rng));
    m.push(Relu::new());
    m.push(Linear::new(8, 3, rng));
    m
}

type Build = fn(&mut StdRng) -> Sequential;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn hand_written_step(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> f32 {
    model.zero_grad();
    let logits = model.forward(x, Mode::Train).unwrap();
    let out = softmax_cross_entropy(&logits, labels).unwrap();
    model.backward_params(&out.grad).unwrap();
    out.loss
}

#[test]
fn train_step_matches_the_hand_written_sequence() {
    let builds: [(&str, Build, usize); 2] = [
        ("mlp", mlp, 6),
        (
            "resnet_lite",
            |rng| resnet_lite((3, 8, 8), 2, 3, rng),
            3 * 64,
        ),
    ];
    for (name, build, width) in builds {
        let mut shared = build(&mut StdRng::seed_from_u64(5));
        let mut manual = build(&mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(6);
        for step in 0..2 {
            let x = Tensor::randn(&[3, width], &mut rng);
            let labels = [step, step + 1, 2];
            let loss = train_step(&mut shared, &x, &labels).unwrap();
            let expected = hand_written_step(&mut manual, &x, &labels);
            assert_eq!(loss.to_bits(), expected.to_bits(), "{name} {step}: loss");
            let grads = bits(&flatten_grads(&mut shared));
            assert_eq!(grads, bits(&flatten_grads(&mut manual)), "{name} {step}");
        }
    }
}

#[test]
fn train_step_propagates_a_bad_label() {
    let mut model = mlp(&mut StdRng::seed_from_u64(1));
    assert!(train_step(&mut model, &Tensor::zeros(&[1, 6]), &[3]).is_err());
}

#[test]
fn traced_train_step_nests_forward_loss_and_backward() {
    let was = oasis_telemetry::set_enabled(true);
    let root = oasis_telemetry::span("test.root");
    let mut model = mlp(&mut StdRng::seed_from_u64(2));
    let x = Tensor::randn(&[2, 6], &mut StdRng::seed_from_u64(3));
    train_step(&mut model, &x, &[0, 1]).unwrap();
    drop(root);
    oasis_telemetry::set_enabled(was);
    // Other tests in this binary may run steps concurrently; only the
    // spans under this thread's root are checked.
    let spans = oasis_telemetry::take_spans();
    let children =
        |parent: u64| -> Vec<_> { spans.iter().filter(|s| s.parent == parent).collect() };
    let root = spans.iter().find(|s| s.name == "test.root").unwrap();
    let step = children(root.id);
    assert_eq!(
        step.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["nn.train_step"]
    );
    let phases: Vec<_> = children(step[0].id).iter().map(|s| s.name).collect();
    assert_eq!(phases, ["nn.forward", "nn.loss", "nn.backward"]);
}
