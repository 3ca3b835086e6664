//! Layer composition.

use oasis_tensor::Tensor;
use std::any::Any;

use crate::{Layer, Mode, Result};

/// A stack of layers applied in order.
///
/// `Sequential` is itself a [`Layer`], so blocks nest. The dishonest
/// server reaches specific layers through [`Sequential::layer_mut`]
/// plus `as_any_mut` downcasting.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow layer `i`.
    pub fn layer(&self, i: usize) -> Option<&dyn Layer> {
        self.layers.get(i).map(|b| b.as_ref())
    }

    /// Mutably borrow layer `i`.
    pub fn layer_mut(&mut self, i: usize) -> Option<&mut (dyn Layer + 'static)> {
        self.layers.get_mut(i).map(|b| b.as_mut() as _)
    }

    /// Downcast layer `i` to a concrete type.
    pub fn layer_as<T: 'static>(&self, i: usize) -> Option<&T> {
        self.layers.get(i).and_then(|b| b.as_any().downcast_ref())
    }

    /// Mutably downcast layer `i` to a concrete type.
    pub fn layer_as_mut<T: 'static>(&mut self, i: usize) -> Option<&mut T> {
        self.layers
            .get_mut(i)
            .and_then(|b| b.as_any_mut().downcast_mut())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Runs `backward` on layers `n−1 … 1` and `backward_params` on
    /// layer 0: the input gradient of the first layer is the one
    /// value nobody reads. A nested first block recurses the same way.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output))?);
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::{Arc, Mutex};

    fn mlp(rng: &mut StdRng) -> Sequential {
        let mut s = Sequential::new();
        s.push(Linear::new(4, 8, rng));
        s.push(Relu::new());
        s.push(Linear::new(8, 3, rng));
        s
    }

    #[test]
    fn forward_chains_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&mut rng);
        let y = m
            .forward(&Tensor::randn(&[5, 4], &mut rng), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[5, 3]);
    }

    #[test]
    fn backward_returns_input_grad_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let y = m.forward(&x, Mode::Train).unwrap();
        let gx = m.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn downcast_reaches_concrete_layer() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&mut rng);
        assert!(m.layer_as::<Linear>(0).is_some());
        assert!(m.layer_as::<Relu>(0).is_none());
        assert!(m.layer_as_mut::<Linear>(2).is_some());
        assert!(m.layer_as::<Linear>(9).is_none());
    }

    #[test]
    fn param_visit_covers_all_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&mut rng);
        let n = crate::param_count(&mut m);
        assert_eq!(n, (4 * 8 + 8) + (8 * 3 + 3));
    }

    type Log = Arc<Mutex<Vec<String>>>;

    /// A pass-through layer that logs which backward entry point ran.
    struct Spy {
        tag: &'static str,
        log: Log,
    }

    impl Spy {
        fn record(&self, call: &str) {
            self.log
                .lock()
                .unwrap()
                .push(format!("{}.{call}", self.tag));
        }
    }

    impl Layer for Spy {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            Ok(input.clone())
        }

        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            self.record("backward");
            Ok(grad_output.clone())
        }

        fn backward_params(&mut self, _grad_output: &Tensor) -> Result<()> {
            self.record("backward_params");
            Ok(())
        }

        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

        fn visit_params_ref(&self, _f: &mut dyn FnMut(&Tensor)) {}

        fn name(&self) -> &'static str {
            "spy"
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn spies(tags: &[&'static str], log: &Log) -> Sequential {
        let mut s = Sequential::new();
        for &tag in tags {
            s.push(Spy {
                tag,
                log: Arc::clone(log),
            });
        }
        s
    }

    fn run_backward_params(model: &mut Sequential, log: &Log) -> Vec<String> {
        let x = Tensor::ones(&[2, 3]);
        let y = model.forward(&x, Mode::Train).unwrap();
        model.backward_params(&y).unwrap();
        std::mem::take(&mut *log.lock().unwrap())
    }

    #[test]
    fn backward_params_skips_only_the_first_layers_input_gradient() {
        let log = Log::default();
        let mut m = spies(&["a", "b", "c"], &log);
        assert_eq!(
            run_backward_params(&mut m, &log),
            ["c.backward", "b.backward", "a.backward_params"]
        );
    }

    #[test]
    fn backward_params_recurses_into_a_nested_first_block() {
        let log = Log::default();
        let mut m = Sequential::new();
        m.push(spies(&["a", "b"], &log));
        m.push(spies(&["c"], &log));
        assert_eq!(
            run_backward_params(&mut m, &log),
            ["c.backward", "b.backward", "a.backward_params"]
        );
    }

    #[test]
    fn backward_params_on_an_empty_stack_is_a_noop() {
        let mut m = Sequential::new();
        assert!(m.backward_params(&Tensor::ones(&[2, 3])).is_ok());
    }

    #[test]
    fn debug_lists_layer_names() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = mlp(&mut rng);
        assert_eq!(format!("{m:?}"), "Sequential[linear, relu, linear]");
    }
}
