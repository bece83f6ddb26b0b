//! Dense networks with manual backprop, Adam, and slimmable widths.

use holo_math::Pcg32;

/// A dense layer `y = W x + b`, row-major weights (`out x in`).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Weights, `out_dim * in_dim`, row-major.
    pub w: Vec<f32>,
    /// Biases, `out_dim`.
    pub b: Vec<f32>,
    /// Weight gradients (same layout).
    pub gw: Vec<f32>,
    /// Bias gradients.
    pub gb: Vec<f32>,
}

impl Linear {
    /// He initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Pcg32) -> Self {
        let scale = (2.0 / in_dim as f32).sqrt();
        let w = (0..in_dim * out_dim).map(|_| rng.normal() * scale).collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    /// Forward restricted to the first `a_in` inputs and `a_out` outputs
    /// (slimmable execution; full width when equal to the dims).
    pub fn forward_slim(&self, x: &[f32], a_in: usize, a_out: usize, y: &mut [f32]) {
        debug_assert!(a_in <= self.in_dim && a_out <= self.out_dim);
        for (o, (out, &bias)) in y[..a_out].iter_mut().zip(&self.b).enumerate() {
            let row = &self.w[o * self.in_dim..o * self.in_dim + a_in];
            let mut acc = bias;
            for (wi, xi) in row.iter().zip(&x[..a_in]) {
                acc += wi * xi;
            }
            *out = acc;
        }
    }

    /// Backward for the slim configuration: given upstream `dy`, input
    /// `x`, accumulate gradients and write `dx`.
    pub fn backward_slim(&mut self, x: &[f32], dy: &[f32], a_in: usize, a_out: usize, dx: &mut [f32]) {
        dx[..a_in].fill(0.0);
        for (o, &g) in dy[..a_out].iter().enumerate() {
            self.gb[o] += g;
            let row_off = o * self.in_dim;
            for i in 0..a_in {
                self.gw[row_off + i] += g * x[i];
                dx[i] += g * self.w[row_off + i];
            }
        }
    }

    /// Zero the gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gw.fill(0.0);
        self.gb.fill(0.0);
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// A multilayer perceptron with ReLU hidden activations and linear
/// output, supporting slimmable hidden widths.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Layers in order.
    pub layers: Vec<Linear>,
    /// Full hidden width.
    pub hidden: usize,
    /// Currently active hidden width (<= `hidden`).
    pub active_width: usize,
}

/// Per-layer forward activations retained for backprop.
#[derive(Debug, Clone, Default)]
pub struct Activations {
    /// Pre-activation inputs to each layer (x0 = network input).
    pub inputs: Vec<Vec<f32>>,
    /// Final output.
    pub output: Vec<f32>,
}

impl Mlp {
    /// Build an MLP: `in_dim -> hidden x (depth-1) -> out_dim`.
    pub fn new(in_dim: usize, hidden: usize, depth: usize, out_dim: usize, rng: &mut Pcg32) -> Self {
        assert!(depth >= 1);
        let mut layers = Vec::with_capacity(depth);
        if depth == 1 {
            layers.push(Linear::new(in_dim, out_dim, rng));
        } else {
            layers.push(Linear::new(in_dim, hidden, rng));
            for _ in 0..depth - 2 {
                layers.push(Linear::new(hidden, hidden, rng));
            }
            layers.push(Linear::new(hidden, out_dim, rng));
        }
        Self { layers, hidden, active_width: hidden }
    }

    /// Restrict hidden layers to the first `width` units (slimmable
    /// execution). Input and output dimensions are unaffected.
    pub fn set_active_width(&mut self, width: usize) {
        self.active_width = width.clamp(1, self.hidden);
    }

    fn widths(&self, li: usize) -> (usize, usize) {
        let n = self.layers.len();
        let a_in = if li == 0 { self.layers[0].in_dim } else { self.active_width };
        let a_out = if li == n - 1 { self.layers[n - 1].out_dim } else { self.active_width };
        (a_in, a_out)
    }

    /// Forward pass retaining activations for backprop.
    pub fn forward(&self, x: &[f32]) -> Activations {
        let mut acts = Activations::default();
        let mut cur = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let (a_in, a_out) = self.widths(li);
            acts.inputs.push(cur.clone());
            let mut y = vec![0.0; layer.out_dim];
            layer.forward_slim(&cur, a_in, a_out, &mut y);
            if li + 1 < self.layers.len() {
                for v in &mut y[..a_out] {
                    *v = v.max(0.0); // ReLU
                }
                y.truncate(a_out);
            } else {
                y.truncate(layer.out_dim);
            }
            cur = y;
        }
        acts.output = cur;
        acts
    }

    /// Backward pass: `d_out` is dL/d(output). Accumulates gradients.
    pub fn backward(&mut self, acts: &Activations, d_out: &[f32]) {
        let n = self.layers.len();
        let mut dy = d_out.to_vec();
        for li in (0..n).rev() {
            let (a_in, a_out) = self.widths(li);
            // ReLU gradient for hidden layers: recompute forward output of
            // this layer from the next layer's stored input.
            if li + 1 < n {
                let next_input = &acts.inputs[li + 1];
                for (g, &v) in dy.iter_mut().zip(next_input.iter()) {
                    if v <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            let x = &acts.inputs[li];
            let mut dx = vec![0.0; x.len().max(a_in)];
            let layer = &mut self.layers[li];
            layer.backward_slim(x, &dy, a_in, a_out, &mut dx);
            dy = dx;
        }
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// FLOPs of one full-width forward pass (2 per multiply-add).
    pub fn flops_per_forward(&self, width: usize) -> f64 {
        let n = self.layers.len();
        let mut total = 0f64;
        for (li, l) in self.layers.iter().enumerate() {
            let a_in = if li == 0 { l.in_dim } else { width.min(self.hidden) };
            let a_out = if li == n - 1 { l.out_dim } else { width.min(self.hidden) };
            total += 2.0 * a_in as f64 * a_out as f64;
        }
        total
    }
}

/// Adam optimizer over an MLP's parameters.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Standard Adam hyperparameters with the given learning rate.
    pub fn new(mlp: &Mlp, lr: f32) -> Self {
        let sizes: Vec<usize> = mlp.layers.iter().map(|l| l.w.len() + l.b.len()).collect();
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            v: sizes.iter().map(|&s| vec![0.0; s]).collect(),
        }
    }

    /// Apply one step using the accumulated gradients, then zero them.
    pub fn step(&mut self, mlp: &mut Mlp) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (li, layer) in mlp.layers.iter_mut().enumerate() {
            let m = &mut self.m[li];
            let v = &mut self.v[li];
            let nw = layer.w.len();
            for (i, (p, g)) in layer
                .w
                .iter_mut()
                .chain(layer.b.iter_mut())
                .zip(layer.gw.iter().chain(layer.gb.iter()))
                .enumerate()
            {
                let _ = nw;
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let mh = m[i] / bc1;
                let vh = v[i] / bc2;
                *p -= self.lr * mh / (vh.sqrt() + self.eps);
            }
            layer.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = Pcg32::new(1);
        let mlp = Mlp::new(5, 16, 3, 2, &mut rng);
        let out = mlp.forward(&[0.1, -0.2, 0.3, 0.0, 1.0]).output;
        assert_eq!(out.len(), 2);
        assert_eq!(mlp.param_count(), 5 * 16 + 16 + 16 * 16 + 16 + 16 * 2 + 2);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Pcg32::new(2);
        let mut mlp = Mlp::new(3, 8, 3, 1, &mut rng);
        let x = [0.5, -0.3, 0.8];
        // Loss = 0.5 * out^2.
        let acts = mlp.forward(&x);
        let out = acts.output[0];
        mlp.zero_grad();
        mlp.backward(&acts, &[out]);
        // Check several weights against central differences.
        let eps = 1e-3;
        for (li, wi) in [(0usize, 0usize), (0, 5), (1, 3), (2, 2)] {
            let analytic = mlp.layers[li].gw[wi];
            let orig = mlp.layers[li].w[wi];
            mlp.layers[li].w[wi] = orig + eps;
            let up = 0.5 * mlp.forward(&x).output[0].powi(2);
            mlp.layers[li].w[wi] = orig - eps;
            let down = 0.5 * mlp.forward(&x).output[0].powi(2);
            mlp.layers[li].w[wi] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 * analytic.abs().max(1.0),
                "layer {li} w{wi}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn adam_learns_a_regression() {
        let mut rng = Pcg32::new(3);
        let mut mlp = Mlp::new(2, 16, 3, 1, &mut rng);
        let mut opt = Adam::new(&mlp, 5e-3);
        // Target: f(x, y) = sin(2x) * y.
        let mut final_loss = f32::INFINITY;
        for step in 0..1500 {
            let x = [rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0)];
            let target = (2.0 * x[0]).sin() * x[1];
            let acts = mlp.forward(&x);
            let err = acts.output[0] - target;
            mlp.backward(&acts, &[2.0 * err]);
            opt.step(&mut mlp);
            if step > 1400 {
                final_loss = final_loss.min(err * err);
            }
        }
        assert!(final_loss < 0.05, "regression failed to converge: {final_loss}");
    }

    #[test]
    fn slim_width_uses_leading_units() {
        let mut rng = Pcg32::new(4);
        let mut mlp = Mlp::new(4, 32, 3, 2, &mut rng);
        let x = [0.2, 0.4, -0.1, 0.9];
        let full = mlp.forward(&x).output;
        mlp.set_active_width(8);
        let slim = mlp.forward(&x).output;
        assert_eq!(slim.len(), 2);
        assert_ne!(full, slim, "slim path must actually change the computation");
        // Slim flops strictly fewer.
        assert!(mlp.flops_per_forward(8) < mlp.flops_per_forward(32));
    }

    #[test]
    fn slim_training_improves_slim_inference() {
        let mut rng = Pcg32::new(5);
        let mut mlp = Mlp::new(1, 24, 3, 1, &mut rng);
        let mut opt = Adam::new(&mlp, 5e-3);
        // Sandwich training: alternate full and slim widths.
        for step in 0..2000 {
            let w = if step % 2 == 0 { 24 } else { 8 };
            mlp.set_active_width(w);
            let x = [rng.range_f32(-1.0, 1.0)];
            let target = (3.0 * x[0]).sin();
            let acts = mlp.forward(&x);
            let err = acts.output[0] - target;
            mlp.backward(&acts, &[2.0 * err]);
            opt.step(&mut mlp);
        }
        // Slim inference should now fit the function reasonably.
        mlp.set_active_width(8);
        let mut loss = 0.0;
        for i in 0..50 {
            let x = [-1.0 + 2.0 * i as f32 / 49.0];
            let err = mlp.forward(&x).output[0] - (3.0 * x[0]).sin();
            loss += err * err;
        }
        loss /= 50.0;
        assert!(loss < 0.1, "slim network mse {loss}");
    }

    #[test]
    fn zero_grad_zeroes() {
        let mut rng = Pcg32::new(6);
        let mut mlp = Mlp::new(2, 8, 2, 1, &mut rng);
        let acts = mlp.forward(&[1.0, 1.0]);
        mlp.backward(&acts, &[1.0]);
        assert!(mlp.layers[0].gw.iter().any(|&g| g != 0.0));
        mlp.zero_grad();
        assert!(mlp.layers[0].gw.iter().all(|&g| g == 0.0));
    }
}
