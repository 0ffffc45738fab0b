//! Optimizers. SketchQL trains its encoder with Adam plus optional decoupled
//! weight decay (AdamW) and global-norm gradient clipping.

use crate::modules::ParamStore;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay coefficient (0 disables).
    pub weight_decay: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            grad_clip: 1.0,
        }
    }
}

/// Adam optimizer state (per-parameter first/second moments).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// The optimizer's hyper-parameters.
    pub config: AdamConfig,
    step: u64,
    m: BTreeMap<String, Tensor>,
    v: BTreeMap<String, Tensor>,
}

impl Adam {
    /// Creates an optimizer with fresh (zero) moments.
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            step: 0,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies one update. Parameters without a gradient entry are left
    /// untouched. Returns the (pre-clip) global gradient norm. `grads` is
    /// name-ordered, so the norm's sum and the updates run in one fixed
    /// order, the [`ParamStore`]'s.
    pub fn step(&mut self, store: &mut ParamStore, grads: &BTreeMap<String, Tensor>) -> f32 {
        self.step_scaled(store, grads, 1.0)
    }

    /// Like [`Adam::step`] with a multiplier on the learning rate — the
    /// hook [`crate::schedule::LrSchedule`]s plug into.
    pub fn step_scaled(
        &mut self,
        store: &mut ParamStore,
        grads: &BTreeMap<String, Tensor>,
        lr_scale: f32,
    ) -> f32 {
        self.step += 1;
        let t = self.step as f32;
        let c = self.config;

        // Global norm for clipping / monitoring.
        let mut sq_sum = 0.0f64;
        for g in grads.values() {
            sq_sum += g
                .data
                .iter()
                .map(|x| (*x as f64) * (*x as f64))
                .sum::<f64>();
        }
        let global_norm = (sq_sum.sqrt()) as f32;
        let clip_scale = if c.grad_clip > 0.0 && global_norm > c.grad_clip {
            c.grad_clip / global_norm
        } else {
            1.0
        };

        let bias1 = 1.0 - c.beta1.powf(t);
        let bias2 = 1.0 - c.beta2.powf(t);

        for (name, g) in grads {
            let p = store.get_mut(name);
            let m = self
                .m
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(g.rows, g.cols));
            let v = self
                .v
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(g.rows, g.cols));
            for i in 0..g.data.len() {
                let gi = g.data[i] * clip_scale;
                m.data[i] = c.beta1 * m.data[i] + (1.0 - c.beta1) * gi;
                v.data[i] = c.beta2 * v.data[i] + (1.0 - c.beta2) * gi * gi;
                let mhat = m.data[i] / bias1;
                let vhat = v.data[i] / bias2;
                let mut upd = mhat / (vhat.sqrt() + c.eps);
                if c.weight_decay > 0.0 {
                    upd += c.weight_decay * p.data[i];
                }
                p.data[i] -= c.lr * lr_scale * upd;
            }
        }
        global_norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::{Linear, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize ||x||^2 for a single 1x4 "parameter".
        let mut store = ParamStore::new();
        store.insert("x", Tensor::from_vec(1, 4, vec![1.0, -2.0, 3.0, -4.0]));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.05,
            ..Default::default()
        });
        for _ in 0..400 {
            // d mean(x²) / dx = 2x / 4.
            let grad = store.get("x").map(|x| x / 2.0);
            adam.step(&mut store, &BTreeMap::from([("x".to_string(), grad)]));
        }
        let norm = store
            .get("x")
            .data
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt();
        assert!(norm < 0.05, "norm {norm}");
        assert_eq!(adam.steps(), 400);
    }

    #[test]
    fn adam_fits_linear_regression() {
        // y = x @ W* ; recover W* from noisy-free samples.
        let mut rng = StdRng::seed_from_u64(3);
        let w_star = Tensor::from_vec(3, 1, vec![0.5, -1.0, 2.0]);
        let xs = Tensor::xavier(32, 3, &mut rng);
        let ys = xs.matmul(&w_star);

        let mut store = ParamStore::new();
        Linear::new(&mut store, &mut rng, "fit", 3, 1);
        let mut adam = Adam::new(AdamConfig {
            lr: 0.05,
            ..Default::default()
        });
        let mut last_loss = f32::INFINITY;
        for _ in 0..300 {
            // loss = mean((x·W + b - y)²) over the 32 samples.
            let mut diff = xs.matmul(store.get("fit.w"));
            let b = store.get("fit.b").data[0];
            for (d, y) in diff.data.iter_mut().zip(&ys.data) {
                *d += b - y;
            }
            last_loss = diff.data.iter().map(|d| d * d).sum::<f32>() / 32.0;
            let g = diff.map(|d| d / 16.0);
            let grads = BTreeMap::from([
                (
                    "fit.b".to_string(),
                    Tensor::from_vec(1, 1, vec![g.data.iter().sum()]),
                ),
                ("fit.w".to_string(), xs.transposed().matmul(&g)),
            ]);
            adam.step(&mut store, &grads);
        }
        assert!(last_loss < 1e-3, "regression did not converge: {last_loss}");
        let w = store.get("fit.w");
        for (a, b) in w.data.iter().zip(&w_star.data) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn grad_clip_limits_update_magnitude() {
        let mut store = ParamStore::new();
        store.insert("x", Tensor::zeros(1, 2));
        let mut adam = Adam::new(AdamConfig {
            lr: 1.0,
            grad_clip: 0.001,
            ..Default::default()
        });
        let mut grads = BTreeMap::new();
        grads.insert("x".to_string(), Tensor::from_vec(1, 2, vec![1e6, -1e6]));
        let norm = adam.step(&mut store, &grads);
        assert!(norm > 1e5);
        // Even with lr=1 and a huge gradient, Adam's normalized update is
        // bounded by lr; clipping keeps the moments sane too.
        assert!(store.get("x").data.iter().all(|x| x.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient_signal() {
        let mut store = ParamStore::new();
        store.insert("x", Tensor::ones(1, 2));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.5,
            grad_clip: 0.0,
            ..Default::default()
        });
        let mut grads = BTreeMap::new();
        grads.insert("x".to_string(), Tensor::zeros(1, 2));
        for _ in 0..10 {
            adam.step(&mut store, &grads);
        }
        assert!(store.get("x").data[0] < 1.0);
    }

    #[test]
    fn scaled_step_with_zero_lr_is_a_noop_on_params() {
        let mut store = ParamStore::new();
        store.insert("x", Tensor::ones(1, 2));
        let mut adam = Adam::new(AdamConfig::default());
        let mut grads = BTreeMap::new();
        grads.insert("x".to_string(), Tensor::ones(1, 2));
        adam.step_scaled(&mut store, &grads, 0.0);
        assert_eq!(store.get("x").data, vec![1.0, 1.0]);
        // Moments still advanced: a later full step behaves as step 2.
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn missing_grads_leave_params_untouched() {
        let mut store = ParamStore::new();
        store.insert("a", Tensor::ones(1, 1));
        store.insert("b", Tensor::ones(1, 1));
        let mut adam = Adam::new(AdamConfig::default());
        let mut grads = BTreeMap::new();
        grads.insert("a".to_string(), Tensor::ones(1, 1));
        adam.step(&mut store, &grads);
        assert_ne!(store.get("a").data[0], 1.0);
        assert_eq!(store.get("b").data[0], 1.0);
    }
}
