//! A minimal dense 2D tensor.
//!
//! Everything in the encoder is expressible with rank-2 tensors: a token
//! sequence is `T x D`, a weight matrix is `In x Out`, a bias or an embedding
//! is `1 x D`, and a scalar loss is `1 x 1`. Keeping the rank fixed keeps
//! every forward and backward rule a plain loop over rows.

use rand::Rng;
use serde::{DeError, Deserialize, Deserializer, Serialize};

/// A dense row-major 2D tensor of `f32` (the default is `0 x 0`).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data; `data.len() == rows * cols`.
    pub data: Vec<f32>,
}

/// Hand-written over a derived mirror: tensors are read from model
/// files, and a shape that disagrees with the data (or whose product
/// overflows) must be an error here, not a tensor for [`crate::kernels`]
/// to refuse later.
impl Deserialize for Tensor {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Tensor {
            rows: usize,
            cols: usize,
            data: Vec<f32>,
        }
        let Tensor { rows, cols, data } = Tensor::deserialize(de)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(DeError(format!(
                "tensor data holds {} values but its shape is {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Builds a tensor from row-major data.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Xavier/Glorot-uniform initialization for a `rows x cols` weight.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Tensor { rows, cols, data }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The scalar value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// If the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "item() on non-scalar tensor"
        );
        self.data[0]
    }

    /// Matrix multiplication `self (R x K) @ other (K x C) -> R x C`:
    /// [`crate::kernels::matmul`], the register-tiled kernel on the widest
    /// instruction set the CPU has, so the losses share inference's
    /// matmul. Every variant is `==`-equal to the scalar reference loop,
    /// so trained weights do not depend on the host.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        crate::kernels::matmul(self, other)
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place `self += other * scale`.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }
}

/// Adds `delta` into a gradient `slot` as reverse-mode accumulation does:
/// the first share is stored as it is (a `-0.0` stays `-0.0`), each later
/// one added to the sum.
pub(crate) fn accumulate(slot: &mut Option<Tensor>, delta: Tensor) {
    match slot {
        Some(sum) => sum.add_scaled(&delta, 1.0),
        None => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(2, 3);
        t.row_mut(1)[2] = 5.0;
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows, 2);
        assert_eq!(c.cols, 2);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_checks_dims() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transposed();
        assert_eq!(t.rows, 3);
        assert_eq!(t.row(2)[1], 6.0);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn xavier_within_limit_and_seeded() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::xavier(16, 16, &mut rng);
        let limit = (6.0 / 32.0f32).sqrt();
        assert!(t.data.iter().all(|x| x.abs() <= limit));
        let mut rng2 = StdRng::seed_from_u64(42);
        let t2 = Tensor::xavier(16, 16, &mut rng2);
        assert_eq!(t, t2);
    }

    #[test]
    fn deserialize_checks_the_shape_against_the_data() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<Tensor>(&json).unwrap(), t);
        for (json, why) in [
            (r#"{"rows":2,"cols":64,"data":[1.0]}"#, "1 values"),
            (r#"{"rows":1,"cols":1,"data":[1.0,2.0]}"#, "2 values"),
            (r#"{"rows":1e19,"cols":1e19,"data":[]}"#, "0 values"),
            (r#"{"rows":2,"data":[1.0,2.0]}"#, "missing field"),
        ] {
            let err = serde_json::from_str::<Tensor>(json).expect_err(json);
            assert!(err.to_string().contains(why), "{json}: {err}");
        }
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic(expected = "non-scalar")]
    fn item_panics_on_matrix() {
        let _ = Tensor::zeros(2, 2).item();
    }

    #[test]
    fn add_scaled_and_norm() {
        let mut a = Tensor::ones(1, 4);
        let b = Tensor::full(1, 4, 2.0);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data, vec![2.0; 4]);
    }
}
