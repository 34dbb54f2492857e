//! Seeded Monte-Carlo sampling of the standardized variation vector.

use pathrep_linalg::gauss;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Draws iid standard-normal variation vectors `x ~ N(0, I)`.
///
/// All entries of the paper's `x` are independent by construction (the
/// hierarchical model has already decorrelated the spatial components), so
/// sampling is a plain iid draw.
///
/// # Example
///
/// ```
/// use pathrep_variation::sampler::VariationSampler;
///
/// let mut sampler = VariationSampler::new(3, 42);
/// let x = sampler.draw();
/// assert_eq!(x.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct VariationSampler {
    dim: usize,
    rng: StdRng,
}

impl VariationSampler {
    /// Creates a sampler for `dim`-dimensional variation vectors.
    pub fn new(dim: usize, seed: u64) -> Self {
        VariationSampler {
            dim,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Dimension of the sampled vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draws the next variation vector.
    pub fn draw(&mut self) -> Vec<f64> {
        let mut x = vec![0.0; self.dim];
        self.draw_into(&mut x);
        x
    }

    /// Draws the next variation vector into `out`, consuming the stream
    /// exactly as [`VariationSampler::draw`] does — so interleaving the
    /// two yields the same sequence of vectors.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn draw_into(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "draw_into buffer must have length dim");
        gauss::fill_standard_normal(&mut self.rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = VariationSampler::new(5, 1);
        let mut b = VariationSampler::new(5, 1);
        assert_eq!(a.draw(), b.draw());
    }

    #[test]
    fn draw_into_stream_equals_draw_stream() {
        let mut a = VariationSampler::new(7, 13);
        let mut b = VariationSampler::new(7, 13);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut buf = vec![0.0; 7];
        for _ in 0..50 {
            b.draw_into(&mut buf);
            assert_eq!(bits(&a.draw()), bits(&buf));
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = VariationSampler::new(5, 1);
        let mut b = VariationSampler::new(5, 2);
        assert_ne!(a.draw(), b.draw());
    }

    #[test]
    fn moments_are_standard() {
        let mut s = VariationSampler::new(4, 99);
        let n = 20_000;
        let mut sum = [0.0; 4];
        let mut sumsq = [0.0; 4];
        for _ in 0..n {
            let x = s.draw();
            for j in 0..4 {
                sum[j] += x[j];
                sumsq[j] += x[j] * x[j];
            }
        }
        for j in 0..4 {
            let mean = sum[j] / n as f64;
            let var = sumsq[j] / n as f64 - mean * mean;
            assert!(mean.abs() < 0.05);
            assert!((var - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn cross_coordinate_independence() {
        let mut s = VariationSampler::new(2, 7);
        let n = 20_000;
        let mut cross = 0.0;
        for _ in 0..n {
            let x = s.draw();
            cross += x[0] * x[1];
        }
        assert!((cross / n as f64).abs() < 0.05);
    }
}
