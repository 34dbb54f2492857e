//! The linearized ADMM's fixed operator with span-restricted products.

use pathrep_linalg::Matrix;
use std::ops::Range;

/// The operator `F` of one linearized-ADMM solve (the normalized `Σ`, or
/// the Cholesky factor `L` of `ΣΣᵀ` when `Σ` has more columns than rows),
/// held with its transpose and each row's non-zero column span.
///
/// `X·F` and `X·Fᵀ` run [`Matrix::matmul`]'s i-k-j accumulation, its
/// `x_ik == 0` skip and its row-block fan-out, except that the inner loop
/// for row `k` of the operator covers only that row's first through last
/// non-zero column. For the triangular `L` that halves every product. The results are
/// bit-identical to `matmul` for finite operands: each skipped term is
/// `x_ik·0.0 = ±0.0`, and an accumulator that starts at `+0.0` never
/// becomes `−0.0` under round-to-nearest addition, so adding `±0.0`
/// leaves it unchanged.
pub(crate) struct SpanOperator {
    f: Matrix,
    ft: Matrix,
    f_spans: Vec<Range<usize>>,
    ft_spans: Vec<Range<usize>>,
}

impl SpanOperator {
    pub(crate) fn new(f: Matrix) -> Self {
        let ft = f.transpose();
        SpanOperator {
            f_spans: row_spans(&f),
            ft_spans: row_spans(&ft),
            f,
            ft,
        }
    }

    /// `X·F`.
    pub(crate) fn apply(&self, x: &Matrix) -> Matrix {
        span_matmul(x, &self.f, &self.f_spans)
    }

    /// `X·Fᵀ`.
    pub(crate) fn apply_t(&self, x: &Matrix) -> Matrix {
        span_matmul(x, &self.ft, &self.ft_spans)
    }
}

/// Each row's first through last non-zero column; empty for a zero row.
fn row_spans(m: &Matrix) -> Vec<Range<usize>> {
    (0..m.nrows())
        .map(|k| {
            let row = m.row(k);
            match (
                row.iter().position(|&v| v != 0.0),
                row.iter().rposition(|&v| v != 0.0),
            ) {
                (Some(first), Some(last)) => first..last + 1,
                _ => 0..0,
            }
        })
        .collect()
}

/// `x·rhs` with row `k` of `rhs` read only over `spans[k]`. Records the
/// span-restricted work under the `matmul` kernel.
fn span_matmul(x: &Matrix, rhs: &Matrix, spans: &[Range<usize>]) -> Matrix {
    assert_eq!(x.ncols(), rhs.nrows(), "operator shape mismatch");
    let (m, n) = (x.nrows(), rhs.ncols());
    let span_sum: usize = spans.iter().map(ExactSizeIterator::len).sum();
    let elements = m * x.ncols() + span_sum + m * n;
    pathrep_obs::work::record(
        "matmul",
        (2 * m * span_sum) as u64,
        (8 * elements) as u64,
        elements as u64,
    );
    let mut c = Matrix::zeros(m, n);
    pathrep_par::for_each_unit_chunk_mut(c.as_mut_slice(), n, 2 * span_sum, |first, block| {
        for (di, c_row) in block.chunks_exact_mut(n).enumerate() {
            for (k, &xik) in x.row(first + di).iter().enumerate() {
                if xik == 0.0 {
                    continue;
                }
                let span = spans[k].clone();
                for (cj, &fj) in c_row[span.clone()].iter_mut().zip(&rhs.row(k)[span]) {
                    *cj += xik * fj;
                }
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_first_to_last_non_zero() {
        let m = Matrix::from_rows(&[
            &[0.0, 2.0, 0.0, 3.0, 0.0],
            &[0.0; 5],
            &[-0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert_eq!(row_spans(&m), vec![1..4, 0..0, 4..5]);
    }
}
