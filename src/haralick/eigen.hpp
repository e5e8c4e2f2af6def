// Small dense symmetric eigensolver (cyclic Jacobi).
//
// Needed by Haralick feature f14 (maximal correlation coefficient), which is
// the square root of the second-largest eigenvalue of Q(i,j) =
// sum_k p(i,k) p(j,k) / (px(i) py(k)). Q is similar to the symmetric PSD
// matrix A A^T with A = Dx^{-1/2} P Dy^{-1/2}, so a symmetric solver suffices.
#pragma once

#include <vector>

namespace h4d::haralick {

/// Eigenvalues of a dense symmetric n x n matrix stored row-major in `a`
/// (destroyed). Returned sorted in descending order.
///
/// Cyclic Jacobi; converges quadratically, plenty for the Ng <= 256 matrices
/// this library produces. Throws std::invalid_argument on size mismatch.
/// Retained as the slow-but-simple oracle symmetric_lambda2 is tested against.
std::vector<double> symmetric_eigenvalues(std::vector<double> a, int n,
                                          int max_sweeps = 64, double tol = 1e-12);

/// Second-largest eigenvalue only — the quantity f14 actually needs.
/// Householder tridiagonalization followed by Sturm-count bisection on the
/// tridiagonal form; never computes the full spectrum. `a` (row-major,
/// destroyed) and the `d`/`e` scratch vectors are caller-owned so hot loops
/// can reuse them. Accurate to ~1e-13 absolute. Returns 0.0 for n < 2.
double symmetric_lambda2(std::vector<double>& a, int n, std::vector<double>& d,
                         std::vector<double>& e);

/// Convenience overload that owns its scratch.
double symmetric_lambda2(std::vector<double> a, int n);

}  // namespace h4d::haralick
