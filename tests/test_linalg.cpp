// Tests for the dense linear algebra kernels: GEMM, Householder QR,
// least squares, and the recursive row-append QR update the hard weight
// computation depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "kernels/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace ppstap::linalg {
namespace {

MatrixCD random_matrix(index_t rows, index_t cols, Rng& rng) {
  MatrixCD m(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) m(i, j) = rng.cnormal();
  return m;
}

// A^H A computed directly — the Gram matrix is the invariant both full QR
// and the row-append update must preserve (R is unique up to column phase).
MatrixCD gram(const MatrixCD& a) {
  MatrixCD g;
  matmul(a, Op::kConjTrans, a, Op::kNone, g);
  return g;
}

TEST(Matrix, BasicAccessAndShape) {
  MatrixCD m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  m(2, 3) = cdouble(1.0, -2.0);
  EXPECT_EQ(m(2, 3), cdouble(1.0, -2.0));
  EXPECT_EQ(m(0, 0), cdouble(0.0, 0.0));
}

TEST(Matrix, IdentityScaled) {
  auto eye = MatrixCD::identity(3, cdouble(2.0, 0.0));
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j)
      EXPECT_EQ(eye(i, j), i == j ? cdouble(2.0, 0.0) : cdouble(0.0, 0.0));
}

TEST(Gemm, MatchesHandComputedProduct) {
  MatrixCD a(2, 3), b(3, 2);
  int v = 1;
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 3; ++j) a(i, j) = cdouble(v++, 0);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 2; ++j) b(i, j) = cdouble(v++, 0);
  auto c = matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_EQ(c(0, 0), cdouble(58, 0));
  EXPECT_EQ(c(0, 1), cdouble(64, 0));
  EXPECT_EQ(c(1, 0), cdouble(139, 0));
  EXPECT_EQ(c(1, 1), cdouble(154, 0));
}

TEST(Gemm, HermitianTransposeAgreesWithExplicit) {
  Rng rng(11);
  auto a = random_matrix(5, 3, rng);
  auto b = random_matrix(5, 4, rng);
  auto c = matmul_herm(a, b);  // A^H B
  // Explicitly conjugate-transpose A, then plain multiply.
  MatrixCD ah(3, 5);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 3; ++j) ah(j, i) = std::conj(a(i, j));
  auto ref = matmul(ah, b);
  EXPECT_LT(frobenius_distance(c, ref), 1e-12);
}

TEST(Gemm, ShapeMismatchThrows) {
  MatrixCD a(2, 3), b(4, 2), c;
  EXPECT_THROW(matmul(a, Op::kNone, b, Op::kNone, c), Error);
}

TEST(Gemm, MatvecMatchesMatmul) {
  Rng rng(3);
  auto a = random_matrix(4, 3, rng);
  std::vector<cdouble> x = {rng.cnormal(), rng.cnormal(), rng.cnormal()};
  auto y = matvec(a, Op::kNone, std::span<const cdouble>(x));
  for (index_t i = 0; i < 4; ++i) {
    cdouble acc{};
    for (index_t j = 0; j < 3; ++j) acc += a(i, j) * x[static_cast<size_t>(j)];
    EXPECT_NEAR(std::abs(y[static_cast<size_t>(i)] - acc), 0.0, 1e-12);
  }
}

TEST(Qr, ReconstructionViaGram) {
  Rng rng(17);
  for (auto [m, n] : {std::pair<index_t, index_t>{8, 8},
                      {20, 5},
                      {16, 16},
                      {50, 12}}) {
    auto a = random_matrix(m, n, rng);
    QrFactorization<cdouble> qr(a);
    auto r = qr.r();
    // R must be upper triangular.
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < i; ++j)
        EXPECT_EQ(r(i, j), cdouble(0.0, 0.0));
    // R^H R == A^H A (Q drops out).
    EXPECT_LT(frobenius_distance(gram(r), gram(a)),
              1e-10 * (1.0 + frobenius_norm(gram(a))))
        << "m=" << m << " n=" << n;
  }
}

TEST(Qr, ApplyQhPreservesNorm) {
  Rng rng(23);
  auto a = random_matrix(12, 6, rng);
  QrFactorization<cdouble> qr(a);
  auto b = random_matrix(12, 3, rng);
  const double before = frobenius_norm(b);
  qr.apply_qh(b);
  EXPECT_NEAR(frobenius_norm(b), before, 1e-10);
}

TEST(Qr, SolveSquareSystemExactly) {
  Rng rng(29);
  auto a = random_matrix(6, 6, rng);
  auto x_true = random_matrix(6, 2, rng);
  auto b = matmul(a, x_true);
  auto x = QrFactorization<cdouble>(a).solve(b);
  EXPECT_LT(frobenius_distance(x, x_true), 1e-10);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  Rng rng(31);
  auto a = random_matrix(40, 6, rng);
  auto b = random_matrix(40, 3, rng);
  auto x = least_squares(a, b);
  // Residual must be orthogonal to the column space: A^H (A x - b) = 0.
  auto ax = matmul(a, x);
  MatrixCD resid(40, 3);
  for (index_t i = 0; i < 40; ++i)
    for (index_t j = 0; j < 3; ++j) resid(i, j) = ax(i, j) - b(i, j);
  MatrixCD ortho;
  matmul(a, Op::kConjTrans, resid, Op::kNone, ortho);
  EXPECT_LT(frobenius_norm(ortho), 1e-9);
}

TEST(Qr, RowsLessThanColsThrows) {
  MatrixCD a(3, 5);
  EXPECT_THROW(QrFactorization<cdouble>{a}, Error);
}

TEST(BackSubstitute, SingularDiagonalThrows) {
  MatrixCD r(2, 2);
  r(0, 0) = cdouble(1, 0);
  r(0, 1) = cdouble(2, 0);
  r(1, 1) = cdouble(0, 0);  // singular
  MatrixCD b(2, 1);
  b(0, 0) = cdouble(1, 0);
  EXPECT_THROW(back_substitute(r, b), Error);
}

TEST(QrAppend, EqualsBatchQrOnStackedData) {
  Rng rng(37);
  const index_t n = 8, k = 5;
  auto a0 = random_matrix(12, n, rng);
  auto x = random_matrix(k, n, rng);
  auto r0 = QrFactorization<cdouble>(a0).r();

  auto r_updated = qr_append_rows(r0, x);

  // Batch reference: QR of [A0; X].
  MatrixCD stacked(12 + k, n);
  for (index_t i = 0; i < 12; ++i)
    for (index_t j = 0; j < n; ++j) stacked(i, j) = a0(i, j);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < n; ++j) stacked(12 + i, j) = x(i, j);
  auto r_batch = QrFactorization<cdouble>(stacked).r();

  EXPECT_LT(frobenius_distance(gram(r_updated), gram(r_batch)), 1e-9);
}

TEST(QrAppend, ResultIsUpperTriangular) {
  Rng rng(41);
  auto r0 = QrFactorization<cdouble>(random_matrix(10, 6, rng)).r();
  auto x = random_matrix(4, 6, rng);
  auto r1 = qr_append_rows(r0, x);
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < i; ++j) EXPECT_EQ(r1(i, j), cdouble(0.0, 0.0));
}

TEST(QrAppend, ForgettingFactorEquivalence) {
  // lambda-faded recursive update == batch QR of [lambda*A0; X].
  Rng rng(43);
  const double lambda = 0.6;
  auto a0 = random_matrix(15, 5, rng);
  auto x = random_matrix(6, 5, rng);

  auto r0 = QrFactorization<cdouble>(a0).r();
  MatrixCD faded = r0;
  for (index_t i = 0; i < faded.rows(); ++i)
    for (index_t j = 0; j < faded.cols(); ++j) faded(i, j) *= lambda;
  auto r_rec = qr_append_rows(faded, x);

  MatrixCD stacked(15 + 6, 5);
  for (index_t i = 0; i < 15; ++i)
    for (index_t j = 0; j < 5; ++j) stacked(i, j) = lambda * a0(i, j);
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 5; ++j) stacked(15 + i, j) = x(i, j);
  auto r_batch = QrFactorization<cdouble>(stacked).r();

  EXPECT_LT(frobenius_distance(gram(r_rec), gram(r_batch)), 1e-9);
}

TEST(QrAppend, ChainOfUpdatesStaysConsistent) {
  // Many successive appends == one batch factorization.
  Rng rng(47);
  const index_t n = 6;
  MatrixCD all(0, n);
  auto r = MatrixCD::identity(n, cdouble(1e-9, 0));  // tiny seed
  std::vector<MatrixCD> blocks;
  for (int step = 0; step < 5; ++step)
    blocks.push_back(random_matrix(4, n, rng));

  index_t total = 0;
  for (const auto& b : blocks) total += b.rows();
  MatrixCD stacked(total, n);
  index_t row = 0;
  for (const auto& b : blocks) {
    r = qr_append_rows(r, b);
    for (index_t i = 0; i < b.rows(); ++i, ++row)
      for (index_t j = 0; j < n; ++j) stacked(row, j) = b(i, j);
  }
  auto r_batch = QrFactorization<cdouble>(stacked).r();
  EXPECT_LT(frobenius_distance(gram(r), gram(r_batch)), 1e-8);
}

// Property sweep: QR invariants across a grid of shapes.
class QrShapeSweep
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(QrShapeSweep, GramPreservedAndTriangular) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n));
  auto a = random_matrix(m, n, rng);
  QrFactorization<cdouble> qr(a);
  auto r = qr.r();
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < i; ++j) EXPECT_EQ(r(i, j), cdouble(0.0, 0.0));
  EXPECT_LT(frobenius_distance(gram(r), gram(a)),
            1e-9 * (1.0 + frobenius_norm(gram(a))));
}

using Shape = std::pair<index_t, index_t>;
INSTANTIATE_TEST_SUITE_P(Shapes, QrShapeSweep,
                         ::testing::Values(Shape{1, 1}, Shape{2, 1},
                                           Shape{3, 3}, Shape{7, 2},
                                           Shape{16, 16}, Shape{33, 7},
                                           Shape{64, 32}, Shape{100, 16},
                                           Shape{128, 32}));

// All op-combination correctness against the naive indexed reference.
struct GemmCase {
  index_t m, k, n;
  Op op_a, op_b;
};

class GemmOpSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmOpSweep, MatchesNaiveReference) {
  const auto cs = GetParam();
  Rng rng(static_cast<std::uint64_t>(cs.m * 100 + cs.k * 10 + cs.n));
  // Stored shapes depend on the ops.
  const auto a = random_matrix(cs.op_a == Op::kNone ? cs.m : cs.k,
                               cs.op_a == Op::kNone ? cs.k : cs.m, rng);
  const auto b = random_matrix(cs.op_b == Op::kNone ? cs.k : cs.n,
                               cs.op_b == Op::kNone ? cs.n : cs.k, rng);
  MatrixCD c;
  matmul(a, cs.op_a, b, cs.op_b, c);
  ASSERT_EQ(c.rows(), cs.m);
  ASSERT_EQ(c.cols(), cs.n);
  for (index_t i = 0; i < cs.m; ++i)
    for (index_t j = 0; j < cs.n; ++j) {
      cdouble acc{};
      for (index_t p = 0; p < cs.k; ++p) {
        const cdouble av =
            cs.op_a == Op::kNone ? a(i, p) : std::conj(a(p, i));
        const cdouble bv =
            cs.op_b == Op::kNone ? b(p, j) : std::conj(b(j, p));
        acc += av * bv;
      }
      EXPECT_LT(std::abs(c(i, j) - acc), 1e-11 * (1.0 + std::abs(acc)));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, GemmOpSweep,
    ::testing::Values(GemmCase{3, 4, 5, Op::kNone, Op::kNone},
                      GemmCase{3, 4, 5, Op::kConjTrans, Op::kNone},
                      GemmCase{3, 4, 5, Op::kNone, Op::kConjTrans},
                      GemmCase{3, 4, 5, Op::kConjTrans, Op::kConjTrans},
                      GemmCase{1, 1, 1, Op::kNone, Op::kNone},
                      GemmCase{16, 32, 6, Op::kConjTrans, Op::kNone},
                      GemmCase{7, 1, 9, Op::kNone, Op::kConjTrans}));

TEST(Gemm, FlopCountingMatchesFormula) {
  Rng rng(71);
  auto a = random_matrix(6, 7, rng);
  auto b = random_matrix(7, 8, rng);
  FlopScope scope;
  auto c = matmul(a, b);
  EXPECT_EQ(scope.count(), 6ull * 7 * 8 * 8);  // complex FMA = 8 flops
}

TEST(Qr, NearSingularColumnsStillFactor) {
  // Two nearly identical columns: QR must not blow up, and the Gram
  // identity must still hold to a scaled tolerance.
  Rng rng(73);
  auto a = random_matrix(20, 4, rng);
  for (index_t i = 0; i < 20; ++i)
    a(i, 3) = a(i, 2) + cdouble(1e-9, 0) * a(i, 0);
  QrFactorization<cdouble> qr(a);
  auto r = qr.r();
  EXPECT_LT(frobenius_distance(gram(r), gram(a)),
            1e-8 * (1.0 + frobenius_norm(gram(a))));
}

TEST(QrAppend, ZeroRowBlockIsIdentityUpToPhase) {
  Rng rng(79);
  auto r0 = QrFactorization<cdouble>(random_matrix(10, 5, rng)).r();
  MatrixCD zeros(3, 5);
  auto r1 = qr_append_rows(r0, zeros);
  EXPECT_LT(frobenius_distance(gram(r1), gram(r0)), 1e-10);
}

// The row append carrying right-hand sides solves the stacked system: with
// R upper triangular, back_substitute(R_new, rhs) after
// qr_append_rows(R, C, &rhs, &xrhs) is the least-squares solution of
// [R; C] W = [rhs; xrhs] — the hard weight solve's structure. Returns the
// worst elementwise difference against a dense QR solve of the stacked
// system, relative to the solution's largest entry.
template <typename T>
double append_solve_vs_dense(const Matrix<T>& r, const Matrix<T>& c,
                             const Matrix<T>& rhs, const Matrix<T>& xrhs) {
  const index_t n = r.rows(), k = c.rows(), p = rhs.cols();
  Matrix<T> top = rhs, bottom = xrhs;
  const Matrix<T> r_new = qr_append_rows(r, c, &top, &bottom);
  back_substitute(r_new, top);

  Matrix<T> a(n + k, n), b(n + k, p);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i; j < n; ++j) a(i, j) = r(i, j);
    for (index_t j = 0; j < p; ++j) b(i, j) = rhs(i, j);
  }
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) a(n + i, j) = c(i, j);
    for (index_t j = 0; j < p; ++j) b(n + i, j) = xrhs(i, j);
  }
  const Matrix<T> dense = QrFactorization<T>(a).solve(b);
  double worst = 0.0, scale = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < p; ++j) {
      worst = std::max<double>(worst, std::abs(top(i, j) - dense(i, j)));
      scale = std::max<double>(scale, std::abs(dense(i, j)));
    }
  return worst / std::max(scale, 1e-300);
}

TEST(QrAppend, RightHandSidesSolveStackedSystem) {
  Rng rng(83);
  const index_t n = 8, p = 3;
  const auto r = QrFactorization<cdouble>(random_matrix(12, n, rng)).r();
  for (index_t k : {0, 1, 5}) {  // k = 0: C has no rows, W = R^-1 rhs
    const auto c = random_matrix(k, n, rng);
    const auto rhs = random_matrix(n, p, rng);
    const auto xrhs = random_matrix(k, p, rng);
    EXPECT_LT(append_solve_vs_dense(r, c, rhs, xrhs), 1e-10) << "k=" << k;
  }
}

TEST(QrAppend, RightHandSidesMustComeInPairs) {
  Rng rng(85);
  const auto r = QrFactorization<cdouble>(random_matrix(6, 4, rng)).r();
  auto rhs = random_matrix(4, 2, rng);
  auto bad = random_matrix(3, 2, rng);  // must be k x p = 2 x 2
  EXPECT_THROW(qr_append_rows(r, random_matrix(2, 4, rng), &rhs), Error);
  EXPECT_THROW(qr_append_rows(r, random_matrix(2, 4, rng), &rhs, &bad),
               Error);
}

// Sample precision at the hard solve's shape (2J = 32 columns, J = 16
// constraint rows, M = 6 beams), at every dispatch level: within the
// vector-aware 1e-4 relative bound of DESIGN §13.
TEST(QrAppendFloat, RightHandSidesSolveStackedSystem) {
  const kernels::SimdLevel saved = kernels::simd_level();
  std::vector<kernels::SimdLevel> levels{kernels::SimdLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(kernels::SimdLevel::kAvx2);
  Rng rng(89);
  const auto to_float = [](const MatrixCD& m) {
    Matrix<cfloat> f(m.rows(), m.cols());
    for (index_t i = 0; i < m.size(); ++i)
      f.data()[i] = cfloat(static_cast<float>(m.data()[i].real()),
                           static_cast<float>(m.data()[i].imag()));
    return f;
  };
  const auto r =
      to_float(QrFactorization<cdouble>(random_matrix(64, 32, rng)).r());
  for (kernels::SimdLevel lvl : levels) {
    kernels::force_simd_level(lvl);
    for (index_t k : {0, 16}) {
      const auto c = to_float(random_matrix(k, 32, rng));
      const auto rhs = to_float(random_matrix(32, 6, rng));
      const auto xrhs = to_float(random_matrix(k, 6, rng));
      EXPECT_LT(append_solve_vs_dense(r, c, rhs, xrhs), 1e-4)
          << "k=" << k << " level=" << static_cast<int>(lvl);
    }
  }
  kernels::force_simd_level(saved);
}

// Float-precision instantiation sanity: the pipeline runs in cfloat.
TEST(QrFloat, SolveIsAccurateEnough) {
  Rng rng(53);
  Matrix<cfloat> a(30, 8), b(30, 2);
  for (index_t i = 0; i < 30; ++i) {
    for (index_t j = 0; j < 8; ++j) {
      auto z = rng.cnormal();
      a(i, j) = cfloat(static_cast<float>(z.real()),
                       static_cast<float>(z.imag()));
    }
    for (index_t j = 0; j < 2; ++j) {
      auto z = rng.cnormal();
      b(i, j) = cfloat(static_cast<float>(z.real()),
                       static_cast<float>(z.imag()));
    }
  }
  auto x = least_squares(a, b);
  auto ax = matmul(a, x);
  Matrix<cfloat> resid(30, 2);
  for (index_t i = 0; i < 30; ++i)
    for (index_t j = 0; j < 2; ++j) resid(i, j) = ax(i, j) - b(i, j);
  Matrix<cfloat> ortho;
  matmul(a, Op::kConjTrans, resid, Op::kNone, ortho);
  EXPECT_LT(frobenius_norm(ortho), 1e-3f);
}

}  // namespace
}  // namespace ppstap::linalg
