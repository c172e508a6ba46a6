"""
Rediscovering eigenfunctions by nonlinear least squares
=======================================================

The two exact conditions -- vanishing Laplacian and vanishing bilinear
gradient square -- constrain the coefficients of a degree-d candidate.  The
first is linear, so it is solved once: the candidates are kept among the
harmonic polynomials, and each random start is projected onto them.  The
second is quadratic; Levenberg-Marquardt drives it to zero from the
projected starts.  Rounding the winners to small Gaussian rationals then
hands the result back to the exact verifier, turning a numeric hit into a
proof.
"""

from eigensphere import render, search_eigen, verify_eigenfunction

for degree in (1, 2):
    print(f"degree {degree} search in 4 variables (50 starts):")
    results = search_eigen(nvars=4, degree=degree, attempts=50, rng_seed=7)

    hits = [r for r in results if r.residual < 1e-10]
    print(f"   {len(hits)} of {len(results)} starts reached residual < 1e-10 "
          f"(best {results[0].residual:.2e})")

    exact = [r for r in results if r.exact is not None]
    if exact:
        best = exact[0].exact
        report = verify_eigenfunction(best, n=3)
        print(f"   exactly recovered: {render(best)}")
        print(f"   verified on S^3: lambda = {report.lam}, mu = {report.mu}")
    else:
        print("   no candidate rounded to an exact eigenfunction at this seed")
    print()
