"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v`` (one PASSED/FAILED line per criterion) or ``-s`` to see
the CRITERION summary lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fibercert.cones import estimate_dual_cone
from fibercert.dataio import emit_certificate, sweep_to_csv
from fibercert.geometry import convex_hull, directional_extrema
from fibercert.laurent import char_poly, degree_extrema, mat_pow
from fibercert.pipeline import sweep, verify_certificate
from fibercert.trackmap import (
    build_transition_matrix,
    oracle_iterate,
    support_of_power,
)

from conftest import tuple_state_walk

R1_CLASSES = [(1, 2 * j + 9) for j in range(20)]
R1_PMAX = 32
R2_CLASSES = [(1, j, j * j + 1) for j in range(7, 21)]
R2_PMAX = 16


def _report(k: int, detail: str) -> None:
    print(f"CRITERION {k}: PASS — {detail}")


@pytest.fixture(scope="module")
def r1_sweep(r1, r1_models, r1_hash):
    dual, cone, P = r1_models
    return sweep(r1, dual, cone, P, R1_CLASSES, R1_PMAX, r1_hash)


@pytest.fixture(scope="module")
def r2_sweep(r2, r2_models, r2_hash):
    dual, cone, P = r2_models
    return sweep(r2, dual, cone, P, R2_CLASSES, R2_PMAX, r2_hash,
                 allow_mirror=True)


def test_criterion_1_oracle_equivalence(r1, r2):
    """Each route holds only hulls; both must equal the hull of the points
    that the tuple-state reference walk occupies."""
    start = time.monotonic()
    checked = 0
    for track in (r1, r2):
        walk = oracle_iterate(track, 8)
        for p, points in enumerate(tuple_state_walk(track, 8)):
            hull = tuple(convex_hull(points))
            assert support_of_power(track, p) == hull, f"semiring hull mismatch at p={p}"
            assert walk[p] == hull, f"oracle hull mismatch at p={p}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (limit 60s)"
    _report(1, f"{checked} powers: the semiring and path-substitution hulls "
               f"both equal the hull of the reference walk's points, in {elapsed:.1f}s")


def test_criterion_2_degree_inequality(r1, r1_models, r2, r2_models):
    checked = 0
    for track, models in ((r1, r1_models), (r2, r2_models)):
        dual, _, _ = models
        M = build_transition_matrix(track)
        Mp = M
        for p in range(1, 11):
            F = char_poly(Mp)
            supp = support_of_power(track, p)
            for f in dual.facets:
                dd = degree_extrema(F, f.u)
                n1 = directional_extrema(supp, f.u)[1]
                for k in range(1, F.dim + 1):
                    ak = dd.a[k - 1]
                    if ak is None:
                        continue
                    assert Fraction(ak, k) <= n1, (
                        f"a_{k}({p})/{k} = {Fraction(ak, k)} > N'1 = {n1} "
                        f"in direction {f.u}"
                    )
                    checked += 1
            Mp = Mp * M
    _report(2, f"{checked} exact comparisons a_k(p)/k <= N'1(p), "
               "p <= 10, zero violations")


def test_criterion_3_slope_convergence(r1):
    start = time.monotonic()
    k0 = r1.k0
    assert k0 is not None
    dirs = [(1,), (-1,)]
    for u in dirs:
        lo0, hi0 = directional_extrema(support_of_power(r1, k0), u)
        C = hi0 - lo0
        # Certified slope: min over the full window of N'1(p)/p.
        ratios = {p: Fraction(directional_extrema(support_of_power(r1, p), u)[1], p)
                  for p in range(k0, 201)}
        A = min(ratios.values())
        for p, ratio in ratios.items():
            assert abs(ratio - A) <= Fraction(C, p), (
                f"|N'1({p})/{p} - {A}| > {C}/{p} in direction {u}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s (limit 300s)"
    _report(3, f"|N'1(p)/p - A| <= C/p for {k0} <= p <= 200 in both facet "
               f"directions, exact, in {elapsed:.1f}s")


def test_criterion_4_cone_containment(r1, r2):
    """The C-fattened dual cone is convex, so it holds every support point of
    a power exactly when it holds that power's hull vertices."""
    start = time.monotonic()
    vertices = 0
    for track in (r1, r2):
        dual = estimate_dual_cone(track, 20)
        for p in range(0, 201):
            for x in support_of_power(track, p):
                assert dual.contains_fattened(x + (p,)), (
                    f"support hull vertex {x} at power {p} escapes the "
                    f"C-fattened dual cone (C={dual.C})"
                )
                vertices += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 4 took {elapsed:.1f}s (limit 30s)"
    _report(4, f"all {vertices} support hull vertices for p <= 200 lie in "
               f"the C-fattened dual cone, zero violations, in {elapsed:.1f}s")


def test_criterion_5_covolume_bound(r1_sweep):
    from fibercert.lattice import FiberedClass, perp_basis

    c_P = 1  # computed: the projected kernel covolume is exactly n
    rows = [row for row in r1_sweep if not row.status.startswith("skipped")]
    assert len(rows) >= 20
    for row in rows:
        assert row.covol2 == c_P * row.n ** 2, (
            f"covolume of {row.alpha} is not c_P * n"
        )
    # Exact r = 1 inequality sqrt(n^2 + p^2) >= n with equality iff p = 0.
    for alpha in [(0, 1)] + R1_CLASSES + [(3, 5), (-2, 7)]:
        L = perp_basis(FiberedClass(alpha))
        p, n = alpha
        ambient_covol2 = sum(v * v for v in L.basis[0])  # Gram determinant of one row
        assert ambient_covol2 == n * n + p * p
        assert ambient_covol2 >= n * n
        assert (ambient_covol2 == n * n) == (p == 0)
    _report(5, f"{len(rows)} primitive classes satisfy covol = c_P * n "
               "(c_P = 1); ambient sqrt(n^2 + p^2) >= n, equality iff p = 0")


def test_criterion_6_deep_point_scaling(r2_sweep):
    rows = [row for row in r2_sweep if row.status == "ok"]
    assert len(rows) >= 10
    rows.sort(key=lambda row: row.n)
    upper = rows[len(rows) // 2:]
    ns = np.array([float(row.n) for row in upper])
    dists = np.array([float(row.deep_dist2) ** 0.5 for row in upper])
    exponent = float(np.polyfit(np.log(ns), np.log(dists), 1)[0])
    assert 0.35 <= exponent <= 0.65, (
        f"deep-point distance exponent {exponent:.4f} outside [0.35, 0.65]"
    )
    _report(6, f"fitted min-distance exponent {exponent:.4f} in "
               f"[0.35, 0.65] over the upper half ({len(upper)} classes)")


def test_criterion_7_certificate_soundness(r1, r1_hash, r2, r2_hash,
                                           r1_sweep, r2_sweep):
    from dataclasses import replace

    start = time.monotonic()
    verified = 0
    for track, ds_hash, rows in ((r1, r1_hash, r1_sweep),
                                 (r2, r2_hash, r2_sweep)):
        for row in rows:
            cert = row.certificate
            if cert is None or cert.mode != "certified" or cert.status != "ok":
                continue
            assert verify_certificate(cert, track, ds_hash).status == "pass", (
                f"certified certificate for {cert.alpha} failed verification"
            )
            verified += 1
    assert verified >= 20
    # Mutation tests on one certified certificate.
    cert = next(row.certificate for row in r1_sweep
                if row.certificate and row.certificate.status == "ok")
    mutations = {
        "deep-point-in-obstacle": replace(cert, deep_point=(0,) * cert.rank),
        "power-collision": replace(
            cert, K=cert.K + 1, bound=Fraction(2, cert.n * (cert.K + 1))),
        "deep-point-outside-box": replace(
            cert, deep_point=(cert.box_radius + 1,) * cert.rank,
            K=cert.p_max, bound=Fraction(2, cert.n * cert.p_max)),
    }
    for want, mutant in mutations.items():
        res = verify_certificate(mutant, r1, r1_hash)
        assert (res.status, res.reason) == ("fail", want), (
            f"mutation expected {want!r}, got {res}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 7 took {elapsed:.1f}s (limit 30s)"
    _report(7, f"{verified}/{verified} certified certificates verify; "
               f"3 mutations fail with the expected named predicates, in {elapsed:.1f}s")


def test_criterion_8_bound_scaling(r1_sweep):
    start = time.monotonic()
    rows = [row for row in r1_sweep
            if row.status == "ok" and row.K < R1_PMAX]
    assert len(rows) >= 15
    rows.sort(key=lambda row: row.n)
    upper = rows[len(rows) // 2:]
    stats = [row.bound * row.n ** 2 for row in upper]
    ratio = max(stats) / min(stats)
    assert ratio <= 10, f"normalized bound max/min ratio {float(ratio):.3f} > 10"
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    _report(8, f"{len(rows)} certified classes; bound * n^2 max/min ratio "
               f"{float(ratio):.3f} <= 10 over the upper half")


def test_criterion_9_determinism(fresh_map, r1_hash, r2_hash, r1_sweep, r2_sweep):
    """Each repeat sweeps maps loaded anew, with their models rebuilt, so it
    re-derives every memoized base instead of reading the first sweep's."""
    def certs(rows):
        return [emit_certificate(row.certificate) for row in rows if row.certificate]

    for repeat in (1, 2):
        track, dual, cone, P = fresh_map("r1")
        again_r1 = sweep(track, dual, cone, P, R1_CLASSES, R1_PMAX, r1_hash)
        assert sweep_to_csv(again_r1) == sweep_to_csv(r1_sweep), (
            f"r1 sweep differs on repeat {repeat}")
        track, dual, cone, P = fresh_map("r2")
        again_r2 = sweep(track, dual, cone, P, R2_CLASSES, R2_PMAX, r2_hash,
                         allow_mirror=True)
        assert sweep_to_csv(again_r2) == sweep_to_csv(r2_sweep), (
            f"r2 sweep differs on repeat {repeat}")
        # Certificate artifacts are byte-stable too.
        assert certs(again_r1) == certs(r1_sweep)
        assert certs(again_r2) == certs(r2_sweep)
    _report(9, "sweep CSVs and certificate JSON byte-identical across "
               "repeat runs")
