import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rkfw.tableau import (ButcherTableau, TABLEAU_NAMES, cancellability_margin,
                          feasibility_certificate, load_tableau_file,
                          make_tableau, resolve_tableau, stage_gammas,
                          validate_tableau)


def mixing_oracle(t, c, delta, k):
    """Dense-inverse version of the stage mix: P = G (I + A^T G)^{-1}."""
    g = np.diag(stage_gammas(t, c, delta, k))
    return g @ np.linalg.inv(np.eye(t.q) + t.a.T @ g)


def cert_oracle(t, c, delta, k):
    return t.q * (mixing_oracle(t, c, delta, k) @ t.weights)


def margin_oracle(weights):
    best = np.inf
    for signs in itertools.product((1.0, -1.0), repeat=len(weights)):
        best = min(best, abs(float(np.dot(signs, weights))))
    return best


def test_builtin_names():
    assert TABLEAU_NAMES == ("euler", "midpoint", "rk38", "rk44", "rk5")
    for name in TABLEAU_NAMES:
        t = make_tableau(name)
        assert validate_tableau(t) == []
        assert t.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="euler"):
        make_tableau("rk99")


def test_midpoint_certificate_exact_fractions():
    rep = feasibility_certificate(make_tableau("midpoint"), c=2.0, delta=1.0,
                                  k_max=2)
    (k1, z1), (k2, z2) = rep.z_by_k
    assert (k1, k2) == (1, 2)
    assert z1 == pytest.approx([-8 / 21, 8 / 7], abs=1e-15)
    assert z2 == pytest.approx([-2 / 9, 8 / 9], abs=1e-15)
    assert not rep.all_in_unit_interval


def test_euler_certificate_is_schedule():
    rep = feasibility_certificate(make_tableau("euler"), c=2.0, delta=1.0,
                                  k_max=5)
    for k, z in rep.z_by_k:
        assert z == pytest.approx([2.0 / (2.0 + k)], abs=1e-15)
    assert rep.all_in_unit_interval and rep.sup_norm_monotone


@pytest.mark.parametrize("name", TABLEAU_NAMES)
@pytest.mark.parametrize("k", [1, 2, 7])
def test_certificate_matches_dense_inverse(name, k):
    t = make_tableau(name)
    rep = feasibility_certificate(t, c=2.0, delta=1.0, k_max=k)
    z = dict(rep.z_by_k)[k]
    assert z == pytest.approx(cert_oracle(t, 2.0, 1.0, k), abs=1e-12)


@pytest.mark.parametrize("name", TABLEAU_NAMES)
def test_sup_norm_monotone_through_k200(name):
    rep = feasibility_certificate(make_tableau(name), c=2.0, delta=1.0,
                                  k_max=200)
    assert rep.sup_norm_monotone
    sups = [float(np.max(np.abs(z))) for _, z in rep.z_by_k]
    assert sups[-1] < sups[0]


def test_positive_certificates_for_four_schemes():
    # midpoint is the odd one out: its first coefficient goes negative
    for name in ("euler", "rk44", "rk38", "rk5"):
        rep = feasibility_certificate(make_tableau(name), c=2.0, delta=1.0,
                                      k_max=50)
        assert rep.all_in_unit_interval, name


def test_stage_gammas_shape_and_zero_stage():
    t = make_tableau("rk44")
    g = stage_gammas(t, c=2.0, delta=1.0, k=0)
    # first stage at k=0 takes the full atom jump
    assert g[0] == pytest.approx(1.0, abs=0)
    assert g.shape == (4,)
    assert np.all(np.diff(g) <= 0)


@given(st.sampled_from(TABLEAU_NAMES), st.floats(1.0, 10.0),
       st.floats(0.0, 2.0, exclude_min=True), st.integers(0, 20000))
def test_stage_gammas_match_the_array_expression(name, c, delta, k):
    t = make_tableau(name)
    want = delta * c / (c + delta * (k + t.offsets))
    assert stage_gammas(t, c, delta, k).tobytes() == want.tobytes()


def test_stage_terms_are_the_nonzero_entries_below_the_diagonal():
    t = make_tableau("rk38")
    assert t.stage_terms == ((), ((0, 1 / 3),), ((0, -1 / 3), (1, 1.0)),
                             ((0, 1.0), (1, -1.0), (2, 1.0)))
    assert t.weight_floats == (1 / 8, 3 / 8, 3 / 8, 1 / 8)
    assert make_tableau("rk5").stage_terms[3] == ((1, -1 / 2), (2, 1.0))


def test_cancellability_margins_frozen():
    assert cancellability_margin(make_tableau("euler").weights) == pytest.approx(1.0)
    assert cancellability_margin(make_tableau("midpoint").weights) == pytest.approx(1.0)
    assert cancellability_margin(make_tableau("rk44").weights) == pytest.approx(0.0, abs=1e-15)
    assert cancellability_margin(make_tableau("rk38").weights) == pytest.approx(0.0, abs=1e-15)
    assert cancellability_margin(make_tableau("rk5").weights) == pytest.approx(2 / 90, abs=1e-15)


@given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False),
                min_size=1, max_size=8))
def test_cancellability_margin_matches_enumeration(ws):
    assert cancellability_margin(ws) == pytest.approx(margin_oracle(ws), abs=1e-12)


def test_cancellability_margin_rejects_huge_q():
    with pytest.raises(ValueError, match="enumeration"):
        cancellability_margin(np.ones(21))


def test_validate_catches_upper_triangle():
    t = ButcherTableau("bad", [[0.0, 0.5], [0.5, 0.0]], [0.5, 0.5], [0.0, 0.5])
    assert any("lower triangular" in v for v in validate_tableau(t))


def test_validate_catches_weight_sum():
    t = ButcherTableau("bad", [[0.0, 0.0], [0.5, 0.0]], [0.5, 0.6], [0.0, 0.5])
    assert any("sum(weights)" in v for v in validate_tableau(t))


def test_validate_catches_offsets():
    t = ButcherTableau("bad", [[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.1, 0.5])
    assert any("first offset" in v for v in validate_tableau(t))
    t = ButcherTableau("bad", [[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 1.5])
    assert any("offsets must lie" in v for v in validate_tableau(t))


@pytest.mark.parametrize("a, weights, offsets", [
    ([[0.0, 0.0], [np.nan, 0.0]], [0.0, 1.0], [0.0, 0.5]),
    ([[0.0, 0.0], [0.5, 0.0]], [np.inf, -np.inf], [0.0, 0.5]),
    ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, np.inf]),
    ([[np.nan]], [0.0, 1.0], [0.0, 0.5]),  # reported ahead of the shape
], ids=["nan-in-a", "inf-weights", "inf-offset", "nan-wrong-shape"])
def test_validate_catches_non_finite_entries(a, weights, offsets):
    t = ButcherTableau("bad", a, weights, offsets)
    assert validate_tableau(t) == ["entries must be finite"]


def test_certificate_rejects_invalid_tableau():
    t = ButcherTableau("bad", [[0.0, 1.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 0.5])
    with pytest.raises(ValueError, match="invalid tableau"):
        feasibility_certificate(t, 2.0, 1.0, 1)


def test_load_tableau_file_roundtrip(tmp_path):
    p = tmp_path / "mid.txt"
    p.write_text("2\n0 0\n0.5 0\n0 1\n0 0.5\n")
    t = load_tableau_file(p)
    ref = make_tableau("midpoint")
    assert np.array_equal(t.a, ref.a)
    assert np.array_equal(t.weights, ref.weights)
    assert np.array_equal(t.offsets, ref.offsets)


def test_load_tableau_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2\n0 0\n0.5 0\n0 1\n")
    with pytest.raises(ValueError, match="expected 5 lines"):
        load_tableau_file(p)
    p.write_text("x\n")
    with pytest.raises(ValueError, match="stage count"):
        load_tableau_file(p)
    p.write_text("2\n0 0\n0.5 zz\n0 1\n0 0.5\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_tableau_file(p)
    # structurally invalid tableau is rejected at load time
    p.write_text("2\n0 1\n0.5 0\n0 1\n0 0.5\n")
    with pytest.raises(ValueError, match="invalid tableau"):
        load_tableau_file(p)


def test_resolve_tableau(tmp_path):
    assert resolve_tableau("rk44").name == "rk44"
    p = tmp_path / "mid.txt"
    p.write_text("2\n0 0\n0.5 0\n0 1\n0 0.5\n")
    assert resolve_tableau(str(p)).q == 2
    with pytest.raises(ValueError, match="unknown tableau"):
        resolve_tableau("nope")
