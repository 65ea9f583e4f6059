"""ISD cost models: exact oracles, algorithm ordering, DOOM accounting."""

import hashlib
import json
import math

import pytest

from plotkin_pke import preset
from plotkin_pke.isd import (
    ALGORITHMS,
    isd_cost,
    keyrec_workfactor,
    log2_binom,
    msgrec_workfactor,
)


def _gauss_log2(n, k):
    return math.log2((n - k) ** 2 * n)


def test_log2_binom_against_exact():
    assert log2_binom(10, 3) == pytest.approx(math.log2(math.comb(10, 3)), abs=1e-10)
    assert log2_binom(60, 17) == pytest.approx(math.log2(math.comb(60, 17)), abs=1e-9)
    assert log2_binom(10, 3) == pytest.approx(log2_binom(10, 7), abs=1e-10)
    assert log2_binom(10, 11) == -math.inf
    assert log2_binom(10, -1) == -math.inf


def test_weight_zero_costs_one_gauss():
    n, k = 1024, 512
    gauss = _gauss_log2(n, k)
    assert isd_cost("prange", n, k, 0).log2_cost == gauss
    for alg in ("stern", "bjmm2"):
        assert isd_cost(alg, n, k, 0).log2_cost == pytest.approx(gauss, rel=1e-6)


def test_prange_matches_exact_binomial_oracle():
    for n, k, w in ((1024, 512, 50), (2000, 1000, 30), (23558, 11779, 134)):
        oracle = (
            math.log2(math.comb(n, w))
            - math.log2(math.comb(n - k, w))
            + _gauss_log2(n, k)
        )
        assert isd_cost("prange", n, k, w).log2_cost == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize(
    "n,k,w",
    [
        (23558, 11779, 134),  # 128-bit message recovery instance
        (23558, 11779, 14),  # 128-bit ldpc dual row instance
        (20326, 10163, 134),
        (3000, 1500, 50),
    ],
)
def test_algorithm_ordering(n, k, w):
    prange = isd_cost("prange", n, k, w).log2_cost
    stern = isd_cost("stern", n, k, w).log2_cost
    bjmm2 = isd_cost("bjmm2", n, k, w).log2_cost
    assert bjmm2 <= stern <= prange


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_cost_monotone_in_weight(alg):
    costs = [isd_cost(alg, 2000, 1000, w).log2_cost for w in (10, 14, 20, 30, 40, 142)]
    assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_instance_validation():
    with pytest.raises(ValueError):
        isd_cost("prange", 100, 0, 10)
    with pytest.raises(ValueError):
        isd_cost("prange", 100, 100, 10)
    with pytest.raises(ValueError):
        isd_cost("prange", 100, 50, 101)
    with pytest.raises(ValueError):
        isd_cost("lee-brickell", 100, 50, 10)


def test_internal_params_feasible():
    rep = isd_cost("stern", 3000, 1500, 50)
    assert 0 <= rep.params["p"] <= 25
    assert 0 <= rep.params["l"] <= 1500
    rep = isd_cost("bjmm2", 3000, 1500, 50)
    assert rep.params["p"] % 2 == 0
    assert 0 <= rep.params["r1"] <= rep.params["l"]


def test_keyrec_workfactor_cca128():
    rep = keyrec_workfactor(preset("cca128"))
    assert rep.algorithm in ALGORITHMS
    assert rep.doom_divisor_log2 == pytest.approx(13.52, abs=0.01)
    assert rep.log2_work_factor == rep.log2_cost - rep.doom_divisor_log2
    # regression baseline: the ldpc dual is catastrophically weak
    assert rep.log2_work_factor == pytest.approx(30.514, abs=0.01)


def test_msgrec_workfactor_cca128():
    rep = msgrec_workfactor(preset("cca128"))
    assert rep.algorithm == "bjmm2"
    assert rep.doom_divisor_log2 == pytest.approx(6.76, abs=0.01)
    assert rep.log2_work_factor == pytest.approx(129.983, abs=0.01)


def test_doom_never_increases_workfactor():
    for name in ("cpa128", "cca128"):
        params = preset(name)
        for rep in (keyrec_workfactor(params), msgrec_workfactor(params)):
            assert rep.log2_work_factor <= rep.log2_cost


def test_report_json_shape():
    rep = msgrec_workfactor(preset("cca128"))
    record = json.loads(json.dumps(rep.to_dict()))
    assert set(record) == {
        "algorithm", "n", "k", "w", "log2WorkFactor", "params", "doomDivisorLog2",
    }
    assert record["n"] == 23558 and record["k"] == 11779 and record["w"] == 134


def _rounded(value):
    """Floats rounded to 9 decimals, so the digest does not depend on libm;
    ints, strings and the ``params`` grid points stay exact."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    return value


def test_reports_known_answer():
    reports = []
    for name in ("toy", "cca128"):
        params = preset(name)
        reports += [isd_cost(alg, params.n, params.k, w)
                    for w in (params.w2, params.t1) for alg in ALGORITHMS]
        reports += [keyrec_workfactor(params), msgrec_workfactor(params)]
    for n, k, w in ((6, 3, 1), (1024, 512, 0), (100, 50, 60), (3000, 1500, 50)):
        reports += [isd_cost(alg, n, k, w) for alg in ALGORITHMS]
    assert any(rep.log2_cost == math.inf for rep in reports)
    blob = json.dumps([_rounded(rep.to_dict()) for rep in reports], allow_nan=False)
    digest = hashlib.sha256(blob.encode()).hexdigest()  # the infinite cost reads null
    assert digest == "d9bd7ae398f9bbc04f7e58837a281bec879c9f0423953ceaf5b784da82c3c88f"
