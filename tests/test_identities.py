import inspect
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplex_grid_opt import (
    HypergeomParams,
    IdentityCheck,
    a_beta,
    compositions,
    falling,
    fraction_str,
    multinomial,
    stirling2,
)
from strats import naive_a_beta, scaled_moment
from simplex_grid_opt import hypergeom, identities
from simplex_grid_opt.combin import rate_constant
from simplex_grid_opt.cli import EXIT_VERIFY_FAILED, main
from simplex_grid_opt.identities import (
    default_sweep_count,
    run_default_sweeps,
    sweep_a_beta,
    sweep_integer_point_identities,
    sweep_kmr,
    sweep_moment_decomposition,
    sweep_phi,
    sweep_sigma,
    sweep_stirling_multi,
    sweep_stirling_sum,
)


def test_a_beta_spec_example_value():
    # n=2, d=2, r=2, m=3, counts=(1,2), beta=(2,0):
    # 2*(falling(1,2) - 1) + falling(2,1)*falling(1,1)*falling(1,1)*S(2,1) = -2 + 4 = 2
    value = a_beta((2, 0), 2, 3, (1, 2))
    assert value == 2
    assert value >= 0


def test_a_beta_worked_paper_urn():
    # hand-computed for the m=16, counts=(7,9), r=2 urn
    assert a_beta((2, 0), 2, 16, (7, 9)) == 196
    assert a_beta((0, 2), 2, 16, (7, 9)) == 252
    assert a_beta((1, 1), 2, 16, (7, 9)) == 0


def test_a_beta_single_variable_collapse():
    # with all weight on one coordinate, the term matches the Stirling sum form
    for d in (2, 3, 4):
        for m in range(d, 9):
            for r in range(1, m + 1):
                beta = (d, 0)
                counts = (m, 0)
                expected = falling(r, d) * (falling(m, d) - m**d) + falling(m, d) * sum(
                    falling(r, k) * stirling2(d, k) for k in range(1, d)
                )
                assert a_beta(beta, r, m, counts) == expected
                # by the Stirling sum identity this equals the full closed form
                assert expected == r**d * falling(m, d) - falling(r, d) * m**d


def test_a_beta_zero_count_kills_terms():
    # any beta_i >= 1 with counts_i = 0 zeroes both products
    assert a_beta((1, 1), 2, 4, (0, 4)) == 0
    assert a_beta((2, 1), 3, 5, (0, 5)) == 0


def test_a_beta_constraint_validation():
    with pytest.raises(ValueError):
        a_beta((1, 1), 3, 2, (1, 1))  # r > m
    with pytest.raises(ValueError):
        a_beta((2, 2), 2, 3, (1, 2))  # m < d
    with pytest.raises(ValueError):
        a_beta((1, 1), 1, 3, (1, 1))  # counts sum mismatch


def test_a_beta_refuses_a_negative_color_count():
    # the urn HypergeomParams refuses: without the check, A_beta came out -1
    with pytest.raises(ValueError, match=r"negative color count in \(-1, 3\)"):
        HypergeomParams(2, (-1, 3), 1)
    with pytest.raises(ValueError, match=r"negative color count in \(-1, 3\)"):
        a_beta((2, 0), 1, 2, (-1, 3))


def _a_beta_sum_reference(r, m, d, counts):
    """A_BETA_SUM at one urn and r, from the public a_beta."""
    lhs = sum(multinomial(d, beta) * a_beta(beta, r, m, counts)
              for beta in compositions(len(counts), d))
    rhs = r**d * falling(m, d) - falling(r, d) * m**d
    params = (("n", len(counts)), ("d", d), ("r", r), ("m", m), ("counts", counts))
    return IdentityCheck("A_BETA_SUM", params, lhs, rhs, "eq", lhs == rhs)


def _moment_decomposition_reference(p, beta):
    """MOMENT_DECOMPOSITION at one urn, from the public moment and a_beta."""
    d = sum(beta)
    lhs = scaled_moment(p, beta)
    point = math.prod(map(pow, p.counts, beta)) * falling(p.r, d)
    rhs = Fraction(point + a_beta(beta, p.r, p.m, p.counts), p.r**d * falling(p.m, d))
    params = (("m", p.m), ("counts", p.counts), ("r", p.r), ("beta", beta))
    return IdentityCheck("MOMENT_DECOMPOSITION", params, lhs, rhs, "eq", lhs == rhs)


def test_a_beta_sum_identity_cases():
    check = _a_beta_sum_reference(2, 3, 2, (1, 2))
    assert check.holds and check.lhs == check.rhs == 6

    # r = m makes the closed form vanish
    check = _a_beta_sum_reference(4, 4, 3, (2, 1, 1))
    assert check.holds and check.rhs == 0

    # degree one always vanishes
    check = _a_beta_sum_reference(2, 5, 1, (2, 3))
    assert check.holds and check.rhs == 0


def test_vandermonde_chu_example():
    check = identities._integer_point((2, 3), 2, falling)
    assert check.holds and check.lhs == check.rhs == 20


def test_multinomial_theorem_example():
    check = identities._integer_point((2, -1, 3), 3, pow)
    assert check.holds and check.lhs == 64


def test_stirling_sum_example():
    check = identities._stirling_sum(3, 4)
    assert check.holds and check.lhs == check.rhs == 40


def _stirling_table(d):
    """S(b, a) at [b][a] for a, b = 0..d, the table _stirling_multi reads."""
    return [[stirling2(b, a) for a in range(d + 1)] for b in range(d + 1)]


def test_stirling_multi_small_case():
    check = identities._stirling_multi((1, 0), 2, identities._multinomial_weights(2, 2),
                                       _stirling_table(2))
    assert check.holds and check.lhs == stirling2(2, 1)


def test_stirling_multi_sweep_tables_each_stirling_number_once_per_n_and_d(monkeypatch):
    # S(b, a), a, b <= d, is tabled once per (n, d), not asked per beta and coordinate
    calls = []
    stirling = identities.stirling2
    monkeypatch.setattr(identities, "stirling2", lambda b, a: calls.append((b, a)) or stirling(b, a))
    checks = list(sweep_stirling_multi(max_n=3, max_d=5))
    assert checks and all(c.holds for c in checks)
    assert Counter(calls) == Counter((b, a) for n in range(1, 4) for d in range(2, 6)
                                     for b in range(d + 1) for a in range(d + 1))


def test_kmr_example_and_degenerate_window():
    check = identities._kmr(2, 3, 4)
    assert check.holds
    assert check.lhs == Fraction(2, 5)
    assert check.rhs == Fraction(3, 4)
    degenerate = identities._kmr(1, 1, 1)
    assert degenerate.holds and degenerate.lhs == 0


def test_sigma_hand_value():
    check = identities._sigma(2, 3, 2, 4, rate_constant(2))
    assert check.holds
    assert check.lhs == Fraction(1, 10)
    assert check.rhs == Fraction(3, 16)


def test_phi_hand_value():
    check = identities._phi(2, 3, 4)
    assert check.holds and check.lhs == 44


def test_moment_decomposition_matches_scaled_moment():
    p = HypergeomParams(m=16, counts=(7, 9), r=2)
    urn = (("m", 16), ("counts", (7, 9)), ("r", 2))
    checks = {c.params[3][1]: c for c in sweep_moment_decomposition(max_n=2, max_d=2, max_m=16)
              if c.params[:3] == urn and sum(c.params[3][1]) == 2}
    assert sorted(checks) == [(0, 2), (1, 1), (2, 0)]
    for beta, check in checks.items():
        assert check.holds
        assert check.lhs == scaled_moment(p, beta)
        assert check == _moment_decomposition_reference(p, beta)


def test_sweeps_all_hold_at_reduced_caps():
    groups = [
        sweep_stirling_sum(max_d=5, max_r=12),
        sweep_stirling_multi(max_n=2, max_d=4),
        sweep_integer_point_identities(samples=10, seed=3),
        sweep_kmr(limit=12),
        sweep_sigma(max_d=4, max_m=8, max_k=3),
        sweep_phi(max_k=3, max_m=6),
        sweep_a_beta(max_n=2, max_d=3, max_m=6),
        sweep_moment_decomposition(max_n=2, max_d=2, max_m=5),
    ]
    for checks in map(list, groups):
        assert checks, "sweep produced no checks"
        assert all(c.holds for c in checks)


def test_run_default_sweeps_structure():
    checks = list(run_default_sweeps(max_n=2, max_d=2, max_m=4, max_k=2, max_r=6, samples=5))
    names = {c.name for c in checks}
    assert {
        "STIRLING_SUM",
        "STIRLING_MULTI",
        "VANDERMONDE_CHU",
        "MULTINOMIAL",
        "KMR",
        "SIGMA",
        "PHI",
        "A_BETA_NONNEG",
        "A_BETA_SUM",
        "MOMENT_DECOMPOSITION",
    } <= names
    assert all(c.holds for c in checks)


# run_default_sweeps must stay a generator function.  perfbench/tracer.py wraps
# every public plain function of this module, and its hook for run_default_sweeps
# calls len() on the result: a plain function that returned an iterator would be
# wrapped, and every traced `sgo verify` op would fail on that len().
def test_run_default_sweeps_is_a_lazy_generator_function(monkeypatch):
    assert inspect.isgeneratorfunction(run_default_sweeps)

    def started(**kwargs):
        raise AssertionError("a later sweep started before its checks were asked for")

    for name in list(REFERENCES)[1:]:
        monkeypatch.setattr(identities, name, started)
    checks = run_default_sweeps()
    assert next(checks) == identities._stirling_sum(1, 1)
    with pytest.raises(AssertionError, match="later sweep started"):
        list(checks)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 9), st.integers(0, 6),
       st.integers(0, 45), st.integers(0, 4))
def test_default_sweep_count_is_the_number_of_checks(max_n, max_d, max_m, max_k, max_r, samples):
    caps = dict(max_n=max_n, max_d=max_d, max_m=max_m, max_k=max_k, max_r=max_r, samples=samples)
    total = len(list(run_default_sweeps(**caps)))
    assert default_sweep_count(**caps, stop=10**9) == total
    assert default_sweep_count(**caps, stop=total - 1) > total - 1  # an early stop still exceeds


def test_default_sweep_count_of_huge_caps_stops_early():
    huge = 10**4000
    caps = dict(max_n=huge, max_d=huge, max_m=huge, max_k=huge, max_r=huge, samples=huge)
    assert default_sweep_count(**caps, stop=10**6) > 10**6
    assert default_sweep_count(**dict(caps, max_d=1, max_m=1), stop=10**6) > 10**6
    assert default_sweep_count(**dict(caps, max_m=0), stop=10**6) == 0  # no sweep runs


def test_a_beta_nonneg_exhaustive_small():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        m = rng.randint(d, 7)
        counts = rng.choice(list(compositions(n, m)))
        r = rng.randint(1, m)
        for beta in compositions(n, d):
            assert a_beta(beta, r, m, counts) >= 0


def test_grouped_a_beta_equals_term_by_term_exhaustively():
    cases = 0
    for n in range(1, 4):
        for d in range(1, 5):
            betas = list(compositions(n, d))
            for m in range(d, 7):
                for counts in compositions(n, m):
                    for r in range(1, m + 1):
                        for beta in betas:
                            assert a_beta(beta, r, m, counts) == naive_a_beta(beta, r, m, counts)
                            cases += 1
    assert cases > 10_000


@st.composite
def urns_and_betas(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    m = draw(st.integers(d, 8))
    # compositions of m including zero counts
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=n - 1, max_size=n - 1)))
    counts = tuple(b - a for a, b in zip([0, *cuts], [*cuts, m]))
    betas = list(compositions(n, d))
    beta = betas[draw(st.integers(0, len(betas) - 1))]
    return beta, draw(st.integers(1, m)), m, counts


@settings(max_examples=300, deadline=None)
@given(urns_and_betas())
def test_grouped_a_beta_equals_term_by_term(case):
    beta, r, m, counts = case
    assert a_beta(beta, r, m, counts) == naive_a_beta(beta, r, m, counts)


def test_sweeps_report_the_a_beta_values_of_the_public_function():
    # every A_BETA_NONNEG minimum and A_BETA_SUM lhs is the one a_beta gives
    checks = list(sweep_a_beta(max_n=2, max_d=3, max_m=5))
    for nonneg, total in zip(checks[::2], checks[1::2]):
        params = dict(nonneg.params)
        assert dict(total.params) == params
        n, d, r, m, counts = (params[key] for key in ("n", "d", "r", "m", "counts"))
        values = [a_beta(beta, r, m, counts) for beta in compositions(n, d)]
        assert nonneg.lhs == min(values)
        assert total == _a_beta_sum_reference(r, m, d, counts)
    for check in sweep_moment_decomposition(max_n=2, max_d=3, max_m=5):
        params = dict(check.params)
        p = HypergeomParams(m=params["m"], counts=params["counts"], r=params["r"])
        assert check == _moment_decomposition_reference(p, params["beta"])


# --- every sweep against checks built one by one --------------------------------
# The closed-form families call their evaluators one check at a time; A_beta and
# the moment decomposition are rebuilt from the public a_beta and moment.


def _reference_stirling_sum(max_d, max_r):
    return [identities._stirling_sum(d, r)
            for d in range(1, max_d + 1) for r in range(1, max_r + 1)]


def _reference_stirling_multi(max_n, max_d):
    return [identities._stirling_multi(alpha, d, identities._multinomial_weights(n, d),
                                       _stirling_table(d))
            for n in range(1, max_n + 1) for d in range(2, max_d + 1)
            for k in range(1, d) for alpha in compositions(n, k)]


def _reference_integer_point_identities(samples, seed):
    rng, out = random.Random(seed), []
    for _ in range(samples):
        n, d = rng.randint(1, 4), rng.randint(1, 4)
        x = tuple(rng.randint(-6, 9) for _ in range(n))
        out += [identities._integer_point(x, d, falling), identities._integer_point(x, d, pow)]
    return out


def _reference_kmr(limit):
    return [identities._kmr(k, m, r)
            for k in range(1, limit + 1) for m in range(1, limit + 1)
            for r in range((k - 1) * m + 1, min(k * m, limit) + 1)]


def _reference_sigma(max_d, max_m, max_k):
    return [identities._sigma(d, m, k, r, rate_constant(d))
            for d in range(2, max_d + 1) for m in range(d, max_m + 1)
            for k in range(1, max_k + 1) for r in range((k - 1) * m + 1, k * m + 1)]


def _reference_phi(max_k, max_m):
    return [identities._phi(k, m, r)
            for k in range(2, max_k + 1) for m in range(3, max_m + 1)
            for r in range((k - 1) * m + 1, k * m + 1)]


def _urns(max_n, max_d, max_m):
    for n in range(1, max_n + 1):
        for d in range(1, max_d + 1):
            for m in range(d, max_m + 1):
                for counts in compositions(n, m):
                    for r in range(1, m + 1):
                        yield n, d, m, counts, r


def _reference_a_beta(max_n, max_d, max_m):
    out = []
    for n, d, m, counts, r in _urns(max_n, max_d, max_m):
        low = min(a_beta(beta, r, m, counts) for beta in compositions(n, d))
        params = (("n", n), ("d", d), ("r", r), ("m", m), ("counts", counts))
        out.append(IdentityCheck("A_BETA_NONNEG", params, low, 0, "ge", low >= 0))
        out.append(_a_beta_sum_reference(r, m, d, counts))
    return out


def _reference_moment_decomposition(max_n, max_d, max_m):
    return [_moment_decomposition_reference(HypergeomParams(m=m, counts=counts, r=r), beta)
            for n, d, m, counts, r in _urns(max_n, max_d, max_m)
            for beta in compositions(n, d)]


REFERENCES = {
    "sweep_stirling_sum": _reference_stirling_sum,
    "sweep_stirling_multi": _reference_stirling_multi,
    "sweep_integer_point_identities": _reference_integer_point_identities,
    "sweep_kmr": _reference_kmr,
    "sweep_sigma": _reference_sigma,
    "sweep_phi": _reference_phi,
    "sweep_a_beta": _reference_a_beta,
    "sweep_moment_decomposition": _reference_moment_decomposition,
}
# (max_m, max_d) of the benchmark's verify ops (perfbench/workloads.py VERIFY_SLOTS)
BENCHMARK_VERIFY_CAPS = ((6, 3), (7, 3), (6, 4), (8, 3))


def _default_sweep_calls(monkeypatch, **caps):
    """The (sweep name, keyword arguments) pairs run_default_sweeps calls at caps."""
    calls = []
    with monkeypatch.context() as patch:
        for name in REFERENCES:
            patch.setattr(identities, name, lambda _name=name, **kw: calls.append((_name, kw)) or [])
        list(run_default_sweeps(**caps))
    return calls


def _fields(check):
    return check.name, check.params, check.lhs, check.rhs, check.relation, check.holds


def test_every_sweep_equals_its_checks_built_one_by_one(monkeypatch):
    calls = {}
    for max_m, max_d in BENCHMARK_VERIFY_CAPS:
        for name, kw in _default_sweep_calls(monkeypatch, max_m=max_m, max_d=max_d, seed=5):
            calls[name, tuple(sorted(kw.items()))] = kw
    assert {name for name, _ in calls} == set(REFERENCES)
    for (name, _), kw in calls.items():
        checks = list(getattr(identities, name)(**kw))
        reference = REFERENCES[name](**kw)
        assert checks, name
        assert [_fields(c) for c in checks] == [_fields(c) for c in reference], (name, kw)
        assert [c.params_str() for c in checks] == [
            ";".join(f"{k}={v}" for k, v in c.params) for c in reference
        ], (name, kw)


def test_params_str_is_the_params_joined_and_not_a_constructor_argument():
    for c in run_default_sweeps():
        assert c.params_str() == ";".join(f"{k}={v}" for k, v in c.params), c
    check = identities._kmr(2, 3, 4)
    with pytest.raises(TypeError):
        IdentityCheck(*_fields(check), "k=9")
    assert IdentityCheck(*_fields(check)) == check
    assert IdentityCheck(*_fields(check)).params_str() == check.params_str() == "k=2;m=3;r=4"


def _stirling_rows_off_by_one(monkeypatch):
    rows = hypergeom._stirling_rows

    def off_by_one(*args):  # E[Y^beta] one too large
        grouped = rows(*args)
        grouped[0] += 1
        return grouped

    monkeypatch.setattr(hypergeom, "_stirling_rows", off_by_one)


def _a_beta_coeffs_perturbed(monkeypatch):
    coeffs = identities._a_beta_coeffs

    def perturbed(*args):  # every A_beta one too large
        out = coeffs(*args)
        out[0] += 1
        return out

    monkeypatch.setattr(identities, "_a_beta_coeffs", perturbed)


def test_moment_decomposition_compares_two_independent_routes(monkeypatch):
    caps = dict(max_n=2, max_d=3, max_m=5)
    honest = list(sweep_moment_decomposition(**caps))
    assert all(c.holds for c in honest)
    with monkeypatch.context() as patch:
        _stirling_rows_off_by_one(patch)
        assert not any(c.holds for c in sweep_moment_decomposition(**caps))
        assert all(c.holds for c in sweep_a_beta(**caps))
    with monkeypatch.context() as patch:
        _a_beta_coeffs_perturbed(patch)
        moments = list(sweep_moment_decomposition(**caps))
        assert not any(c.holds for c in moments)
        assert [c.lhs for c in moments] == [c.lhs for c in honest]  # the moment side never reads A_beta
        checks = sweep_a_beta(**caps)
        assert not any(c.holds for c in checks if c.name == "A_BETA_SUM")


def test_moment_sweep_builds_each_stirling_row_once(monkeypatch):
    # the left side's rows S(b, a) * falling(c, a), a = 0..b, are built once per
    # (c, b) in a sweep, and a second sweep builds its own
    calls = []
    stirling = hypergeom.stirling2
    monkeypatch.setattr(hypergeom, "stirling2", lambda b, a: calls.append(b) or stirling(b, a))
    pairs = {(c, b) for n in range(1, 4) for d in range(1, 4) for m in range(d, 7)
             for counts in compositions(n, m) for beta in compositions(n, d)
             for c, b in zip(counts, beta) if b}
    for _ in range(2):
        calls.clear()
        assert all(c.holds for c in sweep_moment_decomposition(max_n=3, max_d=3, max_m=6))
        assert Counter(calls) == Counter(b for _, b in pairs for _ in range(b + 1))


# the types of lhs and rhs per family, as the frozen-dataclass record gave them
SIDE_TYPES = {
    "VANDERMONDE_CHU": (int, int), "MULTINOMIAL": (int, int), "STIRLING_SUM": (int, int),
    "STIRLING_MULTI": (int, Fraction), "KMR": (Fraction, Fraction), "SIGMA": (Fraction, Fraction),
    "PHI": (int, int), "A_BETA_NONNEG": (int, int), "A_BETA_SUM": (int, int),
    "MOMENT_DECOMPOSITION": (Fraction, Fraction),
}


def test_checks_keep_the_record_semantics():
    checks = list(run_default_sweeps())
    assert {c.name for c in checks} == set(SIDE_TYPES)
    for c in checks:
        rebuilt = IdentityCheck(*_fields(c))
        assert rebuilt == c and hash(rebuilt) == hash(c) and repr(rebuilt) == repr(c)
        assert (type(c.lhs), type(c.rhs)) == SIDE_TYPES[c.name], c
        assert rebuilt._texts() == c._texts() == (fraction_str(c.lhs), fraction_str(c.rhs))
    kmr = identities._kmr(2, 3, 4)
    assert repr(kmr) == ("IdentityCheck(name='KMR', params=(('k', 2), ('m', 3), ('r', 4)), "
                         "lhs=Fraction(2, 5), rhs=Fraction(3, 4), relation='le', holds=True)")
    assert kmr != IdentityCheck(*_fields(kmr)[:-1], False)
    assert kmr.__eq__(_fields(kmr)) is NotImplemented


def test_every_side_a_family_makes_is_an_int_or_a_pair_with_positive_denominator():
    caps = [{}, *({"max_m": max_m, "max_d": max_d} for max_m, max_d in BENCHMARK_VERIFY_CAPS)]
    for kw in caps:
        for c in run_default_sweeps(**kw):
            for side, want in zip((c._lhs, c._rhs), SIDE_TYPES[c.name]):
                if want is int:
                    assert type(side) is int, c
                else:
                    num, den = side
                    assert type(num) is type(den) is int and den > 0, c


@pytest.mark.parametrize("mutant", [_stirling_rows_off_by_one, _a_beta_coeffs_perturbed],
                         ids=["stirling_rows", "a_beta_coeffs"])
def test_failing_rows_render_the_sides_of_their_checks(capsys, monkeypatch, mutant):
    # the mutants of test_moment_decomposition_compares_two_independent_routes, seen
    # through `sgo verify`: each row, failing or not, shows fraction_str of its sides
    caps = dict(max_n=2, max_d=3, max_m=5, max_k=2, max_r=8, samples=3, seed=0)
    mutant(monkeypatch)
    argv = ["verify", "--witness-polys", "0", "--format", "json"]
    for key, value in caps.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == EXIT_VERIFY_FAILED
    rows = json.loads(capsys.readouterr().out)["checks"]
    checks = list(run_default_sweeps(**caps))
    assert len(rows) == len(checks)
    failing = 0
    for row, c in zip(rows, checks):
        assert (row["name"], row["params"], row["holds"]) == (
            c.name, c.params_str(), "true" if c.holds else "false")
        assert (row["lhs"], row["rhs"]) == (fraction_str(c.lhs), fraction_str(c.rhs))
        failing += not c.holds
    assert failing > 0
