"""`mult_trivialize` certifies that its input is associative by its final
check, and scans the window triples for a Hochschild cocycle defect only
to name the failure of a run that check did not certify.

If the final check passes, each residual table f_n the solver reads is the
coboundary of the solved beta_n on every window pair, so a cocycle.  These
tests check that premise on the benchmark's trivialize jobs and a grid of
planted gauges, check every one-entry perturbation of a planted input
against a flow that scans each f_n before solving it, and guard against
the scan running on a certified run.
"""

import contextlib
import importlib.util
import io
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import uqbench.cli as cli
import uqbench.deform as deform
from uqbench.deform import (GEN_MONO, UNIT, ObstructionError, TruncatedUg,
                            _residual, derivation_gauge, identity_columns,
                            mult_trivialize, plant_deformation,
                            standard_multiplication)
from uqbench.errors import ConfigError
from uqbench.rootdata import load_datum
from uqbench.sparse import combine

from test_deform import _perturbed_plant

A1 = load_datum("A1")
E, H, F = GEN_MONO["E"], GEN_MONO["H"], GEN_MONO["F"]
ONE = Fraction(1)
POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "pools.py"


def alg(cap, window):
    return TruncatedUg(A1, cap, window)


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


@pytest.fixture
def tables(monkeypatch):
    """Every residual table the solver reads, in the order it reads them."""
    seen = []

    def record(*args):
        seen.append(_residual(*args))
        return seen[-1]

    monkeypatch.setattr(deform, "_residual", record)
    return seen


@pytest.fixture
def scans(monkeypatch):
    """A counter of `_cocycle_defect` calls."""
    calls = []
    scan = deform._cocycle_defect

    def spy(algebra, f):
        calls.append(f)
        return scan(algebra, f)

    monkeypatch.setattr(deform, "_cocycle_defect", spy)
    return calls


def _pool_trivialize_jobs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pools", POOLS)
    pools = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, pools)
    spec.loader.exec_module(pools)
    return [job.argv for job in pools.full_pool()
            if job.subcommand == "trivialize"]


def _planted_gauges():
    """Single and paired plants {E, H, F} -> {0, E, H, F}."""
    images = [{}, {E: ONE}, {H: ONE}, {F: ONE}]
    for k in (1, 2):
        for sources in combinations((E, H, F), k):
            for imgs in product(images, repeat=k):
                yield dict(zip(sources, imgs))


def test_every_certified_residual_is_a_cocycle(tables, monkeypatch):
    # the premise on the benchmark's trivialize jobs and on a grid of
    # planted gauges: every run succeeds, and every table it reads passes
    # the scan it does not make
    certified = []

    def trivialize(algebra, mu, upto):
        tables.clear()  # drop the tables that planting mu read
        out = mult_trivialize(algebra, mu, upto)
        certified.append((algebra, list(tables)))
        return out

    monkeypatch.setattr(cli, "mult_trivialize", trivialize)
    jobs = _pool_trivialize_jobs(monkeypatch)
    assert len(jobs) == 12
    for argv in jobs:
        assert _run_cli(argv) == 0
    for window in (2, 3):
        a = alg(2 * window, window)
        for images in _planted_gauges():
            gauge = derivation_gauge(a, images)
            for order in (1, 2, 3):
                trivialize(a, plant_deformation(a, gauge, order), order)
    assert len(certified) == 12 + 2 * 60 * 3
    for algebra, read in certified:
        assert read
        assert all(deform._cocycle_defect(algebra, f) is None for f in read)


def _scan_first_outcome(a, mu, upto):
    """The outcome of a trivializer that scans each f_n for a Hochschild
    defect before solving it, built from the solver's own steps:
    ("ok", V, transcript), ("config", message) or ("obstruction", order)."""
    V = [identity_columns(a)] + [{} for _ in range(upto)]
    transcript = []
    for n in range(1, upto + 1):
        f_n = _residual(a, mu, V, n)
        defect = deform._cocycle_defect(a, f_n)
        if defect is not None:
            return ("config", "deformed multiplication is not associative "
                    f"at order {n} on {defect}")
        if not f_n:
            transcript.append({"order": n, "beta": {}, "defect": "zero"})
            continue
        try:
            beta = deform._solve_gauge_order(a, f_n, n)
        except ObstructionError as err:
            return ("obstruction", err.order)
        transcript.append({"order": n, "beta": beta, "defect": "solved"})
        step = [identity_columns(a)] + [beta if k == n else {}
                                        for k in range(1, upto + 1)]
        V = deform._series_mul(deform._compose, step, V, upto)
    return ("ok", V, transcript)


def test_one_entry_perturbations_end_as_a_per_order_scan_ends(tables):
    # every one-entry table at window 2, a monomial of at most the pair's
    # degree on one window pair, added at order 1 or 2 to an E=H plant of
    # order 3: a run with a non-cocycle f_n names the first such order and
    # its triple, even when the solver ran past it, and every run ends as
    # the per-order scan ends
    a = alg(4, 2)
    plant = plant_deformation(a, derivation_gauge(a, {E: {H: ONE}}), 3)
    seen = {"named": 0, "named past": 0, "ok": 0, "obstruction": 0}
    for order in (1, 2):
        for x, y in a.pairs:
            for m in a.basis(sum(x) + sum(y)):
                mu = [dict(mu_k) for mu_k in plant]
                mu[order][(x, y)] = combine(mu[order].get((x, y), {}),
                                            {m: 1})
                tables.clear()
                try:
                    got = ("ok", *mult_trivialize(a, mu, 3))
                except ConfigError as err:
                    assert err.__cause__ is None
                    assert err.__suppress_context__
                    got = ("config", str(err))
                except ObstructionError as err:
                    got = ("obstruction", err.order)
                defects = [(n, deform._cocycle_defect(a, f))
                           for n, f in enumerate(tables, start=1)]
                first = next(((n, d) for n, d in defects if d is not None),
                             None)
                if first is None:
                    assert got[0] in ("ok", "obstruction")
                    seen[got[0]] += 1
                else:
                    n, triple = first
                    assert got == ("config", "deformed multiplication is "
                                   f"not associative at order {n} on "
                                   f"{triple}")
                    seen["named"] += 1
                    seen["named past"] += n < len(tables)
                assert got == _scan_first_outcome(a, mu, 3)
    assert seen == {"named": 290, "named past": 290, "ok": 84,
                    "obstruction": 96}


def _non_associative_cases():
    """The non-associative inputs that the deformation tests pin, as
    (algebra, mu, order)."""
    small = alg(4, 2)
    std = standard_multiplication(small)
    yield small, [std, {(UNIT, E): {E: ONE}}], 1
    for order in (2, 3):
        yield small, _perturbed_plant(small, order, (UNIT, E), {E: ONE}), order
    a = alg(6, 3)
    std = standard_multiplication(a)
    yield a, [std, {(E, E): {H: ONE}}], 1
    yield a, [std, {(H, H): {E: ONE}}], 1
    yield a, _perturbed_plant(a, 2, (F, H), {F: ONE}), 2
    yield a, _perturbed_plant(a, 3, (H, E), {UNIT: ONE}), 3
    for window in (3, 4):
        wide = alg(2 * window, window)
        for pair, extra in [((F, E), {UNIT: ONE}), ((E, E), {H: ONE}),
                            (((0, 1, 1), F), {H: ONE})]:
            for order in (1, 2):
                yield wide, _perturbed_plant(wide, order, pair, extra), order


def test_certified_runs_make_no_triple_scan(scans):
    argv = ["trivialize", "--cap", "6", "--window", "3", "--order", "5",
            "--plant", "E=H", "--plant", "F=H"]
    assert _run_cli(argv) == 0
    assert scans == []
    cases = 0
    for a, mu, order in _non_associative_cases():
        del scans[:]
        with pytest.raises(ConfigError, match="not associative"):
            mult_trivialize(a, mu, order)
        assert scans
        cases += 1
    assert cases == 19
