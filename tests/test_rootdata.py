"""Root datum presets, validation, and the Cartan-level helpers."""

import json
from fractions import Fraction

import pytest

from uqbench.errors import ConfigError
from uqbench.rootdata import (RootDatum, load_datum, preset_search_paths,
                              validate_datum)

EXPECTED_PRESETS = {"A1", "A2", "B2", "G2", "A1xA1"}


def _preset_names():
    """The stems of the preset files on the search path."""
    return {f.stem for base in preset_search_paths() if base.is_dir()
            for f in base.glob("*.json")}


def test_shipped_presets_present():
    assert EXPECTED_PRESETS <= _preset_names()


def test_presets_all_validate():
    for name in sorted(_preset_names()):
        datum = load_datum(name)
        validate_datum(datum)


def test_a1_shape():
    d = load_datum("A1")
    assert d.rank == 1
    assert d.pairing == ((2,),)
    assert d.cartan == ((2,),)
    assert d.d == (1,)


def test_a2_cartan_matrix():
    d = load_datum("A2")
    assert d.cartan == ((2, -1), (-1, 2))
    assert d.d == (1, 1)


def test_b2_asymmetry():
    d = load_datum("B2")
    c = d.cartan
    # one off-diagonal entry is -2, reflecting the long/short asymmetry
    off = sorted((c[0][1], c[1][0]))
    assert off == [-2, -1]
    assert sorted(d.d) == [1, 2]


def test_g2_triple_edge():
    d = load_datum("G2")
    off = sorted((d.cartan[0][1], d.cartan[1][0]))
    assert off == [-3, -1]


def test_a1xa1_is_disconnected():
    d = load_datum("A1xA1")
    assert d.rank == 2
    assert d.cartan[0][1] == 0 and d.cartan[1][0] == 0


def test_unknown_preset_raises_config_error():
    with pytest.raises(ConfigError):
        load_datum("Z99")


def test_load_by_explicit_path(tmp_path):
    src = load_datum("A1")
    payload = {
        "name": "A1-copy",
        "rank": 1,
        "pairing": [[2]],
        "simple_roots": [list(r) for r in src.simple_roots],
        "coroots": [list(r) for r in src.coroots],
        "comments": "copy for the path-loading test",
    }
    path = tmp_path / "mycopy.json"
    path.write_text(json.dumps(payload))
    d = load_datum(str(path))
    assert d.name == "A1-copy"
    assert d.cartan == src.cartan


def test_env_var_prepends_search_path(tmp_path, monkeypatch):
    payload = {
        "name": "X1",
        "rank": 1,
        "pairing": [[2]],
        "simple_roots": [[2]],
        "coroots": [[1]],
        "comments": "",
    }
    (tmp_path / "X1.json").write_text(json.dumps(payload))
    monkeypatch.setenv("UQBENCH_PRESET_PATH", str(tmp_path))
    assert str(tmp_path) in [str(p) for p in preset_search_paths()]
    assert "X1" in _preset_names()
    assert load_datum("X1").rank == 1


@pytest.mark.parametrize("fields", [
    {"pairing": [[2.7]], "simple_roots": [[2.2]], "coroots": [[1.9]]},
    {"pairing": [[2.0]]},
    {"rank": True},
    {"pairing": [["2"]]},
    {"coroots": [[True]]},
], ids=["floats", "integral-float", "bool-rank", "string", "bool-coroot"])
def test_preset_numbers_must_be_json_integers(tmp_path, fields):
    # each of these once loaded as A1, its numbers coerced by int()
    payload = {"name": "Bad", "rank": 1, "pairing": [[2]],
               "simple_roots": [[2]], "coroots": [[1]], **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="is not an integer"):
        load_datum(str(path))


def test_root_combination_and_pairing():
    d = load_datum("A2")
    alpha_sum = d.root_combination((1, 1))
    # (a1+a2, a1+a2) = 2+2-1-1 = 2 in the A2 normalization
    assert d.root_pairing((1, 1), (1, 1)) == 2
    assert d.root_pairing((1, 0), (0, 1)) == -1
    assert len(alpha_sum) == d.lattice_rank


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
def test_root_weight_pairing_agrees_with_the_root_form(name):
    # on a root combination, the root-weight pairing is the stored matrix
    d = load_datum(name)
    for m in ((1,) * d.rank, (2,) + (0,) * (d.rank - 1), (0,) * (d.rank - 1) + (3,)):
        for n in ((1,) * d.rank, (0,) * (d.rank - 1) + (-2,)):
            assert d.root_weight_pairing(n, d.root_combination(m)) == d.root_pairing(n, m)


def test_cartan_inverse_a2():
    d = load_datum("A2")
    inv = d.cartan_inverse()
    assert inv is not None
    assert inv[0][0] == Fraction(2, 3)
    assert inv[0][1] == Fraction(1, 3)
    # product with the Cartan matrix gives the identity
    for i in range(2):
        for j in range(2):
            acc = sum(inv[i][k] * d.cartan[k][j] for k in range(2))
            assert acc == (1 if i == j else 0)


def test_asymmetric_pairing_rejected_at_construction():
    d = load_datum("A2")
    with pytest.raises(ConfigError):
        RootDatum(name="bad", rank=2,
                  pairing=((2, -1), (0, 2)),
                  simple_roots=d.simple_roots, coroots=d.coroots,
                  comments="")
