"""Root data on a weight lattice and the Cartan indices they fix.

A datum consists of simple roots alpha_i living in a lattice Z^N, coroots
lambda_i in the dual lattice, and a symmetric integer matrix ((alpha_i,
alpha_j)) with (alpha_i, alpha_i) positive even and off-diagonal entries <= 0.
The compatibility lambda_i(alpha_j) = 2 (alpha_i, alpha_j) / (alpha_i,
alpha_i) is validated on the simple-root basis.

Group-likes K_lambda for lambda in the dual lattice form the Cartan Hopf
algebra; t_i := K_{d_i lambda_i} with d_i = (alpha_i, alpha_i)/2 generate the
subalgebra used by the positive/negative parts; `t_indices` records the
dual vectors d_i lambda_i.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import ConfigError


@dataclass(frozen=True)
class RootDatum:
    name: str
    rank: int
    pairing: tuple[tuple[int, ...], ...]
    simple_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    comments: str = ""
    # derived, filled by __post_init__
    d: tuple[int, ...] = field(default=(), compare=False)
    cartan: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    t_indices: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    def __post_init__(self):
        validate_datum(self)
        d = tuple((self.pairing[i][i]) // 2 for i in range(self.rank))
        cartan = tuple(
            tuple(_dot(self.coroots[i], self.simple_roots[j]) for j in range(self.rank))
            for i in range(self.rank)
        )
        t_idx = tuple(tuple(d[i] * x for x in self.coroots[i]) for i in range(self.rank))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "t_indices", t_idx)

    @property
    def lattice_rank(self) -> int:
        return len(self.simple_roots[0])

    def root_combination(self, n: Sequence[int]) -> tuple[int, ...]:
        """sum n_i alpha_i as a lattice vector."""
        out = [0] * self.lattice_rank
        for i, c in enumerate(n):
            for k, x in enumerate(self.simple_roots[i]):
                out[k] += c * x
        return tuple(out)

    def root_pairing(self, m: Sequence[int], n: Sequence[int]) -> int:
        """(sum m_i alpha_i, sum n_j alpha_j) via the stored symmetric matrix."""
        acc = 0
        for i, a in enumerate(m):
            if a == 0:
                continue
            for j, b in enumerate(n):
                if b:
                    acc += a * b * self.pairing[i][j]
        return acc

    def cartan_inverse(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """Inverse of the symmetrized matrix A = ((alpha_i, alpha_j)) over Q,
        or None when A is singular."""
        from .linalg import invert

        rows = [[Fraction(x) for x in r] for r in self.pairing]
        try:
            inv = invert(rows, Fraction(0), Fraction(1))
        except ArithmeticError:
            return None
        return tuple(tuple(r) for r in inv)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def validate_datum(datum: RootDatum) -> None:
    r = datum.rank
    if r < 1:
        raise ConfigError("rank must be >= 1")
    if len(datum.pairing) != r or any(len(row) != r for row in datum.pairing):
        raise ConfigError("pairing matrix must be rank x rank")
    if len(datum.simple_roots) != r or len(datum.coroots) != r:
        raise ConfigError("need one simple root and one coroot per index")
    n = len(datum.simple_roots[0])
    if any(len(v) != n for v in datum.simple_roots) or any(len(v) != n for v in datum.coroots):
        raise ConfigError("all lattice vectors must share the lattice rank")
    for i in range(r):
        aii = datum.pairing[i][i]
        if aii <= 0 or aii % 2 != 0:
            raise ConfigError(f"(alpha_{i}, alpha_{i}) = {aii} must be positive even")
        for j in range(r):
            if datum.pairing[i][j] != datum.pairing[j][i]:
                raise ConfigError("pairing matrix must be symmetric")
            if i != j and datum.pairing[i][j] > 0:
                raise ConfigError("off-diagonal pairings must be <= 0")
    for i in range(r):
        aii = datum.pairing[i][i]
        for j in range(r):
            expect = Fraction(2 * datum.pairing[i][j], aii)
            if expect.denominator != 1:
                raise ConfigError(f"2(alpha_{i}, alpha_{j})/(alpha_{i}, alpha_{i}) is not an integer")
            got = _dot(datum.coroots[i], datum.simple_roots[j])
            if got != expect:
                raise ConfigError(
                    f"coroot relation fails at ({i}, {j}): lambda_{i}(alpha_{j}) = {got}, "
                    f"2(alpha_{i}, alpha_{j})/(alpha_{i}, alpha_{i}) = {expect}"
                )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESET_ENV = "UQBENCH_PRESET_PATH"
_BUILTIN = Path(__file__).parent / "presets"


def preset_search_paths() -> list[Path]:
    paths = []
    env = os.environ.get(PRESET_ENV, "")
    for part in env.split(os.pathsep):
        if part:
            paths.append(Path(part))
    paths.append(_BUILTIN)
    return paths


def list_presets() -> list[str]:
    names: set[str] = set()
    for base in preset_search_paths():
        if base.is_dir():
            for f in base.glob("*.json"):
                names.add(f.stem)
    return sorted(names)


def load_datum(name: str) -> RootDatum:
    """Load a datum by preset name or by explicit path to a JSON file."""
    candidate = Path(name)
    if candidate.suffix == ".json" and candidate.exists():
        path = candidate
    else:
        path = None
        for base in preset_search_paths():
            p = base / f"{name}.json"
            if p.exists():
                path = p
                break
        if path is None:
            raise ConfigError(f"unknown preset {name!r}; searched {[str(p) for p in preset_search_paths()]}")
    try:
        raw = json.loads(path.read_text())
        return RootDatum(
            name=raw["name"],
            rank=int(raw["rank"]),
            pairing=tuple(tuple(int(x) for x in row) for row in raw["pairing"]),
            simple_roots=tuple(tuple(int(x) for x in v) for v in raw["simple_roots"]),
            coroots=tuple(tuple(int(x) for x in v) for v in raw["coroots"]),
            comments=raw.get("comments", ""),
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed preset file {path}: {exc}") from exc
