"""Correctness checks on the reports of benchmark jobs.

Each check is independent of `uqbench` wherever it can be: the Nichols
dimension tables are compared with the Kostant partition function of the
datum's positive roots, computed here from the preset's pairing matrix,
and the braid matrices are compared with each other and with the identity.
Every report must also match, byte for byte, the sha256 recorded in
`reference.json`.  `trivialize` reports `"verified": true` unconditionally
(it is written as a constant in `uqbench.cli`), so only its digest checks it.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from pools import Job

OK_STATUS = {0: {"OK", "PASS"}, 3: {"ERROR"}}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pairing(presets: Path, datum: str) -> list[list[int]]:
    return json.loads((presets / f"{datum}.json").read_text())["pairing"]


def positive_roots(pairing: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates: the orbit of the simple
    roots under the simple reflections s_i(b) = b - 2(b,a_i)/(a_i,a_i) a_i,
    keeping the roots with nonnegative coordinates."""
    rank = len(pairing)

    def form(x, y):
        return sum(x[i] * pairing[i][j] * y[j]
                   for i in range(rank) for j in range(rank))

    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i, alpha in enumerate(simple):
            k = Fraction(2 * form(beta, alpha), form(alpha, alpha))
            image = tuple(b - int(k) * (j == i) for j, b in enumerate(beta))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return sorted(r for r in seen if all(c >= 0 for c in r))


def _multidegrees(rank: int, total: int):
    if rank == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multidegrees(rank - 1, total - head):
            yield (head,) + rest


def kostant_table(pairing: list[list[int]], max_degree: int) -> dict[str, int]:
    """Number of ways to write each multidegree of total degree <= max_degree
    as a sum of positive roots, keyed as `nichols-dims` keys its table."""
    rank = len(pairing)
    degrees = [d for total in range(max_degree + 1)
               for d in _multidegrees(rank, total)]
    count = {d: int(not any(d)) for d in degrees}
    for root in positive_roots(pairing):
        # Coin-change over multidegrees: adding one root at a time counts
        # multisets of roots, not sequences.
        for d in sorted(degrees, key=sum):
            rest = tuple(a - b for a, b in zip(d, root))
            if min(rest) >= 0:
                count[d] += count[rest]
    return {str(d): n for d, n in count.items()}


def is_identity(matrix: list[list[str]]) -> bool:
    return all(entry == ("1" if i == j else "0")
               for i, row in enumerate(matrix) for j, entry in enumerate(row))


class Checker:
    """Checks one report at a time against the references and oracles."""

    def __init__(self, presets: Path, references: dict[str, str]):
        self.presets = presets
        self.references = references
        self._kostant: dict[tuple[str, int], dict[str, int]] = {}

    def kostant(self, datum: str, max_degree: int) -> dict[str, int]:
        key = (datum, max_degree)
        if key not in self._kostant:
            self._kostant[key] = kostant_table(
                load_pairing(self.presets, datum), max_degree)
        return self._kostant[key]

    def problems(self, job: Job, rc: int, text: str) -> list[str]:
        """Every way the report `text` with exit code `rc` is wrong."""
        found = []
        if rc != job.expect_rc:
            found.append(f"exit code {rc}, expected {job.expect_rc}")
        expected = self.references.get(job.key)
        if expected is None:
            found.append("no reference digest")
        elif digest(text) != expected:
            found.append("report digest differs from the reference")
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return found + ["report is not JSON"]
        if report.get("status") not in OK_STATUS.get(job.expect_rc, ()):
            found.append(f"status {report.get('status')!r}")
        if job.expect_rc:
            return found
        result = report.get("result", {})
        sub = job.subcommand
        if sub == "nichols-dims":
            want = self.kostant(job.option("--datum"),
                                int(job.option("--max-degree")))
            if result.get("dims") != want:
                found.append("dimension table differs from the Kostant "
                             "partition function")
        elif sub == "serre-check":
            if not all(p["in_radical"] for p in result.get("pairs", [])):
                found.append("a Serre element escapes the radical")
        elif sub == "hopf-check":
            if not all(result.get("checks", {}).values()):
                found.append("a Hopf axiom check is false")
        elif sub == "ybe-check":
            if result.get("ybe") is not True:
                found.append("Yang-Baxter check is false")
        elif sub == "rigidity-solve":
            if result.get("residual_zero_mod_next_order") is not True:
                found.append("conjugation residual is not zero")
        elif sub == "braid-rep" and job.option("--word") == "1,-1":
            if not is_identity(result.get("matrix", [])):
                found.append("sigma_1 sigma_1^-1 is not the identity")
        elif sub == "converge-cert":
            if result.get("reverified") is not True:
                found.append("certificate does not reverify")
        return found


def braid_relation_failures(matrices: dict[str, list]) -> list[str]:
    """`matrices` maps braid-rep job keys to their matrices.  The words 1,2,1
    and 2,1,2 of one shape must give equal matrices; returns the keys of the
    2,1,2 jobs where they do not."""
    failures = []
    for key, mat in matrices.items():
        if key.endswith("--word 1,2,1"):
            other = key[:-len("1,2,1")] + "2,1,2"
            if other in matrices and matrices[other] != mat:
                failures.append(other)
    return failures
