"""Job pools of the benchmark workloads.

A job is one `uqbench` command line, run in-process through
`uqbench.cli.main`.  Every job a seed can draw belongs to a fixed pool, and
`reference.json` holds the sha256 of its report, recorded once.

The seed shuffles the order of a pass and draws only parameters that leave
the work of a pass all but unchanged: `hopf-check`'s `--cap` (its sample
elements have degree at most 3, below every cap in the pool; the traced
call counts are identical at caps 4, 5 and 6), which `rigidity-solve` seed
coefficient goes with which order, and which `rigidity-solve` job carries
`--prime 3` (together under 1% of a `deform-solve` pass).  So the spread
of a metric across seeds measures the program and the host, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect_rc: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def option(self, name: str, default: str | None = None) -> str | None:
        """The value of `--name` in argv (the last one, as argparse does)."""
        value = default
        for flag, arg in zip(self.argv, self.argv[1:]):
            if flag == name:
                value = arg
        return value


def _job(text: str, expect_rc: int = 0) -> Job:
    return Job(tuple(text.split()), expect_rc)


NICHOLS_DEGREES = {"A2": 6, "B2": 5, "G2": 5}
HOPF_DATA = ("A2", "B2", "G2")
HOPF_SAMPLE_SEEDS = (0, 1)
HOPF_CAPS = (4, 5, 6)
YBE_LAMS = (1, 2, 3)
YBE_CAPS = (5, 6)
BRAID_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4))
BRAID_WORDS = ("1,2,1", "2,1,2", "1,-1")
RIGIDITY_ORDERS = (8, 9, 10)
RIGIDITY_COEFFS = ("E", "H", "F")
RIGIDITY_SIZE = "--cap 12 --window 6"
TRIVIALIZE_ORDERS = (3, 4, 5)
TRIVIALIZE_PLANTS = ("--plant E=H", "--plant H=E", "--plant F=0",
                     "--plant E=H --plant F=H")
TRIVIALIZE_SIZE = "--cap 6 --window 3"
# Planted order-1 conjugator 1,1,0 needs products above the cap: exit 3.
CAP_FAILURE = _job(f"rigidity-solve {RIGIDITY_SIZE} --order 8 "
                   "--seed-coeff 1,1,0", expect_rc=3)


def _hopf(datum: str, cap: int, sample_seed: int) -> Job:
    return _job(f"hopf-check --datum {datum} --cap {cap} "
                f"--seed {sample_seed} --samples 8")


def _rigidity(order: int, coeff: str, prime: bool) -> Job:
    extra = " --prime 3" if prime else ""
    return _job(f"rigidity-solve {RIGIDITY_SIZE} --order {order} "
                f"--seed-coeff {coeff}{extra}")


def braid_job(strands: int, cap: int, word: str) -> Job:
    return _job(f"braid-rep --datum A1 --strands {strands} --cap {cap} "
                f"--word {word}")


def _fixed_nichols() -> list[Job]:
    jobs = [_job(f"nichols-dims --datum {d} --max-degree {n}")
            for d, n in NICHOLS_DEGREES.items()]
    return jobs + [_job(f"serre-check --datum {d}") for d in NICHOLS_DEGREES]


def _fixed_braiding() -> list[Job]:
    jobs = [_job(f"ybe-check --datum A1 --lam {lam} --cap {cap}")
            for lam in YBE_LAMS for cap in YBE_CAPS]
    return jobs + [braid_job(s, c, w) for s, c in BRAID_SHAPES
                   for w in BRAID_WORDS]


def _fixed_deform() -> list[Job]:
    return [CAP_FAILURE] + [
        _job(f"trivialize {TRIVIALIZE_SIZE} --order {order} {plant}")
        for order in TRIVIALIZE_ORDERS for plant in TRIVIALIZE_PLANTS]


def _nichols_gram(rng: random.Random) -> list[Job]:
    return _fixed_nichols()


def _hopf_braid(rng: random.Random) -> list[Job]:
    jobs = []
    for datum in HOPF_DATA:
        caps = rng.sample(HOPF_CAPS, len(HOPF_SAMPLE_SEEDS))
        jobs += [_hopf(datum, cap, s) for cap, s in zip(caps, HOPF_SAMPLE_SEEDS)]
    return jobs + _fixed_braiding()


def _deform_solve(rng: random.Random) -> list[Job]:
    coeffs = rng.sample(RIGIDITY_COEFFS, len(RIGIDITY_COEFFS))
    with_prime = rng.randrange(len(RIGIDITY_ORDERS))
    jobs = [_rigidity(order, coeff, k == with_prime)
            for k, (order, coeff) in enumerate(zip(RIGIDITY_ORDERS, coeffs))]
    return jobs + _fixed_deform()


def _smoke(rng: random.Random) -> list[Job]:
    return [_job("nichols-dims --datum A1 --max-degree 4"),
            _job("converge-cert --p 5 --vh 1")]


WORKLOADS = {
    "nichols-gram": _nichols_gram,
    "hopf-braid": _hopf_braid,
    "deform-solve": _deform_solve,
    # A tiny pool for the benchmark's own self-test; not in BENCHMARK.json.
    "smoke": _smoke,
}

# One small job per workload, run during set-up to load what the first
# timed job would otherwise pay for.
WARMUP = {
    "nichols-gram": _job("nichols-dims --datum G2 --max-degree 3"),
    "hopf-braid": _job("hopf-check --datum A2 --cap 4 --samples 2"),
    "deform-solve": _job("trivialize --cap 4 --window 2 --order 2"),
    "smoke": _job("nichols-dims --datum A1 --max-degree 2"),
}


def draw(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass of `workload`, in the order `seed` gives."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def full_pool() -> list[Job]:
    """Every job any seed can draw, for recording reference digests."""
    return (_fixed_nichols()
            + [_hopf(d, c, s) for d in HOPF_DATA for c in HOPF_CAPS
               for s in HOPF_SAMPLE_SEEDS]
            + _fixed_braiding()
            + [_rigidity(o, c, p) for o in RIGIDITY_ORDERS
               for c in RIGIDITY_COEFFS for p in (False, True)]
            + _fixed_deform()
            + _smoke(random.Random(0)))
