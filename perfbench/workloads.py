"""The benchmark's workloads: lists of hurwitz CLI requests, drawn from a seed.

Seed 0 gives each workload's default list.  Any other seed draws, for each
group of requests, profiles from the group's pool.  A pool holds profiles
of the same kind, degree range and number of parts as the defaults whose
request took within about 15 % of the default's time (one to three runs
each, one at a time, on a 2-core x86 machine), so a seed changes the inputs
but not the size of the workload.  Where no other profile of the class comes
that close (many-parts, oracle-verify) the pool holds only the defaults.
Every request that any seed can produce is pinned in reference.json.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

Profile = tuple[int, ...]


@dataclass(frozen=True)
class Group:
    """Requests that share one argv prefix and differ in --mu."""

    argv: tuple[str, ...]
    defaults: tuple[Profile, ...] = ()
    pool: tuple[Profile, ...] = ()

    def requests(self, rng: random.Random | None) -> list[tuple[str, ...]]:
        if not self.defaults:
            return [self.argv]
        mus = self.defaults if rng is None else rng.sample(self.pool, len(self.defaults))
        return [self._with_mu(mu) for mu in mus]

    def every_request(self) -> list[tuple[str, ...]]:
        return [self._with_mu(mu) for mu in self.pool] if self.pool else [self.argv]

    def _with_mu(self, mu: Profile) -> tuple[str, ...]:
        return self.argv + ("--mu", ",".join(map(str, mu)))


def _cmd(text: str) -> tuple[str, ...]:
    return tuple(text.split())


ONES_9 = (1,) * 9
DEGREE_12_THREE_PARTS = ((4, 4, 4), (6, 3, 3))
DEGREE_8_TWO_PARTS = ((7, 1), (6, 2), (5, 3), (4, 4))

WORKLOADS: dict[str, tuple[Group, ...]] = {
    "monotone-forms": (
        Group(_cmd("closed-form --kind monotone --format json"), ((12,),), ((12,), (11,))),
        Group(_cmd("closed-form --kind monotone --format json"), ((6, 6),), ((6, 6), (7, 5))),
        Group(
            _cmd("closed-form --kind monotone --format json"),
            ((4, 4, 4),),
            ((4, 4, 4), (5, 5, 2), (6, 5, 1)),
        ),
        Group(
            _cmd("closed-form --kind monotone --format json"),
            ((3, 3, 3, 3),),
            ((3, 3, 3, 3), (4, 4, 3, 1), (5, 3, 3, 1)),
        ),
        Group(
            _cmd("closed-form --kind monotone --format json"),
            ((4, 4, 2, 2),),
            ((4, 4, 2, 2), (4, 3, 3, 2), (5, 3, 2, 2), (5, 4, 2, 1)),
        ),
        Group(
            _cmd("closed-form --kind monotone --format json"),
            ((2,) * 6,),
            ((2,) * 6, (6, 2, 1, 1, 1, 1)),
        ),
        Group(_cmd("checks --kind monotone --d-max 8")),
    ),
    "many-parts": (
        Group(
            _cmd("closed-form --kind simple --format json"),
            (ONES_9, (2,) + (1,) * 8, (3,) + (1,) * 8),
            (ONES_9, (2,) + (1,) * 8, (3,) + (1,) * 8),
        ),
        Group(_cmd("closed-form --kind simple --format json"), ((1,) * 10,), ((1,) * 10,)),
        Group(_cmd("checks --kind simple --d-max 8")),
    ),
    "oracle-verify": (
        Group(_cmd("verify --kind monotone --genus-max 1"), ((4, 1), (3, 2)), ((4, 1), (3, 2))),
        Group(_cmd("verify --kind simple --genus-max 0"), ((3, 2),), ((3, 2),)),
        Group(_cmd("verify --kind simple --genus-max 1"), ((4,),), ((4,),)),
        # Also exposes the double count in the CLI's oracle command.
        Group(_cmd("oracle --kind monotone --genus 1"), ((5,),), ((5,),)),
    ),
    "tabulate": (
        Group(
            _cmd("table --kind monotone --genus-max 1000 --format csv"),
            ((10,),),
            ((9,), (10,)),
        ),
        Group(
            _cmd("table --kind simple --genus-max 1000 --format json"),
            ((5, 3),),
            DEGREE_8_TWO_PARTS,
        ),
        Group(_cmd("table --kind simple --genus-max 1000"), ((4, 4, 4),), DEGREE_12_THREE_PARTS),
        Group(
            _cmd("table --kind monotone --genus-max 2000 --format csv"),
            ((5, 3),),
            DEGREE_8_TWO_PARTS,
        ),
        # Exits 1 at the first benchmarked commit: the value has more digits
        # than Python's int-to-str limit.  It stays, counted as failed.
        Group(_cmd("eval --kind simple --genus 2000"), ((4, 4, 4),), DEGREE_12_THREE_PARTS),
    ),
}


def request_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def draw(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The request list of one workload for one seed."""
    rng = None if seed == 0 else random.Random(f"{workload}/{seed}")
    return [argv for group in WORKLOADS[workload] for argv in group.requests(rng)]


def every_request() -> list[tuple[str, ...]]:
    """Every request that some seed of some workload can produce."""
    seen: dict[str, tuple[str, ...]] = {}
    for groups in WORKLOADS.values():
        for group in groups:
            for argv in group.every_request():
                seen.setdefault(request_key(argv), argv)
    return list(seen.values())
