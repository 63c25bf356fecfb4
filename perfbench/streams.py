"""The generated inputs: architect query streams and spec-sheet deltas.

Everything here is a pure function of the workload seed. The program
under test only ever sees the requests and sheets built here.

The architect works on §5.1 query 1, ``more_workloads_request()``. Its
stream is 20 ``check`` what-if variations plus 16 ``diagnose``
variations of that base request, in an order set by the seed. The
shapes mirror the repository's what-if and repeated-conflict sweeps.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.extraction.documents import spec_sheet_text
from repro.knowledge.casestudy import (
    CASE_STUDY_INVENTORY,
    more_workloads_request,
)
from repro.knowledge.memory import CXL_APPLIANCE

_VARIANT_SYSTEMS = ["Sonata", "DCTCP", "Swift", "QUIC", "HPCC"]


def check_variants(base) -> list:
    """The 20 structural what-if variations of *base* (verb ``check``)."""
    flipped = not base.context.get("network_load_ge_40g", False)
    out = [base]
    for name in _VARIANT_SYSTEMS:
        out.append(replace(base, required_systems=[name]))
        out.append(replace(base, forbidden_systems=[name]))
    out += [
        replace(base, required_systems=["QUIC"], forbidden_systems=["DCTCP"]),
        replace(base, required_systems=["Sonata", "Swift"]),
        replace(base, fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, fixed_hardware={"SRV-G3-128C-512G": 24}),
        replace(base, context={**base.context,
                               "network_load_ge_40g": flipped}),
        replace(base, forbidden_systems=["Sonata", "Swift"]),
        replace(base, budgets={"capex_usd": 2_000_000}),
        replace(base, budgets={"power_w": 200_000}),
        replace(base, required_systems=["DCTCP"],
                budgets={"capex_usd": 2_000_000}),
    ]
    return out


def diagnose_variants(base) -> list:
    """The 16 "why does nothing fit?" variations of *base* (``diagnose``).

    Each differs from the last by a required/forbidden system, a pinned
    hardware count or a budget figure, so core minimization runs on
    nearly every query.
    """
    tight = replace(base, budgets={"capex_usd": 100})
    out = [tight]
    for name in ("Sonata", "DCTCP", "Swift", "HPCC"):
        out.append(replace(tight, required_systems=[name]))
        out.append(replace(tight, forbidden_systems=[name]))
    out += [
        replace(base, budgets={"power_w": 1}),
        replace(tight, required_systems=["QUIC"]),
        replace(tight, forbidden_systems=["Sonata", "Swift"]),
        replace(tight, fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, budgets={"power_w": 1},
                fixed_hardware={"SRV-G2-64C-256G": 32}),
        replace(base, budgets={"capex_usd": 200}),
        replace(base, budgets={"capex_usd": 500}),
    ]
    return out


def architect_queries() -> list[tuple[str, object]]:
    """The architect's 36 distinct ``(verb, request)`` queries."""
    base = more_workloads_request()
    return (
        [("check", r) for r in check_variants(base)]
        + [("diagnose", r) for r in diagnose_variants(base)]
    )


def query_passes(seed: int, count: int):
    """Endless passes over :func:`architect_queries`: each pass is a
    seeded shuffle of all *count* query indices."""
    rng = random.Random(f"{seed}:queries")
    while True:
        block = list(range(count))
        rng.shuffle(block)
        yield block


# -- spec-sheet deltas for the ingest workload ---------------------------------------

#: SKUs of the architect's inventory that the feeder may re-issue (the CXL
#: appliance has no spec-sheet schema of its own).
REISSUE_POOL = [m for m in CASE_STUDY_INVENTORY if m != CXL_APPLIANCE]


class SheetFeed:
    """Seeded vendor spec sheets for the ingest feeder.

    :meth:`refresh` is a copy of a shortlisted model under a new
    ``-R<n>`` name and list price, outside every request's inventory:
    the delta is footprint-disjoint and warm sessions adopt it.
    :meth:`reissue` is a shortlisted model re-issued with a revised power
    rating: the delta lands inside the architect's footprint, so sessions
    rebase. Re-issues keep list prices fixed because the capex-budget
    what-ifs are price-sensitive: with four shortlisted prices moved by
    up to 3%, one fresh ``capex_usd <= 2,000,000`` check took anywhere
    from 1.0 s to 5.5 s, which would make runs on different seeds
    incomparable. The seed picks the models, prices and ratings. *kb* is
    only read.
    """

    def __init__(self, kb, seed: int):
        self._kb = kb
        self._rng = random.Random(f"{seed}:sheets")
        self._issued = 0
        self._power: dict[str, int] = {}

    def refresh(self) -> tuple[str, str]:
        model, hardware = self._pick()
        spec = replace(
            hardware.spec,
            model=f"{model}-R{self._issued + 1}",
            cost_usd=int(hardware.spec.cost_usd * self._rng.uniform(0.9, 1.1)),
        )
        return self._sheet(replace(hardware, spec=spec))

    def reissue(self) -> tuple[str, str]:
        model, hardware = self._pick()
        power = self._power.get(model, hardware.spec.power_w)
        while power == self._power.get(model, hardware.spec.power_w):
            power = max(1, round(
                hardware.spec.power_w * self._rng.uniform(0.95, 1.05)
            ))
        self._power[model] = power
        spec = replace(hardware.spec, power_w=power)
        return self._sheet(replace(hardware, spec=spec))

    def _pick(self):
        model = self._rng.choice(REISSUE_POOL)
        return model, self._kb.hardware[model]

    def _sheet(self, hardware) -> tuple[str, str]:
        self._issued += 1
        return hardware.kind, spec_sheet_text(hardware, seed=self._issued)
