"""Answer checking against references from a fresh engine per query.

A reference is computed by a new ``ReasoningEngine(kb,
incremental=False)`` for every query: no warm session, no daemon, no
cache. References are computed after the timed window and outside
set-up. Answers are compared on what every correct path must agree on:
the verdict and the minimal conflict set. A feasible design is also
re-checked by a fresh engine with the design pinned on top of the
request it answers (:func:`design_problem`).

Daemon answers are verified in two child processes, each replaying the
delta schedule over its share of the answers (``python3 checker.py``
reads one share as JSON on stdin and writes its verdicts to stdout).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.design import DesignRequest
from repro.core.engine import ReasoningEngine
from repro.knowledge import default_knowledge_base

#: The case-study synthesize optimum, computed by a fresh engine on the
#: code this benchmark was defined on; the executor stops its capex
#: bisection within 2% of the optimum, so answers within that band pass.
CASESTUDY_CAPEX_USD = 1_072_220
CAPEX_TOLERANCE = 0.02


def _fresh(kb) -> ReasoningEngine:
    return ReasoningEngine(kb, validate=False, incremental=False)


def _verify_chunk(chunk: list[tuple], corrupted: bool) -> list[str | None]:
    """:func:`verify` over consecutive ``(new_ops, verb, request, wire)``
    answers, applying each answer's new delta ops first."""
    kb = default_knowledge_base()
    out = []
    for new_ops, verb, request, wire in chunk:
        if new_ops:
            kb.apply_entity_delta(new_ops)
        out.append(verify(kb, verb, DesignRequest.from_dict(request), wire,
                          corrupted))
    return out


def verify_answers(ops: list[dict], answers: list[tuple], corrupted: bool,
                   jobs: int = 2) -> list[str | None]:
    """What is wrong with each ``(ops_applied, verb, request, wire)``
    answer (None when it passes), in order.

    *ops_applied* is how many of *ops* the daemon had applied when it
    answered. The answers are cut into *jobs* consecutive chunks, each
    verified by one child process (this file run as a script, JSON over
    its stdin and stdout) that replays the delta ops as it goes. Plain
    child processes rather than ``multiprocessing``: the latter leaves a
    resource-tracker process behind that outlives the caller.
    """
    if not answers:
        return []
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(answers) // 4))
    size = -(-len(answers) // jobs)
    chunks = []
    for start in range(0, len(answers), size):
        chunk, applied = [], 0
        for ops_applied, verb, request, wire in answers[start:start + size]:
            chunk.append((ops[applied:ops_applied], verb, request.to_dict(),
                          wire))
            applied = ops_applied
        chunks.append(chunk)
    if len(chunks) == 1:
        return _verify_chunk(chunks[0], corrupted)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    children = []
    try:
        for chunk in chunks:
            child = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve())],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=env,
            )
            children.append(child)
            child.stdin.write(json.dumps({"chunk": chunk,
                                          "corrupted": corrupted}))
            child.stdin.close()
        out = []
        for child in children:
            text = child.stdout.read()
            if child.wait() != 0:
                raise RuntimeError(f"checker process exited {child.returncode}")
            out.extend(json.loads(text))
        return out
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()


def reference(kb, verb: str, request) -> dict:
    """The fresh-engine answer, reduced to what :func:`summarize` keeps."""
    if verb == "check":
        outcome = _fresh(kb).check(request)
        return {
            "feasible": outcome.feasible,
            "conflict": (
                sorted(outcome.conflict.constraints)
                if outcome.conflict is not None else None
            ),
        }
    conflict = _fresh(kb).diagnose(request)
    return {
        "conflict": None if conflict is None else sorted(conflict.constraints)
    }


def summarize(verb: str, wire) -> dict:
    """A daemon answer (wire ``result``) in :func:`reference`'s shape."""
    if verb == "check":
        conflict = wire.get("conflict")
        return {
            "feasible": wire.get("feasible"),
            "conflict": (
                sorted(conflict["constraints"]) if conflict else None
            ),
        }
    return {"conflict": None if wire is None else sorted(wire["constraints"])}


def corrupt(ref: dict) -> dict:
    """A reference no correct answer can match (checker self-test)."""
    return {**ref, "conflict": (ref.get("conflict") or []) + ["corrupted"]}


def verify(kb, verb: str, request, wire, corrupted: bool = False
           ) -> str | None:
    """Why a daemon answer is wrong, or None when it passes."""
    ref = reference(kb, verb, request)
    if corrupted:
        ref = corrupt(ref)
    got = summarize(verb, wire)
    if got != ref:
        return f"answer {got} != reference {ref}"
    if verb == "check" and got["feasible"]:
        solution = wire["solution"]
        return design_problem(kb, request, solution["systems"],
                              solution["hardware"])
    return None


def design_problem(kb, request, systems, hardware: dict) -> str | None:
    """Why a returned design does not answer *request*, or None.

    A fresh engine checks *request* with the design pinned on top of the
    request's own constraints: the design's systems are required, every
    other candidate is forbidden (a design's system that is not a
    candidate is both), and every hardware model the request may use is
    frozen at the design's unit count. A frozen count widens a model's
    domain past its inventory, so the request's own hardware bounds are
    compared here instead: they must admit the design's counts.
    """
    candidates = (
        request.candidate_systems if request.candidate_systems is not None
        else list(kb.systems)
    )
    models = (
        list(kb.hardware) if request.inventory is None
        else list(request.inventory)
    )
    frozen = {
        model: hardware.get(model, 0)
        for model in [*models, *request.fixed_hardware, *hardware]
    }
    for model, units in frozen.items():
        if model not in kb.hardware:
            return f"unknown hardware model {model}"
        if model in request.fixed_hardware:
            cap = request.fixed_hardware[model]
        elif request.inventory is not None:
            cap = request.inventory.get(model, 0)
        else:
            cap = kb.hardware_model(model).max_units
        if units > cap or units < request.fixed_hardware.get(model, 0):
            return f"{model}: {units} units outside the request's bound"
    pinned = replace(
        request,
        required_systems=sorted(set(request.required_systems) | set(systems)),
        forbidden_systems=sorted(
            set(request.forbidden_systems) | (set(candidates) ^ set(systems))
        ),
        fixed_hardware=frozen,
    )
    if not _fresh(kb).check(pinned).feasible:
        return "the returned design fails a pinned re-check"
    return None


def check_casestudy(kb, request, answer: dict, corrupted: bool) -> list[str]:
    """Problems with one case-study ``synthesize`` answer.

    Three checks: the returned design passes :func:`design_problem`; the
    latency objective equals a fresh engine's latency-only optimum
    (latency is the first objective, so the full lexicographic answer
    must reach it); capex is within the executor's 2% stopping tolerance
    of the reference optimum.
    """
    if not answer.get("feasible"):
        return ["synthesize returned infeasible"]
    problems = []
    problem = design_problem(kb, request, answer["systems"],
                             answer["hardware"])
    if problem is not None:
        problems.append(problem)
    latency_ref = _fresh(kb).synthesize(
        replace(request, optimize=["latency"])
    ).solution.objective_costs["latency"]
    capex_ref = CASESTUDY_CAPEX_USD
    if corrupted:
        latency_ref += 1
        capex_ref *= 2
    latency = answer["objective_costs"]["latency"]
    if latency != latency_ref:
        problems.append(f"latency objective {latency} != {latency_ref}")
    capex = answer["cost_usd"]
    if abs(capex - capex_ref) > CAPEX_TOLERANCE * capex_ref:
        problems.append(
            f"capex {capex} outside {CAPEX_TOLERANCE:.0%} of {capex_ref}"
        )
    return problems


def _main() -> int:
    job = json.load(sys.stdin)
    chunk = [tuple(answer) for answer in job["chunk"]]
    json.dump(_verify_chunk(chunk, job["corrupted"]), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
