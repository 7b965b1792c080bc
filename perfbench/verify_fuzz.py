"""``verify-fuzz``: the differential-verification driver at a fixed size.

Runs ``python -m repro.verify``'s ``main`` in this process (interpreter
start and imports are what ``setup_s`` times) with the workload seed and
a fixed iteration count instead of a time budget, so every run checks
the same number of cases: the injected-bug self-check, the metamorphic
identities, then ``ITERATIONS`` oracle iterations each interleaved with
one batched kernel round. Every pass runs the same seeded cases; each
cold pass starts with the program's in-process construction caches
cleared and the warm passes run with them filled.
"""

from __future__ import annotations

import contextlib
import io
import re
import time

from common import Outcome

#: The seed picks every case, and the cost of a batched round varies with
#: its cases by up to 2x: sixteen iterations average that out to within a
#: few percent from seed to seed, where four left a fifth.
ITERATIONS = 16
IDENTITY_ROUNDS = 1
#: Verify passes are whole runs (about 7 s each), so fewer of them than
#: for the sweeps.
COLD_PASSES = 3
WARM_PASSES = 1

_SUMMARY = {
    "bugs": r"self-check: (\d+) injected bugs, (\d+) undetected",
    "identities": r"identities: (\d+) rounds x (\d+) identities, (\d+) mismatches",
    "fuzz": r"fuzz: (\d+) oracle iterations \+ (\d+) batched lanes .* = (\d+) cases, (\d+) failures",
}


def _verify(ctx, seed: int) -> tuple[int, str]:
    from repro.verify.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([
            "--seed", str(seed),
            "--seconds", "1e9",
            "--max-iterations", str(ITERATIONS),
            "--identities", str(IDENTITY_ROUNDS),
            "--artifact-dir", str(ctx.tmp / "verify-failures"),
        ])
    return code, stdout.getvalue()


def _parse(text: str) -> dict[str, tuple[int, ...]]:
    parsed = {}
    for key, pattern in _SUMMARY.items():
        match = re.search(pattern, text)
        if match is None:
            raise ValueError(f"verify printed no {key} summary:\n{text}")
        parsed[key] = tuple(int(g) for g in match.groups())
    return parsed


def run(ctx, cold_only: bool):
    from repro.batch import clear_caches

    out = Outcome()
    if not cold_only and ctx.tracer is None:
        ctx.setup_probe("verify", out)
    with ctx.region():
        start = time.perf_counter()
        colds = []
        for _ in range(ctx.cold_passes(cold_only, COLD_PASSES)):
            clear_caches()
            colds.append(ctx.timed(out.cold, _verify, ctx, ctx.seed, cpu=out.cold_cpu))
        if cold_only:
            return out
        warm = []
        while len(warm) < ctx.warm_passes(WARM_PASSES) or (
            not ctx.tracer and time.perf_counter() - start < ctx.seconds
        ):
            warm.append(ctx.timed(out.warm, _verify, ctx, ctx.seed))

    code, text = colds[0]
    summary = _parse(text)
    bugs, undetected = summary["bugs"]
    rounds, identities, mismatches = summary["identities"]
    oracle_cases, lanes, cases, fuzz_failures = summary["fuzz"]
    out.check(code == 0, f"verify exited {code}:\n{text}")
    out.attempted += bugs + rounds * identities + cases
    out.failures += [f"verify: injected bug undetected:\n{text}"] * undetected
    out.failures += [f"verify: identity mismatch:\n{text}"] * mismatches
    out.failures += [f"verify: fuzz failure:\n{text}"] * fuzz_failures
    for other_code, other_text in colds[1:] + warm:
        out.check(
            other_code == code and _parse(other_text) == summary,
            f"repeated verify run differs from the first:\n{other_text}",
        )
    out.layer.update({
        "verify.cases": cases,
        "verify.oracle_cases": oracle_cases,
        "verify.batched_lanes": lanes,
        "verify_cases_per_s": cases / out.wall_s,
    })
    out.notes.append(
        f"verify: {bugs} injected bugs ({undetected} undetected), "
        f"{rounds}x{identities} identities ({mismatches} mismatches), "
        f"{cases} fuzz cases ({fuzz_failures} failures)"
    )
    out.notes.append(f"verify_cases_per_s: {cases / out.wall_s:.6g} cases/s")
    return out
