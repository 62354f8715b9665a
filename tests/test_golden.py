"""Byte identity with the golden runs (``tests/golden.json``).

The oracles elsewhere hold results within tolerances, so a change that
moves the arithmetic by a last bit passes them, and top-2 routing flips
amplify such a bit into a different model (0.045 nats after 200 proxy
steps). Here short fixed runs of the command line must reproduce the
golden file's output bytes exactly when the numpy and BLAS build matches
the one that wrote it. On another build, where float results differ in
the last bits, their losses must agree within ``TOLERANCE`` and the facts
no build changes (steps, trial ids, genomes, stop reasons, parameter
counts) must match exactly. Each failure message names the comparison
that ran; neither is ever skipped.

``tests/regen_golden.py`` rewrites the file, for a change that means to
move these numbers.
"""

import json

import pytest

from regen_golden import GOLDEN, fingerprint, run_cases

GOLDEN_DOC = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def runs():
    return run_cases()


def _comparison():
    build = fingerprint()
    if build == GOLDEN_DOC["fingerprint"]:
        return True, f"bitwise, on the golden's build {build}"
    return False, (f"within {GOLDEN_DOC['tolerance']:g} relative, on build {build} "
                   f"(the golden's: {GOLDEN_DOC['fingerprint']})")


def test_every_case_has_a_golden(runs):
    assert sorted(runs) == sorted(GOLDEN_DOC["cases"])


@pytest.mark.parametrize("case", sorted(GOLDEN_DOC["cases"]))
def test_matches_golden(runs, case):
    got, want = runs[case], GOLDEN_DOC["cases"][case]
    bitwise, comparison = _comparison()
    print(f"{case}: {comparison}")
    assert got["facts"] == want["facts"], f"{case}: facts differ ({comparison})"
    assert len(got["losses"]) == len(want["losses"]), f"{case}: loss count ({comparison})"
    if bitwise:
        assert got["losses"] == want["losses"], f"{case}: losses differ ({comparison})"
        assert got["digests"] == want["digests"], f"{case}: output bytes differ ({comparison})"
        return
    gaps = [abs(a - b) / max(abs(a), abs(b), 1e-300)
            for a, b in ((float.fromhex(x), float.fromhex(y))
                         for x, y in zip(got["losses"], want["losses"]))]
    worst = max(gaps, default=0.0)
    assert worst <= GOLDEN_DOC["tolerance"], \
        f"{case}: losses differ by {worst:.3g} relative ({comparison})"
