"""Theorem conclusions as sweeps: where a checker says every sufficient
condition holds, bias amplification must follow.

One row per theorem: its checker and the paper's statement it stands for.
Each row draws worlds from criterion 4's generator (``_thm1_candidates``,
treatment tables additive, multiplicative or sorted, outcome means sorted
in u) with a fixed seed.  Every other world has its outcome means reversed
in u, so that it meets every premise but the monotone outcome; a checker
that skips that premise lets those worlds through, and they amplify with
the wrong sign.  Every world on which all of the row's reports hold must
satisfy the signed ordering of the bias slots: adjusted beyond unadjusted
beyond true, for the treated, control and whole-population slots.
"""

from dataclasses import replace

import numpy as np
import pytest
from test_acceptance import _thm1_candidates, signed_ordering_ok

from zbias import check_thm2, check_thm3, estimates

WORLDS = 6_000

SWEEPS = [
    # thm2: an additive treatment model Pr(A=1|z,u) = g(z) + h(u) with g and h
    # non-decreasing, E(Y|A=a,U=u) non-decreasing in u and mass at the top
    # confounder level in every arm make the instrument a bias amplifier.
    ("thm2", check_thm2, 6211),
    # thm3: the same with a multiplicative model Pr(A=1|z,u) = g(z) h(u).
    ("thm3", check_thm3, 6311),
]


def _mirrored(s):
    """``s`` with its outcome means in reverse u order."""
    return replace(s, outcome_mean=tuple(tuple(row[::-1] for row in arm)
                                         for arm in s.outcome_mean))


@pytest.mark.parametrize("theorem, check, seed", SWEEPS)
def test_conditions_imply_signed_amplification(theorem, check, seed):
    candidates = _thm1_candidates(np.random.default_rng(seed))
    kept = {False: 0, True: 0}
    violations = []
    for k in range(WORLDS):
        s = next(candidates)
        mirrored = k % 2 == 1
        if mirrored:
            s = _mirrored(s)
        if not all(r.holds for r in check(s)):
            continue
        kept[mirrored] += 1
        if not signed_ordering_ok(estimates(s)):
            violations.append(s)
    assert not violations, (theorem, len(violations), violations[0])
    # Otherwise the sweep could pass on few or no worlds.
    assert kept[False] >= 800, (theorem, kept)
    # A reversed outcome is decreasing in u wherever the draw was not flat.
    assert kept[True] == 0, (theorem, kept)
