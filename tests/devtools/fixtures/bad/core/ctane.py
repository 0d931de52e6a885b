"""Deliberate REP010 violations: pattern objects inside the CTANE engine."""

from repro.core import pattern
from repro.core.pattern import WILDCARD, pattern_leq


def more_general(first, second):
    return pattern_leq(first, second) or second is WILDCARD


def is_free(code):
    return pattern.is_wildcard(code)
