"""Integer-coded CTANE idiom: -1 is the wildcard, decoding happens once."""

from repro.core.cfd import cfd_from_codes
from repro.core.pattern import WILDCARD_CODE


def more_general(first, second):
    return second == WILDCARD_CODE or first == second


def decode(relation, rule):
    return cfd_from_codes(relation, *rule)
