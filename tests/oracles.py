"""Independent reference implementations used to check the package.

Everything in this module is deliberately written from scratch against the
underlying definitions (ISO 7064 mod 11-2, exhaustive path enumeration,
exact rational arithmetic) and must not import from credit_ledger. Tests compare package output against
these oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction


def orcid_check_char(base15: str) -> str:
    """Expected ORCID check character for 15 base digits.

    Uses the polynomial form of ISO 7064 mod 11-2: the full 16-character
    string d1..d15,c must satisfy sum(d_i * 2**(16-i)) + c == 1 (mod 11),
    with 10 written as 'X'.
    """
    if len(base15) != 15 or not base15.isdigit():
        raise ValueError(f"need 15 digits, got {base15!r}")
    acc = 0
    for pos, ch in enumerate(base15, start=1):
        acc += int(ch) * pow(2, 16 - pos, 11)
    check = (1 - acc) % 11
    return "X" if check == 10 else str(check)


def orcid_is_valid(orcid: str) -> bool:
    """Checksum verdict for a hyphenated or bare 16-character ORCID."""
    digits = orcid.replace("-", "")
    if len(digits) != 16 or not digits[:15].isdigit():
        return False
    return orcid_check_char(digits[:15]) == digits[15].upper()


def mint_orcid(base15: str) -> str:
    """Hyphenated ORCID with a freshly computed check character."""
    full = base15 + orcid_check_char(base15)
    return f"{full[0:4]}-{full[4:8]}-{full[8:12]}-{full[12:16]}"


def credit_by_paths(
    corpus: dict[str, list[tuple[str, float]]],
    root: str,
    max_depth: int | None = None,
) -> dict[str, float]:
    """Brute-force credit allocation by enumerating every citation path.

    corpus maps a registered product id to its weighted references (target
    id, weight). Any target that is itself a corpus key is expanded; anything
    else is a terminal. A path contributes the product of its weights to the
    terminal it ends at. With max_depth set, references sitting max_depth
    steps below the root are treated as terminals even when registered.

    Exponential on purpose: it is only ever run on small corpora.
    """
    buckets: dict[str, list[float]] = {}

    def walk(pid: str, carried: float, depth: int) -> None:
        for target, weight in corpus[pid]:
            amount = carried * weight
            if target in corpus and (max_depth is None or depth < max_depth):
                walk(target, amount, depth + 1)
            else:
                buckets.setdefault(target, []).append(amount)

    walk(root, 1.0, 1)
    return {target: math.fsum(parts) for target, parts in buckets.items()}


def exact_credit_by_depth(
    corpus: dict[str, list[tuple[str, float]]],
    starts: list[str],
) -> list[tuple[dict[str, Fraction], bool]]:
    """Exact credit from unit mass on each start product, for every depth limit.

    corpus is as for credit_by_paths. Every float weight is converted to a
    Fraction exactly and no arithmetic rounds. The walk follows all citation
    paths together, one step at a time: after step d, each target holds the
    summed weight products of the paths of d steps that end at it.

    Entry d - 1 of the result is the allocation under max_depth d: what the
    terminals received within d steps plus what the registered products
    reached at step d hold, and whether any such product was cut off. The
    walk stops after the first step that reaches no registered product, so
    the last entry is the unlimited allocation, which every larger limit
    also gives. Runs in O(E * longest path) Fraction operations.
    """
    frontier: dict[str, Fraction] = {}
    for pid in starts:
        frontier[pid] = frontier.get(pid, Fraction(0)) + 1
    absorbed: dict[str, Fraction] = {}
    results: list[tuple[dict[str, Fraction], bool]] = []
    while True:
        following: dict[str, Fraction] = {}
        for pid, mass in frontier.items():
            for target, weight in corpus[pid]:
                into = following if target in corpus else absorbed
                into[target] = into.get(target, Fraction(0)) + mass * Fraction(weight)
        cut_off = dict(absorbed)
        for pid, mass in following.items():
            cut_off[pid] = cut_off.get(pid, Fraction(0)) + mass
        results.append((cut_off, bool(following)))
        if not following:
            return results
        frontier = following
