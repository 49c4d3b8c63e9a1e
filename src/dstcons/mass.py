"""Mass functions over a finite frame of discernment and their combination rules.

Subsets of the frame are encoded as bitmask integers: bit ``i - 1`` set means
state ``s_i`` belongs to the subset.  Index 0 (the empty set) is never a valid
focal set.  Mass functions are sparse: only strictly positive masses are
stored, and they must total 1 within ``EPS_NORM``.

All values are plain floats and all operations are pure; ``MassFunction``
instances are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import fsum
from typing import Mapping

import numpy as np

# Normalization tolerance for "sums to one" checks.
EPS_NORM = 1e-9
# Masses below this are treated as rounding dust by renormalize().
EPS_PRUNE = 1e-12
# Dempster's rule is undefined at K = 1, so K >= 1 - EPS_CONFLICT counts as
# total conflict and the pair is skipped.  AC4's Dempster ordering rests on
# this value (see the comment in tests/test_acceptance.py).
EPS_CONFLICT = 1e-9


class TotalConflictError(Exception):
    """Dempster's rule is undefined: the two mass functions fully conflict (K = 1)."""


def check_count(name: str, value, minimum: int) -> None:
    """Reject a count that is not a Python ``int`` or is below ``minimum``.

    Bools and numpy integers are refused: frames and focal keys need plain ints.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class FrameOfDiscernment:
    """A frame of ``n`` mutually exclusive states ``s_1 .. s_n``."""

    n: int

    def __post_init__(self) -> None:
        check_count("n", self.n, 2)

    # Read on every evidence update: cached in the instance dict, which a
    # frozen dataclass still has, and which equality and hashing ignore.
    @cached_property
    def full_set(self) -> int:
        """Bitmask of the whole frame (the universal set)."""
        return (1 << self.n) - 1

    def singleton(self, i: int) -> int:
        """Bitmask of the single state ``s_i`` (1-based)."""
        # An exact type test refuses bools as cheaply as isinstance accepted them.
        if type(i) is not int:
            raise ValueError(f"state index must be an integer, got {i!r}")
        if not 1 <= i <= self.n:
            raise ValueError(f"state index {i} outside 1..{self.n}")
        return 1 << (i - 1)

    def members(self, subset: int) -> tuple[int, ...]:
        """1-based state indices contained in ``subset``."""
        self.check_subset(subset)
        return tuple(i + 1 for i in range(self.n) if subset >> i & 1)

    def check_subset(self, subset: int) -> None:
        if type(subset) is not int:
            raise ValueError(f"subset index must be an integer, got {subset!r}")
        if not 1 <= subset <= self.full_set:
            raise ValueError(
                f"subset index {subset} invalid for n={self.n}; "
                f"expected 1..{self.full_set} (empty set is not allowed)"
            )

    def subset_label(self, subset: int) -> str:
        """Human-readable label such as ``{s1,s3}``."""
        return "{" + ",".join(f"s{i}" for i in self.members(subset)) + "}"


class MassFunction:
    """A basic probability assignment: positive masses on non-empty subsets.

    ``focal`` maps subset bitmasks to masses.  Construction validates the
    invariants (no empty set, positive entries, total 1 within ``EPS_NORM``).
    ``focal`` must not be mutated: one instance may be held by several agents.
    Masses computed from masses that were already checked (the combiners'
    results, pruning, evidence) are not checked again: ``_from_products`` and
    ``evidence._evidence_mass`` build theirs in place, the rest by ``_trusted``.
    """

    __slots__ = ("frame", "focal")

    def __init__(self, frame: FrameOfDiscernment, focal: Mapping[int, float]):
        total = 0.0
        for subset, value in focal.items():
            frame.check_subset(subset)
            if not value > 0.0:
                raise ValueError(f"mass for subset {subset} must be > 0, got {value}")
            total += value
        if abs(total - 1.0) > EPS_NORM:
            raise ValueError(f"masses must total 1 within {EPS_NORM}, got {total!r}")
        self.frame = frame
        self.focal = dict(focal)

    @staticmethod
    def _trusted(frame: FrameOfDiscernment, focal: dict[int, float]) -> MassFunction:
        """Wrap ``focal`` as is: no check, no copy.

        The caller guarantees the invariants and hands over a dict that
        nothing else holds or mutates.
        """
        m = object.__new__(MassFunction)
        m.frame = frame
        m.focal = focal
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self.focal == other.focal

    def __repr__(self) -> str:
        return f"MassFunction(n={self.frame.n}, {format_mass(self)})"

    def __str__(self) -> str:
        return format_mass(self)


def format_mass(m: MassFunction) -> str:
    """Debug rendering, e.g. ``{s1,s3}:0.25; {s1,s2,s3}:0.75`` (ascending subsets)."""
    parts = [
        f"{m.frame.subset_label(subset)}:{m.focal[subset]:.6g}"
        for subset in sorted(m.focal)
    ]
    return "; ".join(parts)


def make_vacuous(frame: FrameOfDiscernment) -> MassFunction:
    """The state of complete ignorance: all mass on the universal set."""
    # A frame's full set with mass 1.0 cannot fail MassFunction's checks.
    return MassFunction._trusted(frame, {frame.full_set: 1.0})


def bel(m: MassFunction, subset: int) -> float:
    """Belief in ``subset``: total mass of focal sets contained in it."""
    m.frame.check_subset(subset)
    return fsum(v for a, v in m.focal.items() if a & subset == a)


def pl(m: MassFunction, subset: int) -> float:
    """Plausibility of ``subset``: total mass of focal sets intersecting it."""
    m.frame.check_subset(subset)
    return fsum(v for a, v in m.focal.items() if a & subset)


def pignistic(m: MassFunction) -> list[float]:
    """Split every focal set's mass equally among its member states.

    Returns the probability of each state ``s_1 .. s_n`` in order.
    """
    probs = [0.0] * m.frame.n
    for subset, value in m.focal.items():
        if not subset & (subset - 1):
            # A singleton's one share is its whole mass: value / 1 == value.
            probs[subset.bit_length() - 1] += value
            continue
        members = _MEMBERS.get(subset)
        if members is None:
            members = _MEMBERS[subset] = tuple(
                j for j in range(subset.bit_length()) if subset >> j & 1)
        share = value / len(members)
        for j in members:
            probs[j] += share
    return probs


# The 0-based member states of each subset pignistic has met, by bitmask, in
# ascending order: a pure function of the key, so every caller may share it.
# Filled on first use, not as a 2^n table: n is unbounded.
_MEMBERS: dict[int, tuple[int, ...]] = {}


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """The conflict K: total product mass landing on disjoint focal pairs."""
    _check_same_frame(m1, m2)
    return _conjunctive(m1.focal, m2.focal)[1]


def combine_dempster(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: intersection products rescaled by 1/(1 - K).

    Raises :class:`TotalConflictError` when K = 1 (within ``EPS_CONFLICT``); the
    consensus protocol treats that case as a skipped interaction.
    """
    if m1.frame is not m2.frame:
        _check_same_frame(m1, m2)
    raw, k = _conjunctive(m1.focal, m2.focal)
    if k >= 1.0 - EPS_CONFLICT:
        raise TotalConflictError(f"total conflict between operands (K={k!r})")
    return _from_products(m1.frame, raw)


def combine_dubois_prade(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dubois & Prade's rule: disjoint products go to the union instead of being rescaled."""
    if m1.frame is not m2.frame:
        _check_same_frame(m1, m2)
    return _from_products(m1.frame, _dubois_prade_products(m1.focal, m2.focal))


def combine_yager(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Yager's rule: all conflicting mass is reallocated to the universal set."""
    if m1.frame is not m2.frame:
        _check_same_frame(m1, m2)
    raw, k = _conjunctive(m1.focal, m2.focal)
    if k > 0.0:
        full = m1.frame.full_set
        raw[full] = raw.get(full, 0.0) + k
    return _from_products(m1.frame, raw)


def combine_average(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Pointwise arithmetic mean of the two mass functions."""
    if m1.frame is not m2.frame:
        _check_same_frame(m1, m2)
    raw: dict[int, float] = {}
    for source in (m1.focal, m2.focal):
        for a, v in source.items():
            raw[a] = raw.get(a, 0.0) + 0.5 * v
    return _from_products(m1.frame, raw)


COMBINERS = {
    "dempster": combine_dempster,
    "dubois_prade": combine_dubois_prade,
    "yager": combine_yager,
    "average": combine_average,
}

# The rules under which evidence for s_i leaves an agent holding {s_i}: 1.0
# exactly as it was.  Both evidence focal sets ({s_i} and the frame) contain
# s_i, so every product lands on {s_i} and K = 0; _from_products then divides
# that one entry x by fsum([x]) == x, or keeps it when x is 1.0, which leaves
# exactly 1.0 for any clamped, zero, full or subnormal evidence mass.
# Averaging moves such an agent towards the evidence, so it is not one of them.
CERTAINTY_PRESERVING = frozenset({"dempster", "dubois_prade", "yager"})


def get_combiner(name: str):
    """Look up a combination operator by name; raises on unknown names."""
    try:
        return COMBINERS[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown operator {name!r}; expected one of {sorted(COMBINERS)}"
        ) from None


def renormalize(m: MassFunction) -> MassFunction:
    """Drop masses below ``EPS_PRUNE`` and rescale the rest to total 1.

    ``m`` itself is returned when nothing is dropped: the combiners already
    normalise their result.
    """
    if min(m.focal.values()) >= EPS_PRUNE:
        return m
    kept = {a: v for a, v in m.focal.items() if v >= EPS_PRUNE}
    total = fsum(kept.values())
    return MassFunction._trusted(m.frame, {a: v / total for a, v in kept.items()})


def _normalize_floats(raw: list[float]) -> list[float]:
    """``renormalize(_from_products(...))`` on masses held as a list, 0.0 for absent.

    The same divisions by the same ``fsum`` totals, so every entry has the
    bits the dict path gives it; a total of exactly 1.0 returns ``raw`` itself,
    which the caller must not mutate.  An exact 0.0 stays 0.0 (the dict path
    drops it); when a positive entry is below ``EPS_PRUNE``, every such entry
    becomes 0.0 and the rest are rescaled once more.
    """
    total = fsum(raw)
    # v / 1.0 == v for every float, so a total of exactly 1.0 keeps the list.
    out = raw if total == 1.0 else [v / total for v in raw]
    if min(filter(None, out)) >= EPS_PRUNE:
        return out
    kept = [v if v >= EPS_PRUNE else 0.0 for v in out]
    total = fsum(kept)
    return [v / total for v in kept]


def approx_eq(m1: MassFunction, m2: MassFunction, eps: float) -> bool:
    """Componentwise comparison; subsets absent from one side read as 0."""
    if m1.frame is not m2.frame:
        _check_same_frame(m1, m2)
    for subset in m1.focal.keys() | m2.focal.keys():
        if abs(m1.focal.get(subset, 0.0) - m2.focal.get(subset, 0.0)) > eps:
            return False
    return True


def _check_same_frame(m1: MassFunction, m2: MassFunction) -> None:
    # A run's agents share one frame object, so the combiners and approx_eq
    # call this only for two frame objects.
    if m1.frame != m2.frame:
        raise ValueError(f"frame mismatch: n={m1.frame.n} vs n={m2.frame.n}")


# The operators' pairwise product loops, on plain {subset: mass} mappings of
# any sign: the fixed-point analysis evaluates them off the simplex too.
def _conjunctive(f1: Mapping, f2: Mapping) -> tuple[dict[int, float], float]:
    """Intersection products by subset, and the conflict K of disjoint pairs."""
    raw: dict[int, float] = {}
    k = 0.0
    if len(f2) == 2:
        # An evidence operand: the inner loop unrolled, same sums in the same order.
        (b1, w1), (b2, w2) = f2.items()
        for a, va in f1.items():
            c = a & b1
            if c:
                raw[c] = raw.get(c, 0.0) + va * w1
            else:
                k += va * w1
            c = a & b2
            if c:
                raw[c] = raw.get(c, 0.0) + va * w2
            else:
                k += va * w2
        return raw, k
    for a, va in f1.items():
        for b, vb in f2.items():
            c = a & b
            if c:
                raw[c] = raw.get(c, 0.0) + va * vb
            else:
                k += va * vb
    return raw, k


# The measured crossover: below about 400 pairs the dict loop is faster.
_DP_ARRAY_MIN_PAIRS = 400
# Pairs per row block of the array kernel, which bounds its working memory.
_DP_ARRAY_BLOCK_PAIRS = 4096
# The kernel indexes sums by subset in a table of 2^bits entries.
_DP_ARRAY_MAX_BITS = 16


def _dubois_prade_products(f1: Mapping, f2: Mapping) -> dict[int, float]:
    """Products by intersection, or by union for disjoint pairs (no conflict left).

    Operands with ``_DP_ARRAY_MIN_PAIRS`` pairs or more, on subsets of at most
    ``_DP_ARRAY_MAX_BITS`` states, go to the array kernel, which returns the
    dict loop's result bit for bit.
    """
    if (len(f1) * len(f2) >= _DP_ARRAY_MIN_PAIRS
            and (max(f1) | max(f2)).bit_length() <= _DP_ARRAY_MAX_BITS):
        return _dubois_prade_arrays(f1, f2)
    return _dubois_prade_loop(f1, f2)


def _dubois_prade_loop(f1: Mapping, f2: Mapping) -> dict[int, float]:
    """The products summed pair by pair into a dict, f1 outer and f2 inner."""
    raw: dict[int, float] = {}
    if len(f2) == 2:
        # As in _conjunctive: the inner loop unrolled for an evidence operand.
        (b1, w1), (b2, w2) = f2.items()
        for a, va in f1.items():
            c = a & b1 or a | b1
            raw[c] = raw.get(c, 0.0) + va * w1
            c = a & b2 or a | b2
            raw[c] = raw.get(c, 0.0) + va * w2
        return raw
    for a, va in f1.items():
        for b, vb in f2.items():
            c = a & b
            if not c:
                c = a | b
            raw[c] = raw.get(c, 0.0) + va * vb
    return raw


def _dubois_prade_arrays(f1: Mapping, f2: Mapping) -> dict[int, float]:
    """``_dubois_prade_loop`` on arrays, with the same sums in the same order.

    The pair matrix is taken in row blocks (f1 outer, f2 inner, as the loop
    goes). ``np.add.at`` adds each product to its subset's sum in that order,
    starting from 0.0, so every sum rounds as the loop's does; summing a block
    first (``np.bincount``) would re-associate. Subsets come out in order of
    first occurrence, the loop's insertion order, which fixes the order of
    every later sum over the result.
    """
    a = np.fromiter(f1.keys(), np.int64, len(f1))
    va = np.fromiter(f1.values(), np.float64, len(f1))
    b = np.fromiter(f2.keys(), np.int64, len(f2))
    vb = np.fromiter(f2.values(), np.float64, len(f2))
    size = 1 << (max(f1) | max(f2)).bit_length()
    pairs = len(a) * len(b)
    sums = np.zeros(size)
    first = np.full(size, pairs)
    rows = max(1, _DP_ARRAY_BLOCK_PAIRS // len(b))
    offsets = np.arange(rows * len(b))
    for start in range(0, len(a), rows):
        row_keys = a[start:start + rows, None]
        keys = row_keys & b
        keys = np.where(keys, keys, row_keys | b).ravel()
        np.add.at(sums, keys, (va[start:start + rows, None] * vb).ravel())
        np.minimum.at(first, keys, offsets[:keys.size] + start * len(b))
    subsets = np.flatnonzero(first < pairs)
    subsets = subsets[np.argsort(first[subsets])]
    return dict(zip(subsets.tolist(), sums[subsets].tolist()))


def _from_products(frame: FrameOfDiscernment, raw: dict[int, float]) -> MassFunction:
    # Defensive rescale against rounding drift; exact zeros (underflow) dropped.
    # Products of two checked masses are finite and total 1 (for Dempster,
    # 1 - K > EPS_CONFLICT), so the result needs no further check.  A total of
    # exactly 1.0 with no zero entry keeps ``raw`` as the focal dict, since
    # v / 1.0 == v for every float: each combiner hands over a fresh dict that
    # nothing else holds.  Built as ``_trusted`` builds, without its call: this
    # runs once per combination.
    total = fsum(raw.values())
    m = object.__new__(MassFunction)
    m.frame = frame
    if total == 1.0 and min(raw.values()) > 0.0:
        m.focal = raw
    else:
        m.focal = {a: v / total for a, v in raw.items() if v > 0.0}
    return m
