"""Mixed-radix (Cantor) numeration: base/probability sequences and digit arithmetic.

A base sequence d_1, d_2, ... with every d_r >= 2 assigns digit position r the
range {0, ..., d_r - 1} and the place value q_{r-1}, where the levels
q_s = prod_{i<=s} d_i are computed in one place, ``levels``.  Non-negative
integers are represented canonically (no trailing zeros), so equal integers
have structurally equal digit vectors.

This module is pure integer arithmetic on Python ints: every sequence object
is a frozen dataclass and every operation is pure.  States and place values
are unbounded Python integers, as the machine runs on all of Z_+; arrays are
built downstream only from levels at most a truncation size.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

_BASE_KINDS = ("const", "periodic", "list", "even", "fib")
_PROB_KINDS = ("const", "list", "geo")

# Fibonacci-style base values 2, 3, 5, 8, ...; extended on demand.
_FIB_CACHE = [2, 3]


class SpecError(ValueError):
    """Raised for malformed base/probability spec strings."""


def _fib_value(j: int) -> int:
    while len(_FIB_CACHE) < j:
        _FIB_CACHE.append(_FIB_CACHE[-1] + _FIB_CACHE[-2])
    return _FIB_CACHE[j - 1]


@dataclass(frozen=True)
class BaseSeq:
    """Integer base sequence, one of a closed set of kinds.

    kind:
      const     -- d_r = values[0]
      periodic  -- values repeated cyclically
      list      -- explicit prefix, then constant ``tail``
      even      -- d_r = 2r
      fib       -- d_1 = 2, d_2 = 3, d_r = d_{r-1} + d_{r-2}

    ``start`` shifts the sequence: position r reads the underlying position
    start + r - 1.  Shifted sequences are internal (no spec-string form).
    """

    kind: str
    values: tuple[int, ...] = ()
    tail: int = 0
    start: int = 1

    def __post_init__(self):
        if self.kind not in _BASE_KINDS:
            raise SpecError(f"unknown base kind {self.kind!r}")
        if self.start < 1:
            raise ValueError("start must be >= 1")
        if self.kind == "const":
            if len(self.values) != 1 or self.values[0] < 2:
                raise SpecError("const base needs a single value >= 2")
        elif self.kind == "periodic":
            if not self.values or any(d < 2 for d in self.values):
                raise SpecError("periodic base needs values >= 2")
        elif self.kind == "list":
            if not self.values or any(d < 2 for d in self.values) or self.tail < 2:
                raise SpecError("list base needs prefix values >= 2 and tail >= 2")

    def at(self, r: int) -> int:
        """Base entry d_r for any r >= 1."""
        if r < 1:
            raise ValueError("positions are 1-based")
        j = self.start + r - 1
        if self.kind == "const":
            return self.values[0]
        if self.kind == "periodic":
            return self.values[(j - 1) % len(self.values)]
        if self.kind == "list":
            return self.values[j - 1] if j <= len(self.values) else self.tail
        if self.kind == "even":
            return 2 * j
        return _fib_value(j)

    def shift(self, k: int) -> "BaseSeq":
        """Sequence starting k positions later: entry r becomes d_{r+k}."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return dataclasses.replace(self, start=self.start + k)


@dataclass(frozen=True)
class ProbSeq:
    """Probability sequence with every entry in (0, 1].

    kind:
      const -- p_r = values[0]
      list  -- explicit prefix, then constant ``tail``
      geo   -- p_r = 1 - c * gamma**r (approaches 1 geometrically)
    """

    kind: str
    values: tuple[float, ...] = ()
    tail: float = 1.0
    c: float = 0.0
    gamma: float = 0.5
    start: int = 1

    def __post_init__(self):
        if self.kind not in _PROB_KINDS:
            raise SpecError(f"unknown probability kind {self.kind!r}")
        if self.start < 1:
            raise ValueError("start must be >= 1")
        if self.kind == "const":
            if len(self.values) != 1 or not 0.0 < self.values[0] <= 1.0:
                raise SpecError("const probability needs a single value in (0,1]")
        elif self.kind == "list":
            if not self.values or any(not 0.0 < p <= 1.0 for p in self.values):
                raise SpecError("list probability prefix values must be in (0,1]")
            if not 0.0 < self.tail <= 1.0:
                raise SpecError("list probability tail must be in (0,1]")
        else:
            if self.c < 0.0:
                raise SpecError("geo probability needs c >= 0")
            if self.c > 0.0:
                if not 0.0 < self.gamma < 1.0:
                    raise SpecError("geo probability needs gamma in (0,1)")
                if self.c * self.gamma >= 1.0:
                    raise SpecError("geo probability needs c*gamma < 1 so p_1 > 0")

    def at(self, r: int) -> float:
        """Probability p_r for any r >= 1."""
        if r < 1:
            raise ValueError("positions are 1-based")
        j = self.start + r - 1
        if self.kind == "const":
            return self.values[0]
        if self.kind == "list":
            return self.values[j - 1] if j <= len(self.values) else self.tail
        return 1.0 - self.c * self.gamma**j

    def shift(self, k: int) -> "ProbSeq":
        if k < 0:
            raise ValueError("shift must be >= 0")
        return dataclasses.replace(self, start=self.start + k)

    def prefix_product(self, t: int) -> float:
        """prod_{r<=t} p_r."""
        acc = 1.0
        for r in range(1, t + 1):
            acc *= self.at(r)
        return acc

    def infinite_product(self) -> float:
        """prod_{r>=1} p_r, evaluated analytically per kind.

        Exactly 0.0 whenever some probability < 1 repeats forever; for the
        geometric kind the product converges and is accumulated to machine
        precision.
        """
        if self.kind == "const":
            return 1.0 if self.values[0] == 1.0 else 0.0
        if self.kind == "list":
            if self.tail < 1.0:
                return 0.0
            acc = 1.0
            for j in range(self.start, len(self.values) + 1):
                acc *= self.values[j - 1]
            return acc
        if self.c == 0.0:
            return 1.0
        acc = 1.0
        j = self.start
        while True:
            term = self.c * self.gamma**j
            if term < 1e-18 or j > self.start + 100_000:
                break
            acc *= 1.0 - term
            j += 1
        return acc


@dataclass(frozen=True)
class DigitVec:
    """Canonical finite digit expansion (a_1, ..., a_u), no trailing zeros."""

    digits: tuple[int, ...]
    base: BaseSeq

    def __post_init__(self):
        for r, a in enumerate(self.digits, start=1):
            d = self.base.at(r)
            if not 0 <= a <= d - 1:
                raise ValueError(f"digit {a} out of range at position {r} (base {d})")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("digit vector not canonical: trailing zero")


def base_product(base: BaseSeq, r: int) -> int:
    """Cumulative base product prod_{i<=r} d_i; the empty product (r=0) is 1.

    This is the place value of digit position r+1.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    return math.prod(base.at(i) for i in range(1, r + 1))


def levels(base: BaseSeq, n: int) -> list[int]:
    """The levels q_s = prod_{i<=s} d_i, s >= 1, that are <= n, ascending.

    The first s digits of m are all zero exactly when q_s divides m, and all
    maximal exactly when q_s divides m + 1."""
    out, r, q = [], 1, base.at(1)
    while q <= n:
        out.append(q)
        r += 1
        q *= base.at(r)
    return out


def largest_level(base: BaseSeq, cap: int) -> int:
    """Largest level q_s (s >= 1) that is <= cap; 2 when even d_1 exceeds cap.
    Truncating at such a level keeps whole blocks of the first s digit
    positions."""
    return max(levels(base, cap), default=2)


def to_digits(n: int, base: BaseSeq) -> DigitVec:
    """Canonical digit expansion of n >= 0 (greedy mixed-radix divmod)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    digits = []
    r = 1
    while n:
        n, a = divmod(n, base.at(r))
        digits.append(a)
        r += 1
    return DigitVec(tuple(digits), base)


def from_digits(dv: DigitVec) -> int:
    """Integer value sum_r a_r * prod_{i<r} d_i; inverse of to_digits."""
    acc = 0
    place = 1
    for r, a in enumerate(dv.digits, start=1):
        acc += a * place
        place *= dv.base.at(r)
    return acc


def counter(dv: DigitVec) -> int:
    """First position whose digit is not maximal (always finite here)."""
    for r, a in enumerate(dv.digits, start=1):
        if a != dv.base.at(r) - 1:
            return r
    return len(dv.digits) + 1


def successor(dv: DigitVec) -> DigitVec:
    """Digits of n+1: zero below the counter, bump at it, keep the rest."""
    s = counter(dv)
    if s <= len(dv.digits):
        bumped = dv.digits[s - 1] + 1
        digits = (0,) * (s - 1) + (bumped,) + dv.digits[s:]
    else:
        digits = (0,) * (s - 1) + (1,)
    return DigitVec(digits, dv.base)


def truncate_digits(dv: DigitVec, s: int) -> DigitVec:
    """Zero the first s digit positions; valid only while they are all maximal.

    Requires 1 <= s <= counter(dv) - 1, so the value drops by exactly
    prod_{i<=s} d_i - 1.
    """
    if not 1 <= s <= counter(dv) - 1:
        raise ValueError(f"truncation stage {s} outside [1, {counter(dv) - 1}]")
    return DigitVec(_strip((0,) * s + dv.digits[s:]), dv.base)


def _strip(digits: tuple[int, ...]) -> tuple[int, ...]:
    while digits and digits[-1] == 0:
        digits = digits[:-1]
    return digits


# ---------------------------------------------------------------------------
# Spec-string grammar
#
#   base:  const:3 | periodic:3,5 | list:2,3,4;tail=4 | even | fib
#   probs: pconst:0.7 | plist:0.7,1,0.5;tail=0.55 | pgeo:c=0.25,gamma=0.5
# ---------------------------------------------------------------------------


def _split_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SpecError(f"bad integer in {what}: {text!r}") from exc


def _split_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SpecError(f"bad number in {what}: {text!r}") from exc


def parse_base_spec(text: str) -> BaseSeq:
    """Parse a base spec string like ``const:3`` or ``list:2,3,4;tail=4``."""
    t = text.strip()
    if t == "even":
        return BaseSeq("even")
    if t == "fib":
        return BaseSeq("fib")
    head, sep, rest = t.partition(":")
    if not sep:
        raise SpecError(f"bad base spec {text!r} (missing ':' after kind)")
    if head == "const":
        return BaseSeq("const", _split_ints(rest, "const base"))
    if head == "periodic":
        return BaseSeq("periodic", _split_ints(rest, "periodic base"))
    if head == "list":
        body, sep2, tailpart = rest.partition(";")
        if not sep2 or not tailpart.startswith("tail="):
            raise SpecError(f"list base spec needs ';tail=': {text!r}")
        prefix = _split_ints(body, "list base prefix")
        tail = _split_ints(tailpart[len("tail="):], "list base tail")
        if len(tail) != 1:
            raise SpecError(f"list base tail must be a single value: {text!r}")
        return BaseSeq("list", prefix, tail[0])
    raise SpecError(f"unknown base spec {text!r}")


def parse_probs_spec(text: str) -> ProbSeq:
    """Parse a probability spec string like ``pconst:0.7`` or ``pgeo:c=0.25,gamma=0.5``."""
    t = text.strip()
    head, sep, rest = t.partition(":")
    if not sep:
        raise SpecError(f"bad probability spec {text!r} (missing ':' after kind)")
    if head == "pconst":
        return ProbSeq("const", _split_floats(rest, "pconst"))
    if head == "plist":
        body, sep2, tailpart = rest.partition(";")
        if not sep2 or not tailpart.startswith("tail="):
            raise SpecError(f"plist spec needs ';tail=': {text!r}")
        prefix = _split_floats(body, "plist prefix")
        tail = _split_floats(tailpart[len("tail="):], "plist tail")
        if len(tail) != 1:
            raise SpecError(f"plist tail must be a single value: {text!r}")
        return ProbSeq("list", prefix, tail[0])
    if head == "pgeo":
        params = {}
        for tok in rest.split(","):
            key, sep2, val = tok.partition("=")
            if not sep2 or key not in ("c", "gamma"):
                raise SpecError(f"pgeo spec needs c=...,gamma=...: {text!r}")
            params[key] = val
        if set(params) != {"c", "gamma"}:
            raise SpecError(f"pgeo spec needs both c and gamma: {text!r}")
        c = _split_floats(params["c"], "pgeo c")[0]
        gamma = _split_floats(params["gamma"], "pgeo gamma")[0]
        return ProbSeq("geo", c=c, gamma=gamma)
    raise SpecError(f"unknown probability spec {text!r}")
