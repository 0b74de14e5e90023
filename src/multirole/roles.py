"""Finite role universes, role sets, endo maps and principal ultrafilters.

The universe is the set of roles 0..n-1 (n <= 64).  Role sets are plain
int bitmasks; bit r set means role r is a member.  Endo maps are total
functions on the universe, stored as tuples.  Ultrafilters over a finite
universe are exactly the principal ones, so an ultrafilter is identified
by its defining role.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

MAX_ROLES = 64


class RoleError(ValueError):
    pass


def check_universe(n: int) -> None:
    if not 1 <= n <= MAX_ROLES:
        raise RoleError(f"universe size must be in 1..{MAX_ROLES}, got {n}")


def full_set(n: int) -> int:
    """The universe itself, as a role set."""
    check_universe(n)
    return (1 << n) - 1


def check_roleset(mask: int, n: int) -> None:
    if mask < 0 or mask & ~full_set(n):
        raise RoleError(f"role set {mask:#x} not within universe of {n} roles")


def members(mask: int) -> list[int]:
    out = []
    r = 0
    while mask:
        if mask & 1:
            out.append(r)
        mask >>= 1
        r += 1
    return out


def complement(mask: int, n: int) -> int:
    check_roleset(mask, n)
    return full_set(n) & ~mask


def disjoint_union(a: int, b: int) -> int:
    """Union of two role sets, raising if they overlap."""
    if a & b:
        raise RoleError(f"role sets {fmt_roleset(a)} and {fmt_roleset(b)} overlap")
    return a | b


def partition_check(masks: list[int] | tuple[int, ...], n: int) -> bool:
    """True iff the given role sets are pairwise disjoint and cover 0..n-1."""
    full, seen = full_set(n), 0
    for m in masks:
        if m < 0 or m & ~full:
            check_roleset(m, n)  # raises
        if seen & m:
            return False
        seen |= m
    return seen == full


def fmt_roleset(mask: int) -> str:
    return "{%s}" % ",".join(str(r) for r in members(mask))


_ROLESET_RE = re.compile(r"^\{\s*(\d+\s*(,\s*\d+\s*)*)?\}$")


def parse_roleset(text: str, n: int | None = None) -> int:
    text = text.strip()
    if not _ROLESET_RE.match(text):
        raise RoleError(f"bad role set syntax: {text!r}")
    body = text.strip()[1:-1].strip()
    mask = 0
    if body:
        for part in body.split(","):
            r = int(part)
            if n is not None and not 0 <= r < n:
                raise RoleError(f"role {r} outside universe of {n} roles")
            if mask >> r & 1:
                raise RoleError(f"role {r} listed twice")
            mask |= 1 << r
    if n is not None:
        check_roleset(mask, n)
    return mask


@dataclass(frozen=True)
class Endo:
    """A total map on the role universe, written [f(0),f(1),...]."""

    table: tuple[int, ...]

    def __post_init__(self):
        n = len(self.table)
        check_universe(n)
        for v in self.table:
            if not 0 <= v < n:
                raise RoleError(f"endo value {v} outside universe of {n} roles")

    @property
    def n(self) -> int:
        return len(self.table)

    def __call__(self, r: int) -> int:
        return self.table[r]

    def image(self, mask: int) -> int:
        """Direct image f(R)."""
        check_roleset(mask, self.n)
        out = 0
        for r in members(mask):
            out |= 1 << self.table[r]
        return out

    def preimage(self, mask: int) -> int:
        """Inverse image f^{-1}(R)."""
        check_roleset(mask, self.n)
        out = 0
        for r in range(self.n):
            if mask & (1 << self.table[r]):
                out |= 1 << r
        return out

    def compose(self, other: "Endo") -> "Endo":
        """(self . other)(r) = other(self(r)): apply self first."""
        if other.n != self.n:
            raise RoleError("endo composition over different universes")
        return Endo(tuple(other.table[self.table[r]] for r in range(self.n)))

    def is_permutation(self) -> bool:
        return len(set(self.table)) == self.n

    def inverse(self) -> "Endo":
        if not self.is_permutation():
            raise RoleError(f"endo {fmt_endo(self)} is not a permutation")
        inv = [0] * self.n
        for r, v in enumerate(self.table):
            inv[v] = r
        return Endo(tuple(inv))

    def order(self) -> int:
        """Least k >= 1 with f^k = id; defined for permutations only."""
        if not self.is_permutation():
            raise RoleError(f"endo {fmt_endo(self)} is not a permutation")
        seen = [False] * self.n
        lengths = []
        for r in range(self.n):
            if seen[r]:
                continue
            k, j = 0, r
            while not seen[j]:
                seen[j] = True
                j = self.table[j]
                k += 1
            lengths.append(k)
        return reduce(math.lcm, lengths, 1)

    def conjugate(self, g: "Endo") -> "Endo":
        """f(g) = f . g . f^{-1} (apply f, then g, then f inverse)."""
        return self.compose(g).compose(self.inverse())


def identity_endo(n: int) -> Endo:
    return Endo(tuple(range(n)))


def all_endos(n: int):
    """Every total map on a universe of n roles (n**n of them)."""
    check_universe(n)

    def rec(prefix):
        if len(prefix) == n:
            yield Endo(tuple(prefix))
            return
        for v in range(n):
            yield from rec(prefix + [v])

    yield from rec([])


def fmt_endo(f: Endo) -> str:
    return "[%s]" % ",".join(str(v) for v in f.table)


def parse_endo(text: str, n: int | None = None) -> Endo:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise RoleError(f"bad endo syntax: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise RoleError("empty endo table")
    table = tuple(int(p) for p in body.split(","))
    if n is not None and len(table) != n:
        raise RoleError(f"endo over {len(table)} roles, expected {n}")
    return Endo(table)


@dataclass(frozen=True)
class Ultra:
    """The principal ultrafilter at a role, written @r.

    Over a finite universe every ultrafilter is principal, so this is the
    general case: R is a member iff r is in R.
    """

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise RoleError(f"bad ultrafilter role {self.r}")

    def contains(self, mask: int) -> bool:
        return bool(mask & (1 << self.r))


def push_ultra(f: Endo, u: Ultra) -> Ultra:
    """The pushforward f(U) = { R | f^{-1}(R) in U }.

    For a principal U at r this is the principal ultrafilter at f(r).
    """
    if not 0 <= u.r < f.n:
        raise RoleError(f"ultrafilter @{u.r} outside universe of {f.n} roles")
    return Ultra(f(u.r))


def fmt_ultra(u: Ultra) -> str:
    return f"@{u.r}"


def parse_ultra(text: str, n: int | None = None) -> Ultra:
    text = text.strip()
    if not text.startswith("@"):
        raise RoleError(f"bad ultrafilter syntax: {text!r}")
    r = int(text[1:])
    if n is not None and not 0 <= r < n:
        raise RoleError(f"ultrafilter @{r} outside universe of {n} roles")
    return Ultra(r)
