"""Topological types of real plane curve singularities and their invariants.

A branch is recorded by its Puiseux characteristic exponents, a singularity
by its real branches, conjugate branch pairs, and the symmetric table of
pairwise intersection multiplicities.  Every invariant is an exact integer
derived once, when the type is validated: a branch stores its multiplicity
sequence and delta, a singularity its delta, and its Milnor number and the
node and region counts of a real morsification are properties on it.

Every container a caller hands in is read by one rule, raising the caller's
own exception: integers, reals, complexes and sequence take any iterable but
a mapping, integers and reals of an exact length when one is given, and
mapping takes only a mapping, its keys and its values each read by another.
"""
from __future__ import annotations

from cmath import isfinite
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import gcd
from numbers import Complex, Real
from operator import index


class InvalidSingularity(ValueError):
    """Raised when branch or intersection data violates a domain invariant."""


def _read(values, error, read, kind: str, number=None, length=None) -> tuple:
    """values, a sequence and no mapping, as a tuple of read(v) each, no v a bool,
    if number is given each a finite number, and if length is given that many;
    else error(message), the caller's own exception."""
    try:
        if isinstance(values, Mapping):
            raise TypeError("a mapping is not read as a sequence")
        values = tuple(values)
        if length not in (None, len(values)) or bool in map(type, values):
            raise TypeError("another length, or a bool")
        if number and not all(isinstance(v, number) and isfinite(v) for v in values):
            raise TypeError(f"not a finite {number.__name__} number")
        return tuple(map(read, values))
    except (TypeError, OverflowError) as exc:
        of = "" if length is None else f" of length {length}"
        raise error(f"expected {kind} sequence{of}, got {values!r}") from exc


def sequence(values, error) -> tuple:
    """values as a tuple, by the rule of integers() but with any item but a bool passing."""
    return _read(values, error, lambda v: v, "a")


def integers(values, error, length=None) -> tuple[int, ...]:
    """values as ints, read by operator.index: numpy integers pass, and a float,
    a numeric string, a bool, a mapping, values that are not iterable or, when
    length is given, not that many raise error(message)."""
    return _read(values, error, index, "an integer", length=length)


def reals(values, error, length=None) -> tuple[float, ...]:
    """values as finite floats, by the rule of integers(): numpy reals and Fractions
    pass, and a numeric string, NaN, +-inf or an int beyond the float range raise."""
    return _read(values, error, float, "a finite real", Real, length)


def complexes(values, error) -> tuple[complex, ...]:
    """values as finite complex numbers, by the rule of reals()."""
    return _read(values, error, complex, "a finite complex", Complex)


def mapping(values, error, keys, items) -> dict:
    """values, a mapping and no other container, as a dict of its keys read by keys(keys,
    error) to its values read by items(values, error), readers as above; else error(message)."""
    if not isinstance(values, Mapping):
        raise error(f"expected a mapping, got {values!r}")
    return dict(zip(keys(values.keys(), error), items(values.values(), error)))


def _multiplicity_sequence(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Multiplicities of the strict transforms of the branch with
    characteristic exponents ``exps`` under blow-ups.

    Runs the subtractive Euclidean expansion of the characteristic
    exponents: stage k processes the pair (current gcd, next exponent
    excess), appending min of the pair at each step.  The first entry is
    b0, the sequence is non-increasing, and it terminates with 1s once the
    transform is smooth and transversal to the exceptional locus.
    """
    if exps == (1,):
        return (1,)
    seq, x, prev = [], exps[0], 0
    for b in exps[1:]:
        y, prev = b - prev, b
        while y:
            if x <= y:
                seq.append(x)
                y -= x
            else:
                seq.append(y)
                x, y = y, x - y
    return tuple(seq)


@dataclass(frozen=True)
class BranchType:
    """A branch germ given by its characteristic exponents (b0; b1, ..., bg).

    b0 is the multiplicity of the branch.  A smooth branch is encoded as
    ``(1,)``.  The gcd chain e_k = gcd(b0, ..., bk) must strictly decrease
    down to 1, which is exactly the condition for the listed exponents to be
    characteristic.  The validation stores the multiplicity sequence and
    delta, the sum of m(m-1)/2 over it.
    """

    char_exponents: tuple[int, ...]
    multiplicity_sequence: tuple[int, ...] = field(init=False, repr=False, compare=False)
    delta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exps = integers(self.char_exponents, InvalidSingularity)
        object.__setattr__(self, "char_exponents", exps)
        if not exps:
            raise InvalidSingularity("a branch needs at least the multiplicity exponent")
        if min(exps) < 1:
            raise InvalidSingularity(f"exponents must be positive: {exps}")
        if exps[0] == 1 and len(exps) > 1:
            raise InvalidSingularity("a smooth branch has no characteristic exponents beyond (1,)")
        # one pass; a divisible exponent is raised only once no fall is left
        e, divisible = exps[0], None
        for a, b in zip(exps, exps[1:]):
            if a >= b:
                raise InvalidSingularity(f"exponents must be strictly increasing: {exps}")
            if divisible is None and b % e == 0:
                divisible = f"{b} is divisible by the current gcd {e}; not a characteristic exponent"
            e = gcd(e, b)
        if divisible:
            raise InvalidSingularity(divisible)
        if e != 1:
            raise InvalidSingularity(f"gcd chain of {exps} ends at {e}, expected 1")
        seq = _multiplicity_sequence(exps)
        object.__setattr__(self, "multiplicity_sequence", seq)
        object.__setattr__(self, "delta", sum(m * (m - 1) // 2 for m in seq))

    @property
    def multiplicity(self) -> int:
        return self.char_exponents[0]


def _mirror_slots(re_br: int, n: int) -> list[int]:
    """The slot of the conjugate branch, for each of n slots: a real branch
    is its own conjugate, and each pair slot swaps with its partner."""
    return [*range(re_br), *(re_br + (off ^ 1) for off in range(n - re_br))]


@dataclass(frozen=True)
class SingularityType:
    """A real singularity: real branches, conjugate pairs, intersections.

    Branch slots are ordered: real branches first, then each conjugate pair
    contributes two slots (Q then its mirror).  ``intersections`` is the
    full symmetric matrix of pairwise intersection multiplicities over
    slots; the diagonal is unused and kept 0.  The validation stores delta:
    the slots' branch deltas plus the table's entries above the diagonal.
    """

    real_branches: tuple[BranchType, ...]
    conj_pairs: tuple[BranchType, ...]
    intersections: tuple[tuple[int, ...], ...] = field(default=())
    delta: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = self.real_branches, self.conj_pairs, self.intersections
        reals, pairs, rows = (sequence(v, InvalidSingularity) for v in fields)
        n = len(reals) + 2 * len(pairs)
        if n == 0:
            raise InvalidSingularity("singularity needs at least one branch")
        if not all(isinstance(b, BranchType) for b in reals + pairs):
            raise InvalidSingularity(f"every branch must be a BranchType: {reals + pairs!r}")
        table = tuple(integers(row, InvalidSingularity) for row in rows)
        if n == 1:
            table = table if table else ((0,),)
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidSingularity(f"intersection table must be {n}x{n}")
        mult = [b.multiplicity for b in reals] + [b.multiplicity for b in pairs for _ in (0, 1)]  # per slot
        # conjugation symmetry (invariance under swapping each pair slot with
        # its mirror, the conjugate branch's slot) is checked in the same pass
        # and raised after it: in a symmetric table the first failure in row
        # order lies above the diagonal, as (i, j) and (j, i) fail together
        mirror = _mirror_slots(len(reals), n)
        unmirrored = None
        delta = sum(b.delta for b in reals) + 2 * sum(b.delta for b in pairs)
        for i, row in enumerate(table):
            if row[i] != 0:
                raise InvalidSingularity("diagonal of the intersection table is unused, keep 0")
            for j in range(i + 1, n):
                q, bound = row[j], mult[i] * mult[j]
                if q != table[j][i]:
                    raise InvalidSingularity(f"intersection table not symmetric at ({i},{j})")
                if q < 1:
                    raise InvalidSingularity(f"intersection ({i},{j}) must be >= 1")
                if q < bound:
                    raise InvalidSingularity(f"intersection ({i},{j})={q} below multiplicity bound {bound}")
                mi, mj = mirror[i], mirror[j]
                if unmirrored is None and q != table[mi][mj]:
                    unmirrored = f"conjugation symmetry violated: ({i},{j})={q} vs ({mi},{mj})={table[mi][mj]}"
                delta += q
        if unmirrored:
            raise InvalidSingularity(unmirrored)
        self._store(reals, pairs, table, delta)

    def _store(self, reals, pairs, table, delta: int) -> SingularityType:
        """Store fields that pass the checks above, unchecked, with their delta."""
        object.__setattr__(self, "real_branches", reals)
        object.__setattr__(self, "conj_pairs", pairs)
        object.__setattr__(self, "intersections", table)
        object.__setattr__(self, "delta", delta)
        return self

    @property
    def re_br(self) -> int:
        return len(self.real_branches)

    @property
    def im_br(self) -> int:
        return len(self.conj_pairs)

    @property
    def slot_count(self) -> int:
        return self.re_br + 2 * self.im_br

    def slot_branch(self, k: int) -> BranchType:
        if k < self.re_br:
            return self.real_branches[k]
        return self.conj_pairs[(k - self.re_br) // 2]

    def pair_slots(self, p: int) -> tuple[int, int]:
        base = self.re_br + 2 * p
        return base, base + 1

    @property
    def multiplicity(self) -> int:
        return sum(b.multiplicity for b in self.real_branches + 2 * self.conj_pairs)

    @property
    def milnor(self) -> int:
        """Milnor number, 2 delta - ReBr - 2 ImBr + 1."""
        return 2 * self.delta - self.re_br - 2 * self.im_br + 1

    @property
    def expected_nodes(self) -> int:
        """Number of hyperbolic nodes of any real morsification: delta - ImBr."""
        return self.delta - self.im_br

    @property
    def expected_inner_regions(self) -> int:
        """Inner regions of its divide: mu - nodes = delta - ReBr - ImBr + 1."""
        return self.delta - self.re_br - self.im_br + 1


# --- JSON wire format -------------------------------------------------------
#
# {"real_branches": [{"char_exponents": [...]}, ...],
#  "conj_pairs":    [{"char_exponents": [...]}, ...],
#  "intersections": {"i,j": k, ...}}
#
# Slot indexing: real branches first, then for each pair the Q slot followed
# by the conjugate slot.  Entries derivable by conjugation symmetry may be
# omitted; giving both with different values is an error.  Every exponent
# and value must be a JSON integer: the types read them by integers().


def singularity_from_json(obj: dict) -> SingularityType:
    """The type that ``obj``, in the wire format above, describes."""
    if not isinstance(obj, dict):
        raise InvalidSingularity(f"a singularity type is a JSON object, got {obj!r}")
    try:
        reals, pairs = ([BranchType(b["char_exponents"]) for b in obj.get(key, [])]
                        for key in ("real_branches", "conj_pairs"))
    except (KeyError, TypeError) as exc:
        raise InvalidSingularity(f"malformed branch entry: {exc}") from exc
    n = len(reals) + 2 * len(pairs)
    mirror = _mirror_slots(len(reals), n)
    unset = object()  # a cell no entry has filled: a JSON null is a value like any other
    table = [[0 if i == j else unset for j in range(n)] for i in range(n)]
    intersections = obj.get("intersections", {})
    if not isinstance(intersections, dict):
        raise InvalidSingularity(f"intersections must be an object, got {intersections!r}")
    for key, val in intersections.items():
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s), int(j_s)
        except (AttributeError, ValueError) as exc:
            raise InvalidSingularity(f"bad intersection key {key!r}, expected 'i,j'") from exc
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise InvalidSingularity(f"intersection key {key!r} out of range for {n} slots")
        for a, b in ((i, j), (mirror[i], mirror[j])):
            if table[a][b] not in (unset, val):
                raise InvalidSingularity(f"intersection {key!r}={val} conflicts with ({a},{b})={table[a][b]}")
            table[a][b] = table[b][a] = val
    for i, row in enumerate(table):
        if unset in row:
            raise InvalidSingularity(f"missing intersection entry for slots ({i},{row.index(unset)})")
    return SingularityType(reals, pairs, table)


def singularity_to_json(s: SingularityType) -> dict:
    inter = {}
    for i in range(s.slot_count):
        for j in range(i + 1, s.slot_count):
            inter[f"{i},{j}"] = s.intersections[i][j]
    return {
        "real_branches": [{"char_exponents": list(b.char_exponents)} for b in s.real_branches],
        "conj_pairs": [{"char_exponents": list(b.char_exponents)} for b in s.conj_pairs],
        "intersections": inter,
    }


def invariants_report(s: SingularityType) -> dict:
    """All classical invariants in one dict (the CLI/service payload), read
    off the type; a pair's two slots share one branch entry's values."""
    branches = []
    for b in s.real_branches + s.conj_pairs:
        for kind in ("real",) if len(branches) < s.re_br else ("conj", "conj_mirror"):
            branches.append({"slot": len(branches), "kind": kind, "char_exponents": list(b.char_exponents),
                             "multiplicity_sequence": list(b.multiplicity_sequence), "delta": b.delta})
    return {
        "multiplicity": s.multiplicity,
        "delta": s.delta,
        "milnor": s.milnor,
        "re_br": s.re_br,
        "im_br": s.im_br,
        "expected_nodes": s.expected_nodes,
        "expected_inner_regions": s.expected_inner_regions,
        "branches": branches,
    }
