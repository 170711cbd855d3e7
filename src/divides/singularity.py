"""Topological types of real plane curve singularities and their invariants.

A branch is recorded by its Puiseux characteristic exponents, a singularity
by its real branches, conjugate branch pairs, and the symmetric table of
pairwise intersection multiplicities.  All invariants (multiplicity
sequence, delta, Milnor number, node and region counts of a real
morsification) are exact integer computations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


class InvalidSingularity(ValueError):
    """Raised when branch or intersection data violates a domain invariant."""


@dataclass(frozen=True)
class BranchType:
    """A branch germ given by its characteristic exponents (b0; b1, ..., bg).

    b0 is the multiplicity of the branch.  A smooth branch is encoded as
    ``(1,)``.  The gcd chain e_k = gcd(b0, ..., bk) must strictly decrease
    down to 1, which is exactly the condition for the listed exponents to be
    characteristic.
    """

    char_exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(map(int, self.char_exponents))
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

    @property
    def multiplicity(self) -> int:
        return self.char_exponents[0]

    @property
    def is_smooth(self) -> bool:
        return self.char_exponents == (1,)


def multiplicity_sequence(b: BranchType) -> list[int]:
    """Multiplicities of the strict transforms of ``b`` under blow-ups.

    Runs the subtractive Euclidean expansion of the characteristic
    exponents: stage k processes the pair (current gcd, next exponent
    excess), appending min of the pair at each step.  The first entry is
    b0, the sequence is non-increasing, and it terminates with 1s once the
    transform is smooth and transversal to the exceptional locus.
    """
    if b.is_smooth:
        return [1]
    exps = b.char_exponents
    seq: list[int] = []
    a = exps[0]
    excesses = [exps[1]] + [exps[k + 1] - exps[k] for k in range(1, len(exps) - 1)]
    for y in excesses:
        x = a
        while y > 0:
            seq.append(min(x, y))
            if x <= y:
                y -= x
            else:
                x, y = y, x - y
        a = x
    return seq


def branch_delta(b: BranchType) -> int:
    """Delta invariant of a single branch: sum of m(m-1)/2 over its
    multiplicity sequence (the closed-form unrolling of the blow-up
    recursion for delta)."""
    return sum(m * (m - 1) // 2 for m in multiplicity_sequence(b))


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
    slots; the diagonal is unused and kept 0.
    """

    real_branches: tuple[BranchType, ...]
    conj_pairs: tuple[BranchType, ...]
    intersections: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        reals, pairs = tuple(self.real_branches), tuple(self.conj_pairs)
        object.__setattr__(self, "real_branches", reals)
        object.__setattr__(self, "conj_pairs", pairs)
        n = len(reals) + 2 * len(pairs)
        if n == 0:
            raise InvalidSingularity("singularity needs at least one branch")
        table = tuple(tuple(map(int, row)) for row in self.intersections)
        if n == 1:
            table = table if table else ((0,),)
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidSingularity(f"intersection table must be {n}x{n}")
        object.__setattr__(self, "intersections", table)
        mult = [b.multiplicity for b in reals] + [b.multiplicity for b in pairs for _ in (0, 1)]  # per slot
        # conjugation symmetry (invariance under swapping each pair slot with
        # its mirror, the conjugate branch's slot) is checked in the same pass
        # and raised after it: in a symmetric table the first failure in row
        # order lies above the diagonal, as (i, j) and (j, i) fail together
        mirror = _mirror_slots(len(reals), n)
        unmirrored = None
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
        if unmirrored:
            raise InvalidSingularity(unmirrored)

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


def total_multiplicity(s: SingularityType) -> int:
    return sum(s.slot_branch(k).multiplicity for k in range(s.slot_count))


def delta_total(s: SingularityType) -> int:
    """Delta of the singularity: branch deltas plus pairwise intersections."""
    n = s.slot_count
    d = sum(branch_delta(s.slot_branch(k)) for k in range(n))
    d += sum(s.intersections[i][j] for i in range(n) for j in range(i + 1, n))
    return d


def milnor_number(s: SingularityType) -> int:
    """Milnor number via 2*delta - ReBr - 2*ImBr + 1."""
    return 2 * delta_total(s) - s.re_br - 2 * s.im_br + 1


def expected_node_count(s: SingularityType) -> int:
    """Number of hyperbolic nodes of any real morsification: delta - ImBr."""
    return delta_total(s) - s.im_br


def expected_inner_regions(s: SingularityType) -> int:
    """Number of inner complementary regions of the divide:
    mu - (delta - ImBr) = delta - ReBr - ImBr + 1."""
    return delta_total(s) - s.re_br - s.im_br + 1


# --- JSON wire format -------------------------------------------------------
#
# {"real_branches": [{"char_exponents": [...]}, ...],
#  "conj_pairs":    [{"char_exponents": [...]}, ...],
#  "intersections": {"i,j": k, ...}}
#
# Slot indexing: real branches first, then for each pair the Q slot followed
# by the conjugate slot.  Entries derivable by conjugation symmetry may be
# omitted; giving both with different values is an error.


def singularity_from_json(obj: dict) -> SingularityType:
    try:
        reals = tuple(BranchType(tuple(b["char_exponents"])) for b in obj.get("real_branches", []))
        pairs = tuple(BranchType(tuple(b["char_exponents"])) for b in obj.get("conj_pairs", []))
    except (KeyError, TypeError) as exc:
        raise InvalidSingularity(f"malformed branch entry: {exc}") from exc
    n = len(reals) + 2 * len(pairs)
    if n == 0:
        raise InvalidSingularity("empty branch list")

    given: dict[tuple[int, int], int] = {}
    for key, val in obj.get("intersections", {}).items():
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s), int(j_s)
        except ValueError as exc:
            raise InvalidSingularity(f"bad intersection key {key!r}, expected 'i,j'") from exc
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise InvalidSingularity(f"intersection key {key!r} out of range for {n} slots")
        pair = (min(i, j), max(i, j))
        if pair in given and given[pair] != int(val):
            raise InvalidSingularity(f"conflicting values for intersection {pair}")
        given[pair] = int(val)

    table = [[0] * n for _ in range(n)]
    # close under conjugation symmetry, rejecting conflicts; conjugation is
    # an involution on slot pairs, so one pass over the given entries
    # reaches the closure
    mirror = _mirror_slots(len(reals), n)
    entries = dict(given)
    for (i, j), v in given.items():
        mi, mj = mirror[i], mirror[j]
        mpair = (min(mi, mj), max(mi, mj))
        if entries.setdefault(mpair, v) != v:
            raise InvalidSingularity(
                f"intersection {(i, j)}={v} conflicts with conjugate entry {mpair}={entries[mpair]}"
            )
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in entries:
                raise InvalidSingularity(f"missing intersection entry for slots ({i},{j})")
            table[i][j] = table[j][i] = entries[(i, j)]
    return SingularityType(reals, pairs, tuple(tuple(row) for row in table))


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
    """All classical invariants in one dict (the CLI/service payload),
    from one multiplicity sequence per branch (a pair's two slots share
    one) and one delta.  The table is symmetric with a zero diagonal, so
    its pairwise sum is half its total."""
    re_br, im_br = len(s.real_branches), len(s.conj_pairs)
    delta = sum(map(sum, s.intersections)) // 2
    multiplicity, branches = 0, []
    for b in s.real_branches + s.conj_pairs:
        seq = multiplicity_sequence(b)
        d = sum(m * (m - 1) // 2 for m in seq)
        for kind in ("real",) if len(branches) < re_br else ("conj", "conj_mirror"):
            branches.append({"slot": len(branches), "kind": kind, "char_exponents": list(b.char_exponents),
                             "multiplicity_sequence": list(seq), "delta": d})
            multiplicity += b.multiplicity
            delta += d
    return {
        "multiplicity": multiplicity,
        "delta": delta,
        "milnor": 2 * delta - re_br - 2 * im_br + 1,
        "re_br": re_br,
        "im_br": im_br,
        "expected_nodes": delta - im_br,
        "expected_inner_regions": delta - re_br - im_br + 1,
        "branches": branches,
    }
