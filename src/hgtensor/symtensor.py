"""Canonical sparse storage for symmetric tensors.

A symmetric tensor of order m and dimension d is stored as a mapping from
canonical index keys (nondecreasing 1-based m-tuples) to the value held at
every position in that key's orbit.  Explicit zeros are never stored.  A key
with index multiplicities m_1..m_j occupies m!/(m_1! ... m_j!) distinct
positions of the dense tensor; that count is the multiplicity weight used to
convert between per-position values and orbit totals.

Values are exact ``fractions.Fraction`` everywhere except the
eigen-normalized adjacency variant, whose k-th roots force floats.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, groupby, repeat
from operator import add, and_, not_
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .hypergraph import Hypergraph, _integer, _trusted, _uniform_size, degrees

Key = tuple[int, ...]
Value = Fraction | float
_CHUNK = 64  # widest key _unrolled takes: its source grows as width², and ~3000 factors fail to compile
# widest key _exact_unrolled and _coo_rows take: their sources grow linearly, yet compile time does
# not (width 256 compiles in about 10 ms, width 20 000 in 1.7 s)
_LINEAR_CHUNK = 256


def multiplicity_weight(key: Sequence[int]) -> int:
    """Number of distinct dense positions sharing this key: m!/(c_1!...c_j!).

    A key of distinct indices weighs m! at once.  Otherwise one walk over the
    sorted key divides m! by the length of the current run of equal indices at
    each repeat.  Every partial quotient is a multinomial coefficient, so each
    division is exact.
    """
    weight = math.factorial(len(key))
    if len(set(key)) == len(key):
        return weight
    run = 1
    previous = None
    for i in sorted(key):
        if i == previous:
            run += 1
            weight //= run
        else:
            previous = i
            run = 1
    return weight


def _targets(key: Key) -> Iterable[tuple[int, int]]:
    """(position, arrangements) at the first position of each distinct index i of a sorted key.

    arrangements = w(key)·c_i/m, with c_i the multiplicity of i, is the number of dense
    positions (i, i_2, ..., i_m) whose tail is an ordering of the key with one i removed.
    """
    m = len(key)
    if len(set(key)) == m:  # distinct indices: w(key)/m = (m−1)! at every position
        return zip(range(m), repeat(math.factorial(m - 1)))
    weight = multiplicity_weight(key)
    return [(pos, weight * key.count(i) // m) for pos, i in enumerate(key) if key.index(i) == pos]


def _float_coefficient(value: Value, arrangements: int) -> float:
    """value * arrangements, rounded once to float."""
    if isinstance(value, Fraction):
        # int true division rounds correctly, so this equals float(value * arrangements)
        return value.numerator * arrangements / value.denominator
    return float(value * arrangements)


@functools.cache
def _unrolled(width: int, scaled: bool):
    """fold(entries, xs, out): adds c * xs[j_0] * ... (skipping j_i) ... to out[j_i] for each (key, c).

    One loop per width of keys with distinct indices unpacks the key and loads each xs[j] once;
    each target's factors go left to right in key order, and the targets are taken in key order.
    Unscaled, the entries are bare keys whose c is 1.0 and the loop leaves ``c *`` out: 1.0 * x
    is x for every double, so each product and sum is the one the scaled loop makes.
    xs and out are indexed from 1 (slot 0 is padding).
    """
    x = [f"x{k}" for k in range(width)]
    # the source is made from integers alone, as dataclasses makes __init__: no value enters it
    target = "".join(f"j{k}, " for k in range(width))
    c = ["c"] if scaled else []
    lines = ["def fold(entries, xs, out):", f"    for ({target}){', c' if scaled else ''} in entries:"]
    lines += [f"        x{k} = xs[j{k}]" for k in range(width)]
    lines += [f"        out[j{k}] += {' * '.join(c + x[:k] + x[k + 1 :])}" for k in range(width)]
    exec("\n".join(lines), namespace := {})
    return namespace["fold"]


def _fold_each(entries: list, xs: list[float], out: list[float]) -> None:
    """The fold of the keys ``_unrolled`` does not take, each (key, [(pos, c_i), ...]): one math.prod per target."""
    for key, targets in entries:
        xk = [xs[j] for j in key]
        for pos, c in targets:  # start=c multiplies the doubles left to right, as c * x * ... does
            out[key[pos]] += math.prod(xk[:pos] + xk[pos + 1 :], start=c)


def _float_plan(entries: Mapping[Key, Value], order: int) -> list[tuple[Callable, list]]:
    """The float contraction as runs (fold, entries) of consecutive keys, in canonical key order.

    A key of distinct indices at most _CHUNK wide has c = value·(m−1)! at every target, computed
    once per value object and looked up per key.  Where c is exactly 1.0, as on every key of the
    layered tensor, the run holds bare keys for ``_unrolled(order, False)``; otherwise it holds
    (key, c) pairs for ``_unrolled(order, True)``, and order 1 always does.  Any other key goes to
    ``_fold_each`` with a coefficient per target.  The keys are classified in C-level passes;
    folding the runs in turn adds to each component in key order.
    """
    keys = sorted(entries)
    distinct = math.factorial(order - 1)  # the arrangements of each target of a key of distinct indices
    coefficients = {i: _float_coefficient(v, distinct) for i, v in _value_objects(entries.values()).items()}
    cs = list(map(coefficients.__getitem__, map(id, map(entries.__getitem__, keys))))
    unrolled = list(map(order.__eq__, map(len, map(set, keys)))) if order <= _CHUNK else [False] * len(keys)
    unit = map((1.0).__eq__, cs) if order > 1 else repeat(False)  # order 1 has no factor to leave c off
    kinds = map(add, unrolled, map(and_, unrolled, unit))  # 0: _fold_each, 1: (key, c) pairs, 2: bare keys
    plan: list[tuple[Callable, list]] = []
    start = 0
    for kind, run in groupby(kinds):
        end = start + len(list(run))
        if kind == 2:
            plan.append((_unrolled(order, False), keys[start:end]))
        elif kind:
            plan.append((_unrolled(order, True), list(zip(keys[start:end], cs[start:end]))))
        else:
            targets = ([(pos, _float_coefficient(entries[k], a)) for pos, a in _targets(k)] for k in keys[start:end])
            plan.append((_fold_each, list(zip(keys[start:end], targets))))
        start = end
    return plan


def _float_fold(plan: list[tuple[Callable, list]], xs: list[float]) -> list[float]:
    """The contraction of a ``_float_plan`` against float xs; xs and the result are indexed from 1."""
    out = [0.0] * len(xs)
    for fold, entries in plan:
        fold(entries, xs, out)
    return out


def _value_objects(values: Collection[Value]) -> dict[int, Value]:
    """{id(v): v}: the distinct value objects, so each is tested or scaled once per read."""
    return dict(zip(map(id, values), values))


def _over_common_denominator(objects: dict[int, Value]) -> tuple[dict[int, int], int]:
    """({id(v): numerator}, den): the rational value objects over their common denominator."""
    den = math.lcm(*(v.denominator for v in objects.values()))
    return {i: v.numerator * (den // v.denominator) for i, v in objects.items()}, den


@functools.cache
def _exact_unrolled(width: int):
    """fold(entries, xs, sums) -> zero keys: adds q // xs[j_i] to sums[j_i] for each (key, c).

    One loop per width of keys with distinct indices unpacks the key and loads each xs[j] once;
    q = c·xs[j_0]···xs[j_{m−1}], and xs[j_i] divides q, so each quotient is exact.  A key whose q is
    0 adds nothing and is returned, for a per-target walk.  The source grows linearly with the width.
    """
    x = [f"x{k}" for k in range(width)]
    # the source is made from integers alone, as _unrolled's is: no index or value enters it
    target = "".join(f"j{k}, " for k in range(width))
    lines = ["def fold(entries, xs, sums):", "    zero = []", f"    for ({target}), c in entries:"]
    lines += [f"        x{k} = xs[j{k}]" for k in range(width)]
    lines += [f"        q = c * {' * '.join(x)}", "        if q:"]
    lines += [f"            sums[j{k}] += q // x{k}" for k in range(width)]
    lines += ["        else:", f"            zero.append(({target}))", "    return zero"]
    exec("\n".join(lines), namespace := {})
    return namespace["fold"]


def _exact_sums(entries: Mapping[Key, Value], order: int, x: Sequence) -> tuple[list, list, int, int]:
    """(sums, xs, value_den, scale): the exact contraction in integers, component i = sums[i] / scale.

    A key of distinct indices whose xs are all nonzero makes one product q = (m−1)!·v·P, with P
    the product of its xs, and adds q // xs[j] at each index j: xs[j] divides P, so each quotient
    is exact.  Keys of distinct indices up to _LINEAR_CHUNK wide are picked in C-level passes and
    go to ``_exact_unrolled(order)`` as (key, (m−1)!·v) pairs.  Any other key (one that repeats an
    index, has a zero x or is wider than the cap) adds v·arrangements·(the product of the other
    xs) at each target.  xs holds x over its common denominator, value_den is the values' one;
    slot 0 of sums and xs pads.
    """
    numerators, value_den = _over_common_denominator(_value_objects(entries.values()))
    x_den = math.lcm(*(c.denominator for c in x))
    xs = [0, *(c.numerator * (x_den // c.denominator) for c in x)]
    sums = [0] * len(xs)
    walk: Iterable[Key] = entries
    if order <= _LINEAR_CHUNK:
        unrolled = list(map(order.__eq__, map(len, map(set, entries))))
        distinct = math.factorial(order - 1)
        coefficients = {i: distinct * v for i, v in numerators.items()}
        cs = map(coefficients.__getitem__, map(id, entries.values()))
        zero = _exact_unrolled(order)(compress(zip(entries, cs), unrolled), xs, sums)
        walk = chain(compress(entries, map(not_, unrolled)), zero)
    for key in walk:
        v = numerators[id(entries[key])]
        xk = [xs[j] for j in key]
        product = math.prod(xk)
        for pos, arrangements in _targets(key):  # xs[j] divides the product: one division per nonzero target
            rest = product // xk[pos] if xk[pos] else math.prod(xk[:pos] + xk[pos + 1 :])
            sums[key[pos]] += v * arrangements * rest
    return sums, xs, value_den, value_den * x_den ** (order - 1)


def _rational(values: Iterable) -> bool:
    """Whether every value is exact (int or Fraction), so sums can stay exact."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _slice_numerators(entries: Mapping[Key, Value], order: int) -> tuple[dict[int, Value], int | None]:
    """Slice sums at the indices the keys touch: ({index: numerator}, denominator).

    Slice sum i is the sum of value * w(key)·c_i/m over the canonical keys
    holding i, where c_i counts i in the key.  Rational values are added as
    Python integers, value * w(key) at every occurrence of every index, over
    the common denominator of the values times m.  When every key holds one
    value object v, one C-level count of the index occurrences, times m!·v,
    sums the keys as if each had distinct indices, and only the keys that
    repeat an index are walked, to add v·(w(key) − m!) at each occurrence;
    with more value objects every key is walked.  Indices with equal counts
    share one numerator object.  With any float value the
    map holds the float sums themselves and the denominator is None; they add
    the float coefficient of every target in canonical key order, as the
    contraction does, whatever order the entries were inserted in.
    """
    objects = _value_objects(entries.values())
    sums: dict[int, Value] = {}
    get = sums.get
    if not _rational(objects.values()):
        for key, value in sorted(entries.items()):
            for pos, arrangements in _targets(key):
                sums[key[pos]] = get(key[pos], 0.0) + _float_coefficient(value, arrangements)
        return sums, None
    numerators, den = _over_common_denominator(objects)
    walk, counted = entries.items(), 0  # counted: the part of each w(key) that counting adds
    if len(objects) == 1:  # one value object, as in the layered tensor: count the index occurrences
        [value] = objects.values()
        repeats = compress(entries, map(order.__ne__, map(len, map(set, entries))))
        walk, counted = zip(repeats, repeat(value)), math.factorial(order)  # w(key) of distinct indices
        v = numerators[id(value)] * counted
        counts = Counter(chain.from_iterable(entries))
        # one product per distinct count, shared by its indices: counts repeat, and v can be huge
        products = {c: v * c for c in set(counts.values())}
        sums.update(zip(counts, map(products.__getitem__, counts.values())))
    for key, value in walk:
        v = numerators[id(value)] * (multiplicity_weight(key) - counted)
        for i in key:
            sums[i] = get(i, 0) + v
    return sums, den * order


def _quotient(numerator: Value, den: int | None) -> Value:
    """One slice sum as a value, from the map ``_slice_numerators`` returns."""
    return numerator if den is None else Fraction(numerator, den)


def _total(sums: dict[int, Value], den: int | None) -> Value:
    """The sum of every slice sum, from the map ``_slice_numerators`` returns.

    Integers add exactly in any order, so each distinct numerator object is
    multiplied by the number of indices sharing it: one edge of k vertices gives
    k references to a few numbers of about log2(k!) bits.  Floats add in index
    order, as a list of every slice sum would.
    """
    if den is None:
        return sum(s for _, s in sorted(sums.items()))
    objects = _value_objects(sums.values())
    shares = Counter(map(id, sums.values()))
    return Fraction(sum(objects[i] * c for i, c in shares.items()), den)


def _slice_list(entries: Mapping[Key, Value], order: int, dim: int) -> list:
    """Slice sums 1..dim as a list; untouched indices share one zero."""
    sums, den = _slice_numerators(entries, order)
    out = [Fraction(0) if den is not None else 0.0] * dim
    quotients = {s: _quotient(s, den) for s in set(sums.values())}  # degrees repeat: share them
    for i, s in sums.items():
        if s:
            out[i - 1] = quotients[s]
    return out


def format_value(v: Value) -> str:
    """Rationals as num/den (den 1 elided); floats with 12 significant digits."""
    if isinstance(v, Fraction):
        try:
            return str(v)  # num/den, or num alone when den is 1
        except ValueError:  # a part is past the printing limit: _decimal names it
            _decimal(v.numerator, "a value's numerator")
            _decimal(v.denominator, "a value's denominator")
            raise
    return f"{float(v):.12g}"


def _decimal(n: int, what: str) -> str:
    """str(n), or a ValueError naming ``what`` and its digit count past the printing limit."""
    try:
        return str(n)
    except ValueError:
        digits = int((n.bit_length() - 1) * math.log10(2)) - 1  # below the digit count
        while abs(n) >= 10**digits:
            digits += 1
        too_long = f"above the limit of {sys.get_int_max_str_digits()} digits for printing an integer"
        raise ValueError(f"{what} has {digits} digits, {too_long}") from None


def _canonical(entries: Mapping[Key, Value], order: int, dim: int, noun: str, length: str) -> dict:
    """Entries under sorted keys, zeros dropped: the rule tensors and polynomials share.

    Each key needs ``order`` indices in [1, dim] and a canonical key of its own, a zero
    entry's included, and each value must be an int (not a bool), a Fraction or a float;
    messages call the key ``noun`` and say it must ``length`` ("have 3 indices").
    """
    canonical: dict[Key, Value] = {}
    zeros: set[Key] = set()  # canonical keys claimed by dropped zero entries
    for key, value in entries.items():
        if len(key) != order:
            raise ValueError(f"{noun} {key} does not {length}")
        if any(not isinstance(i, int) or isinstance(i, bool) for i in key):
            raise ValueError(f"{noun} {key} has a non-integer index")
        if any(not 1 <= i <= dim for i in key):
            raise ValueError(f"{noun} {key} has an index outside [1, {dim}]")
        ck = tuple(sorted(key))
        if ck in canonical or ck in zeros:
            raise ValueError(f"conflicting entries for canonical {noun} {ck}")
        if not isinstance(value, (int, Fraction, float)) or isinstance(value, bool):
            raise ValueError(f"{noun} {key} has a non-numeric value {value!r}")
        if value != 0:
            canonical[ck] = value
        else:
            zeros.add(ck)
    return canonical


@dataclass(frozen=True, slots=True)
class SymTensor:
    """Order-m symmetric tensor over indices 1..dim, canonical sparse form."""

    order: int
    dim: int
    entries: dict[Key, Value]

    def __post_init__(self) -> None:
        _integer(self.order, "tensor order", 1)
        _integer(self.dim, "tensor dimension", 0)
        length = f"have {self.order} indices"
        canonical = _canonical(self.entries, self.order, self.dim, "key", length)
        object.__setattr__(self, "entries", canonical)

    def __repr__(self) -> str:
        return f"SymTensor(order={self.order}, dim={self.dim}, nnz_keys={len(self.entries)})"

    def get(self, index: Sequence[int]) -> Value:
        """Value at an arbitrary (not necessarily sorted) index tuple.

        The index is checked as a key is: ``order`` integer components in [1, dim].
        """
        [key] = _canonical({tuple(index): 1}, self.order, self.dim, "index", f"have {self.order} components")
        return self.entries.get(key, Fraction(0))

    def canonical_items(self) -> Iterator[tuple[Key, Value]]:
        """Stored (key, value) pairs in lexicographic key order."""
        for key in sorted(self.entries):
            yield key, self.entries[key]

    def nnz_positions(self) -> int:
        """Count of nonzero dense positions (orbit sizes summed)."""
        return sum(multiplicity_weight(k) for k in self.entries)

    def slice_sums(self) -> list:
        """Every slice sum, indices 1..dim, in one pass over the keys."""
        return _slice_list(self.entries, self.order, self.dim)

    def slice_sum(self, i: int):
        """Sum of all dense entries whose first index is i.

        By symmetry this is also the sum over any fixed mode.  The index is
        checked as a key's component is: an integer in [1, dim].
        """
        _canonical({(i,): 1}, 1, self.dim, "index", "have 1 component")
        touching = {key: value for key, value in self.entries.items() if i in key}
        sums, den = _slice_numerators(touching, self.order)
        return _quotient(sums[i], den) if i in sums else Fraction(0)

    def total_sum(self):
        """Sum of every dense entry.

        It is the total of the slice sums: each key's value·w(key) splits over
        its indices in shares c_i/m that add up to one.
        """
        return _total(*_slice_numerators(self.entries, self.order))

    def apply(self, x: Sequence) -> list:
        """Contract against a vector on the last m-1 modes.

        Component i is the sum over dense positions (i, i_2, ..., i_m) of
        value * x_{i_2} * ... * x_{i_m}.  Exact for rational inputs; with any
        float value or component it is computed in floats.
        """
        if len(x) != self.dim:
            raise ValueError(f"vector length {len(x)} does not match dim {self.dim}")
        if self.order == 1:  # every rest is empty: x takes no part
            x = [1] * self.dim
        if not _rational(_value_objects(self.entries.values()).values()) or not _rational(x):
            plan = _float_plan(self.entries, self.order)  # floats add in key order
            return _float_fold(plan, [0.0, *map(float, x)])[1:]
        sums, _, _, scale = _exact_sums(self.entries, self.order, x)
        zero = Fraction(0)  # one shared zero: most indices of a sparse tensor sum to nothing
        return [Fraction(s, scale) if s else zero for s in sums[1:]]

    def to_coo(self) -> str:
        """COO text: header then one line per canonical key, lexicographic."""
        return "".join(self._coo_lines())

    def _coo_lines(self) -> Iterator[str]:
        """The lines of ``to_coo``, each ending in a newline, made one at a time.

        When the texts of the indices 0..dim, about 64 bytes each, cost no more
        than the sorted keys, 8 bytes each, each index is formatted once and
        ``_coo_rows`` joins every row from those texts, for keys up to
        _LINEAR_CHUNK wide.  Otherwise, as in a sparse tensor of large dimension
        or a key wider than that, keys go through one ``%d`` row format.
        A value is formatted again only when its object differs from the
        previous key's: a run of one shared value is formatted once, and no
        string is kept per key.
        """
        yield f"symtensor v1 order={self.order} dim={self.dim}\n"
        if 8 * (self.dim + 1) <= len(self.entries) and self.order <= _LINEAR_CHUNK:
            keys = sorted(self.entries)
            texts = list(map(str, range(self.dim + 1)))
            yield from _coo_rows(self.order)(zip(keys, map(self.entries.__getitem__, keys)), texts)
            return
        row, last = " ".join(["%d"] * self.order), None
        for key, value in self.canonical_items():
            if value is not last:
                last, text = value, f" {format_value(value)}\n"
            yield row % key + text


@functools.cache
def _coo_rows(width: int):
    """rows(items, texts): the COO line of each (key, value), its indices read from texts.

    One loop per key width unpacks the key in its target and joins the texts of
    its indices in one f-string; a value is formatted again only when its object
    differs from the previous key's.
    """
    # the source is made from integers alone, as _unrolled's is: no index or value enters it
    target = "".join(f"j{k}, " for k in range(width))
    row = " ".join(f"{{texts[j{k}]}}" for k in range(width))
    lines = [
        "def rows(items, texts):",
        "    last = None",
        f"    for ({target}), value in items:",
        "        if value is not last:",
        "            last, tail = value, f' {format_value(value)}\\n'",
        f"        yield f'{row}{{tail}}'",
    ]
    exec("\n".join(lines), namespace := {"format_value": format_value})
    return namespace["rows"]


def _uniform_cardinality(hk: Hypergraph, k: int | None) -> int:
    if k is not None:
        _integer(k, "tensor order")
    inferred = _uniform_size(hk)
    if inferred is None:
        if k is None:
            raise ValueError("edgeless hypergraph: the uniform cardinality must be given")
        _integer(k, "tensor order", 1)
        return k
    if k is not None and k != inferred:
        raise ValueError(f"hypergraph is {inferred}-uniform, not {k}-uniform")
    return inferred


def layer_tensor_raw(hk: Hypergraph, k: int | None = None) -> SymTensor:
    """Order-k tensor with value 1 at each edge's canonical key."""
    k = _uniform_cardinality(hk, k)
    # the edges of a validated uniform hypergraph give distinct canonical keys
    return _trusted(SymTensor, k, hk.n, dict.fromkeys((tuple(sorted(e)) for e in hk.edges), Fraction(1)))


def layer_tensor_degree_normalized(hk: Hypergraph, k: int | None = None) -> SymTensor:
    """Order-k tensor with value 1/(k-1)! at each edge's canonical key.

    Normalized so that each mode-i slice sums to the degree of vertex i.
    """
    k = _uniform_cardinality(hk, k)
    value = Fraction(1, math.factorial(k - 1))
    # the edges of a validated uniform hypergraph give distinct canonical keys
    return _trusted(SymTensor, k, hk.n, {tuple(sorted(e)): value for e in hk.edges})


def layer_tensor_eigen_normalized(hk: Hypergraph, k: int | None = None) -> SymTensor:
    """Degree-normalized variant scaled by the product of d_i^(-1/k).

    Degrees are taken within ``hk`` itself.  The k-th roots make the entries
    floating point; vertices of degree zero never occur in a stored key.
    """
    k = _uniform_cardinality(hk, k)
    deg = degrees(hk)
    base = 1.0 / math.factorial(k - 1)
    entries: dict[Key, float] = {}
    for e in hk.edges:
        key = tuple(sorted(e))
        value = base
        for i in key:
            value *= deg[i - 1] ** (-1.0 / k)
        entries[key] = value
    return SymTensor(k, hk.n, entries)
