"""Maya diagrams, charged partitions, and residue-colored box combinatorics.

A Maya diagram is an infinite two-coloring of integer slots with fixed
asymptotics.  A *left-black* diagram is black at all sufficiently positive
slots and white at all sufficiently negative slots; *right-black* is the
mirror image.  Slot labels increase toward the black end of a left-black
diagram.

Only the finite deviation from the kind's charge-zero vacuum is stored
(left-black vacuum: black exactly at labels >= 1), so equality and hashing
are O(#deviations).  Charged partitions are the finite picture of
left-black diagrams: a partition plus an integer charge, with each box
carrying the slot label

    label(row, col) = (1 - charge) + col - row

pinned so that the standard 12-box example diagram produces the label
multiset {2,1,0,0,-1,-1,-1,-2,-2,-3,-4,-5}.

``Interval``, ``MayaDiagram``, ``ChargedPartition`` and ``BoxRef`` are
plain ``__slots__`` classes, not dataclasses: importing ``dataclasses``
loads ``inspect`` and ``ast``, and each decorator compiles its methods, a
start-up cost that every command would pay.  One base, ``_Record``,
defines equality, hashing and repr for these and for ``graph``'s records
from the field names each class declares: a record equals only a record
of its own class with equal fields, and shows its fields in its repr as a
dataclass would (``MayaDiagram`` keeps a shorter repr of its own).  Its
subclass ``_Frozen`` makes a record immutable and hashable over its fields.
"""

from __future__ import annotations

BLACK = "black"
WHITE = "white"
LEFT_BLACK = "left-black"
RIGHT_BLACK = "right-black"


class _Record:
    """Base of the plain records.  Each declares its fields once, as
    ``__slots__ = _names = (...)``; a subclass that adds no field inherits
    ``_names``.  Equal only to a record of its own class with equal fields;
    unhashable unless frozen."""

    __slots__ = ()
    _names = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join("%s=%r" % pair for pair in zip(self._names, self._fields()))
        return "%s(%s)" % (type(self).__qualname__, fields)


class _Frozen(_Record):
    """Base of the immutable records, hashable over their fields: each sets
    its fields once, through ``object.__setattr__``, while it is
    constructed."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Interval(_Frozen):
    """Inclusive integer interval of slot labels."""

    __slots__ = _names = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError("empty interval: lo=%d > hi=%d" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, label):
        return self.lo <= label <= self.hi


class MayaDiagram(_Frozen):
    """Canonical Maya diagram: kind plus the labels deviating from the vacuum.

    ``diffs`` is the frozenset of slot labels whose color differs from the
    kind's charge-zero vacuum.  Immutable and hashable.
    """

    __slots__ = _names = ("kind", "diffs")

    def __init__(self, kind, diffs=frozenset()):
        if kind not in (LEFT_BLACK, RIGHT_BLACK):
            raise ValueError("unknown kind: %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "diffs", frozenset(diffs))

    def vacuum_color(self, label):
        if self.kind == LEFT_BLACK:
            return BLACK if label >= 1 else WHITE
        return BLACK if label <= 0 else WHITE

    def color(self, label):
        base = self.vacuum_color(label)
        if label in self.diffs:
            return WHITE if base == BLACK else BLACK
        return base

    @classmethod
    def from_colors(cls, kind, overrides):
        """Build from explicit slot colors; redundant overrides are dropped."""
        probe = cls(kind)
        diffs = {
            label for label, color in dict(overrides).items()
            if color != probe.vacuum_color(label)
        }
        return cls(kind, diffs)

    @property
    def charge(self):
        below = sum(1 for d in self.diffs if d <= 0)
        above = len(self.diffs) - below
        return below - above

    def invert(self):
        """Swap all colors; exchanges left-black and right-black."""
        other = RIGHT_BLACK if self.kind == LEFT_BLACK else LEFT_BLACK
        return MayaDiagram(other, self.diffs)

    def shift(self, k):
        """Translate every slot label by k (the sigma shift for k = n)."""
        if k == 0:
            return self
        window = range(1, k + 1) if k > 0 else range(k + 1, 1)
        diffs = {d + k for d in self.diffs}
        diffs.symmetric_difference_update(window)
        return MayaDiagram(self.kind, diffs)

    def to_json(self):
        return {
            "kind": self.kind,
            "deviations": [[d, self.color(d)] for d in sorted(self.diffs)],
        }

    @classmethod
    def from_json(cls, data):
        """Inverse of :meth:`to_json`.  ValueError unless ``deviations`` is
        a list of ``[label, color]`` lists with an ``int`` (not ``bool``)
        label, and on a bad color, a label listed twice, or a deviation that
        gives the label its vacuum color."""
        vacuum = cls(data["kind"])
        deviations = data.get("deviations")
        if not (
            isinstance(deviations, list)
            and all(isinstance(d, list) and len(d) == 2 and type(d[0]) is int for d in deviations)
        ):
            raise ValueError("deviations must be a list of [label, color] pairs")
        diffs = set()
        for label, color in deviations:
            if color not in (BLACK, WHITE):
                raise ValueError("bad bead color: %r" % (color,))
            if label in diffs:
                raise ValueError("label %d is listed twice" % label)
            if color == vacuum.vacuum_color(label):
                raise ValueError("label %d is listed with its vacuum color" % label)
            diffs.add(label)
        return cls(vacuum.kind, diffs)

    def __repr__(self):
        return "MayaDiagram(%r, %r)" % (self.kind, sorted(self.diffs))


class ChargedPartition(_Frozen):
    """Weakly decreasing positive parts and an integer charge.

    A charged partition always pictures a left-black Maya diagram.  A
    right-black diagram is pictured by the partition of its color inversion.
    """

    __slots__ = _names = ("parts", "charge")

    def __init__(self, parts, charge=0):
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "charge", charge)
        self.__post_init__()

    def __post_init__(self):
        """Reject parts that are not positive or not weakly decreasing.
        Every construction calls it, and ``bench/layertrace.py`` counts
        constructions by wrapping it."""
        parts = self.parts
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))


class BoxRef(_Frozen):
    """A box position inside (or just outside) a partition, with its slot data."""

    __slots__ = _names = ("row", "col", "slot_label", "residue")

    def __init__(self, row, col, slot_label, residue):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "slot_label", slot_label)
        object.__setattr__(self, "residue", residue)


def from_partition(p):
    """Charged partition -> its left-black Maya diagram (inverse of
    to_partition)."""
    s = 1 - p.charge
    k = len(p.parts)
    whites = {p.parts[j] + s - (j + 1) for j in range(k)}
    tail_max = s - k - 1  # every label <= tail_max is white
    lo = min([tail_max, 0] + [w for w in whites])
    hi = max([0, tail_max] + [w for w in whites])
    overrides = {}
    for label in range(lo, hi + 1):
        overrides[label] = WHITE if (label in whites or label <= tail_max) else BLACK
    return MayaDiagram.from_colors(LEFT_BLACK, overrides)


def to_partition(m):
    """Left-black Maya diagram -> its charged partition.  A right-black
    diagram raises ValueError; picture it by the partition of ``m.invert()``.
    Costs time linear in the deviations plus the slots between the lowest
    black and 0, never in the highest white's label."""
    if m.kind != LEFT_BLACK:
        raise ValueError("to_partition expects a left-black diagram")
    diffs = m.diffs
    lo = min([1, *diffs]) - 1  # every label <= lo is white
    # the whites above 0 are deviations; at or below 0, those not flipped
    # to black, walked only down to the lowest black
    whites = sorted((d for d in diffs if d > 0), reverse=True)
    whites += [label for label in range(0, lo, -1) if label not in diffs]
    k = len(whites)
    s = lo + k + 1
    parts = tuple(w - s + j for j, w in enumerate(whites, 1))
    parts = parts[: next((j for j, x in enumerate(parts) if x == 0), len(parts))]
    return ChargedPartition(parts, 1 - s)


def term_key(diagram):
    """The ``(parts, charge)`` key of a Maya diagram: its charged partition,
    or its color inversion's if it is right-black."""
    p = to_partition(diagram if diagram.kind == LEFT_BLACK else diagram.invert())
    return p.parts, p.charge


def removable_boxes(p, i, n):
    """Corner boxes whose slot label is congruent to i mod n.

    Corners of a partition sit on distinct diagonals, so removable boxes of
    a fixed residue carry pairwise distinct labels differing by multiples
    of n, and any subset of them can be deleted simultaneously.
    """
    i = i % n
    boxes = []
    parts = p.parts
    for row in range(1, len(parts) + 1):
        if row == len(parts) or parts[row - 1] > parts[row]:
            col = parts[row - 1]
            label = 1 - p.charge + col - row
            if label % n == i:
                boxes.append(BoxRef(row, col, label, label % n))
    return boxes


def addable_boxes(p, i, n):
    """Corner extensions whose slot label is congruent to i mod n."""
    i = i % n
    boxes = []
    parts = p.parts
    for row in range(1, len(parts) + 2):
        col = (parts[row - 1] if row <= len(parts) else 0) + 1
        prev = parts[row - 2] if row >= 2 else None
        if prev is not None and col > prev:
            continue
        label = 1 - p.charge + col - row
        if label % n == i:
            boxes.append(BoxRef(row, col, label, label % n))
    return boxes


def remove_box(p, box):
    parts = list(p.parts)
    if parts[box.row - 1] != box.col:
        raise ValueError("box %r is not a corner of %r" % (box, p.parts))
    parts[box.row - 1] -= 1
    while parts and parts[-1] == 0:
        parts.pop()
    return ChargedPartition(tuple(parts), p.charge)


def add_box(p, box):
    parts = list(p.parts)
    if box.row == len(parts) + 1:
        parts.append(0)
    if parts[box.row - 1] + 1 != box.col:
        raise ValueError("box %r is not addable to %r" % (box, p.parts))
    parts[box.row - 1] += 1
    return ChargedPartition(tuple(parts), p.charge)


def removable_rows(parts, charge, i, n):
    """The rows, counted from 0 top first, that end in a removable box of
    slot label congruent to i mod n, for the raw parts of a partition with
    the given charge.  A row ends in a corner when it is longer than the row
    below it (the last row always is), and the box at the end of row r has
    label (1 - charge) + parts[r] - (r + 1).  The minus side's one corner
    rule: :func:`removal_options` lists the subsets of these boxes, and
    ``datum``'s removal closure cuts them; :func:`corner_rows` is the same
    rule at every residue at once.  The corner rules are plain loops: the
    removal closure calls this one about 750,000 times for ``eval`` of a
    10-letter affine sl_2 word at the staircase (10, ..., 1), and
    comprehensions over zipped rows took up to twice as long."""
    rows = []
    shift = charge + i
    last = len(parts) - 1
    for r, length in enumerate(parts):
        if (r == last or length != parts[r + 1]) and (length - r - shift) % n == 0:
            rows.append(r)
    return rows


def addable_rows(parts, charge, i, n):
    """The rows, counted from 0 top first, that can take a box of slot label
    congruent to i mod n, for the raw parts of a partition with the given
    charge; row len(parts) is the new row below the last.  A row takes a
    box when it is shorter than the row above it (the first row always
    does), and the new box in row r has label (1 - charge) + parts[r] + 1 -
    (r + 1).  The plus side's one corner rule: :func:`addition_options`
    lists the subsets of these boxes for ``fock``'s plus-side ``x_act``,
    and each cell that :func:`filling_min` fills was such a corner when its
    letter added it."""
    rows = []
    shift = 1 - charge - i
    above = 0  # no row is empty, so the first row takes a box
    for r, length in enumerate(parts):
        if length != above and (length - r + shift) % n == 0:
            rows.append(r)
        above = length
    if (shift - len(parts)) % n == 0:
        rows.append(len(parts))
    return rows


class Labels:
    """The labels 1..l of a word's letters, each with its coefficient, as
    :func:`filling_min` reads them: label p is letter p and costs c_p.

    A cell's label must be below its bound, the least label left of it or
    above it in the filling, and it has one residue, so of the labels below
    the bound with that residue only those cheaper than every larger one
    are worth trying: a larger label fits every cell that a smaller one
    fits, to the right and below.  These are a staircase, largest first.
    ``tops`` holds each residue's staircase below l + 1, which the first
    cell of a row reads when the cell above it is in parts or it is in
    row 0.  A cell bound by the label q on its left has residue j_q + 1,
    and one bound by the label q above it residue j_q - 1, so label q
    keeps the staircases below it of those residues, ``right[q]`` and
    ``down[q]``: the tops of those residues when q was added.

    :meth:`extended` gives the labels of one more letter once its
    coefficient is known, and leaves these as they are, so every datum of
    ``datum`` holds its own word's labels.  The per-label lists hold
    ``size`` = l + 1 entries that never change, and a chain shares them:
    the first extension of a Labels appends to its lists in place, and only
    a later one, a sibling's, copies them.  No theta value is kept."""

    __slots__ = ("n", "size", "coeffs", "right", "down", "tops")

    def __init__(self, n):
        self.n = n
        self.size = 1  # index 0 is no label
        self.coeffs = [0]
        self.right = [()]
        self.down = [()]
        self.tops = ((),) * n

    def extended(self, letter, coeff):
        """These labels and the next, ``letter`` (a residue) at cost
        ``coeff``, as a new Labels; this one is unchanged.  The new label
        heads its residue's staircase, above the old one's labels that
        cost less."""
        n, size, tops = self.n, self.size, self.tops
        lists = self.coeffs, self.right, self.down
        if len(lists[0]) > size:  # a sibling has appended already
            lists = tuple(entries[:size] for entries in lists)
        coeffs, right, down = lists
        stair = tops[letter]
        k = 0
        while k < len(stair) and coeffs[stair[k]] >= coeff:
            k += 1
        coeffs.append(coeff)
        right.append(tops[(letter + 1) % n])
        down.append(tops[(letter - 1) % n])
        labels = object.__new__(Labels)
        labels.n, labels.size = n, size + 1
        labels.coeffs, labels.right, labels.down = lists
        labels.tops = tops[:letter] + ((size,) + stair[k:],) + tops[letter + 1:]
        return labels


def filling_min(parts, charge, labels):
    """theta at (parts, charge) of the datum whose word and coefficients
    ``labels`` holds: the min of the sum of c_F(x) over the fillings F of
    lambda / parts, for every partition lambda that contains parts, whose
    labels strictly decrease along each row and down each column, the cell
    in row r (from 0) and column col (from 1) taking a label p with j_p =
    (col - r - charge) mod n.

    That is the plus-side min-recursion unrolled: the last letter adds its
    cells first, each a corner that :func:`addable_rows` lists, and two
    cells of one letter are never adjacent.  A row-by-row DP: a state is
    the label sequence of one row's new cells, with its least cost.  A
    cell below a new cell needs a smaller label, and one below a cell of
    parts does not, so a state S dominates T when it has no fewer cells,
    labels >= T's pointwise and cost <= T's: every row that can follow T
    can follow S.  Dominated states are dropped.  Empty rows may follow any
    state, so the answer is the least cost of any row; once a row below
    parts is empty, so is every later one.  Rows are listed by a stack,
    not by recursion, so no word is too long for it; it lists no subset,
    builds no partition and keeps nothing between calls.  It is the only
    theta evaluator: ``datum`` reads every coefficient and statistic from
    it."""
    n = labels.n
    coeffs, right, down, tops = labels.coeffs, labels.right, labels.down, labels.tops
    depth = labels.size  # a row holds fewer cells than this
    best = 0
    states = {(): 0}
    above_cut = (parts[0] if parts else 0) + depth  # row 0 has no row above
    rows = len(parts)
    for r in range(rows + depth):
        start = parts[r] if r < rows else 0
        grown = {}
        for above, cost in states.items():
            end = above_cut + len(above)  # cells may not pass the row above
            stack = [(start + 1, (), cost, 0)]
            while stack:
                col, row, total, last = stack.pop()
                if col > end:
                    stair = ()
                elif col <= above_cut:
                    stair = right[last] if last else tops[(col - r - charge) % n]
                else:
                    bound = above[col - above_cut - 1]
                    stair = right[last] if last and last < bound else down[bound]
                # the row is dominated by itself plus a cell of cost <= 0,
                # and its stair's last label is its cheapest
                if not stair or coeffs[stair[-1]] > 0:
                    old = grown.get(row)
                    if old is None or total < old:
                        grown[row] = total
                        if total < best:
                            best = total
                for q in stair:
                    stack.append((col + 1, row + (q,), total + coeffs[q], q))
        states = _undominated(grown) if len(grown) > 1 else grown
        if r >= rows:
            states.pop((), None)
            if not states:
                break
        above_cut = start
    return best


def _undominated(states):
    """The states of a {labels: cost} dict that no other dominates (see
    :func:`filling_min`): in order of cost, a state is kept unless a kept
    one has no fewer cells and labels >= its own pointwise."""
    kept = []
    for row, cost in sorted(states.items(), key=lambda item: (item[1], -len(item[0]))):
        size = len(row)
        for other, _ in kept:
            if len(other) >= size and all(a >= b for a, b in zip(other, row)):
                break
        else:
            kept.append((row, cost))
    return dict(kept)


def removal_options(parts, charge, i, n):
    """(sub_parts, count) for every subset of the removable residue-i boxes.

    Works on the raw parts tuple of a partition with the given charge and
    builds no ChargedPartition.  ``count`` is the subset's size.  The empty
    subset comes first; the order is by subset bitmask over the removable
    boxes of :func:`removable_rows`, top row first (subset k removes box j
    iff bit j of k is set), which is the order of :func:`removable_boxes`.
    The mirror of :func:`addition_options`.
    """
    options = [(parts, 0)]
    for r in removable_rows(parts, charge, i, n):
        options += [(without_corner(sub, r), count + 1) for sub, count in options]
    return options


def corner_rows(parts):
    """(r, label) for each row r, counted from 0 top first, of the raw parts
    that ends in a removable box, any residue, top row first: label is the
    box's slot label parts[r] - r at charge 0.  The label drops by one as
    the charge rises, so one scan gives the box's residue (label - charge)
    mod n at every charge and rank.  ``datum``'s removal index and
    ``fock``'s row passes each file a window block's corners by label mod
    n, once for every charge, into lists of their own."""
    rows = []
    last = len(parts) - 1
    for r, length in enumerate(parts):
        if r == last or length > parts[r + 1]:
            rows.append((r, length - r))
    return rows


def without_corner(parts, r):
    """The raw parts without the box that ends row r, counted from 0 top
    first, which must be a corner.  Only the last row can shrink to zero:
    every other corner row is longer than the row below it.  The one rule
    of single-box removal, which :func:`removal_options`, ``datum``'s
    removal index and closure and ``fock``'s row passes share."""
    length = parts[r]
    return parts[:r] + (length - 1,) + parts[r + 1:] if length > 1 else parts[:r]


def addition_options(parts, charge, i, n):
    """(sup_parts, count) for every subset of the addable residue-i boxes.

    The mirror of :func:`removal_options`: the boxes an addition makes
    addable carry residues i - 1 and i + 1, and it blocks none of the
    others, so every subset of the residue-i boxes can be added at once.
    ``count`` is the subset's size.  The empty subset comes first; subset k
    adds box j iff bit j of k is set, with the boxes of
    :func:`addable_rows` in its order (top row first, the new row last),
    which is the order of :func:`addable_boxes`.
    """
    options = [(parts, 0)]
    new_row = len(parts)
    for r in addable_rows(parts, charge, i, n):
        if r == new_row:
            options += [(sup + (1,), count + 1) for sup, count in options]
        else:
            options += [
                (sup[:r] + (sup[r] + 1,) + sup[r + 1:], count + 1) for sup, count in options
            ]
    return options


def lambda_diagram(i):
    """Right-black diagram black at every label <= i - 1, white above."""
    diffs = range(1, i) if i >= 1 else range(i, 1)
    return MayaDiagram(RIGHT_BLACK, diffs)


def s_lambda_diagram(i):
    """lambda_diagram(i) with the two colors adjacent to the boundary swapped."""
    base = lambda_diagram(i)
    return MayaDiagram(RIGHT_BLACK, base.diffs ^ {i - 1, i})


def invert_outside(t, interval):
    """Left-black diagram agreeing with right-black t inside the interval,
    color-inverted outside it.  The interval must contain t's deviations.

    The two vacua are opposite at every label.  Inside the interval the
    result takes t's colors, so a label deviates from the left-black vacuum
    iff it does not deviate from the right-black one; outside, the inverted
    t is the inverted right-black vacuum, which is the left-black vacuum.
    So the result's deviations are the interval's labels minus t's.
    """
    if t.kind != RIGHT_BLACK:
        raise ValueError("invert_outside expects a right-black diagram")
    if t.diffs and not (interval.lo <= min(t.diffs) and max(t.diffs) <= interval.hi):
        raise ValueError("interval %r does not contain the support" % (interval,))
    return MayaDiagram(LEFT_BLACK, frozenset(range(interval.lo, interval.hi + 1)) - t.diffs)


def partitions_of(total, largest=None, rows=None):
    """All partitions of ``total`` with parts at most ``largest`` and at
    most ``rows`` parts, where given, as weakly decreasing tuples, sorted.
    A branch whose rows cannot hold what remains is cut at once, so every
    branch taken ends in a partition.

    Not cached: ``datum.canonical_diagrams`` and ``datum.box_diagrams``,
    its callers on a hot path, cache the block of partitions each lists.
    """
    if total == 0:
        return ((),)
    out = []

    def build(remaining, largest, rows, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for first in range(min(remaining, largest), 0, -1):
            if first * rows < remaining:
                break
            build(remaining - first, first, rows - 1, prefix + [first])

    build(total, total if largest is None else largest, total if rows is None else rows, [])
    return tuple(sorted(out))
