"""Partitions, up-down tableaux and their content sequences.

An up-down tableau of length n is a sequence of Young diagrams starting
from the single box in which consecutive diagrams differ by exactly one
added or removed box.  These index the basis vectors of the irreducible
representations, and their quantum contents label the joint spectrum of
the Jucys-Murphy elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, NotGeneric

Partition = tuple  # weakly decreasing tuple of positive ints; () is empty

STRAND_CAP = 5  # the largest supported strand count n


def check_strands(n: int) -> None:
    """Raise CapExceeded unless 1 <= n <= STRAND_CAP, read at call time."""
    if not 1 <= n <= STRAND_CAP:
        raise CapExceeded("n = %d outside supported range 1..%d"
                          % (n, STRAND_CAP))


def check_partition(p) -> Partition:
    p = tuple(int(x) for x in p)
    if any(x < 1 for x in p):
        raise ValueError("partition parts must be >= 1")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return p


def addable_boxes(p: Partition):
    """Addable boxes of a Young diagram, ordered by (row, column), 1-based."""
    out = []
    for r in range(len(p) + 1):
        row_len = p[r] if r < len(p) else 0
        above = p[r - 1] if r > 0 else None
        if above is None or row_len < above:
            out.append((r + 1, row_len + 1))
    return out


def removable_boxes(p: Partition):
    """Removable boxes, ordered by (row, column), 1-based."""
    out = []
    for r in range(len(p)):
        below = p[r + 1] if r + 1 < len(p) else 0
        if p[r] > below:
            out.append((r + 1, p[r]))
    return out


def add_box(p: Partition, box) -> Partition:
    r, c = box
    rows = list(p)
    if r == len(rows) + 1:
        rows.append(1)
    else:
        rows[r - 1] += 1
    return tuple(rows)


def remove_box(p: Partition, box) -> Partition:
    r, c = box
    rows = list(p)
    rows[r - 1] -= 1
    if rows[r - 1] == 0:
        rows.pop(r - 1)
    return tuple(rows)


def transpose_partition(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= c) for c in range(1, p[0] + 1))


@dataclass(frozen=True)
class BoxStep:
    """One step of an up-down tableau: an added or removed box (a, b)."""

    added: bool
    row: int
    col: int

    def encode(self) -> str:
        return "%s%d,%d" % ("+" if self.added else "-", self.row, self.col)


@dataclass(frozen=True)
class UpDownTableau:
    """Shapes (Lambda_1, ..., Lambda_n); step 1 always adds box (1,1)."""

    shapes: tuple

    def __post_init__(self):
        if not self.shapes:
            raise ValueError("an up-down tableau starts at the single box")
        prev = ()
        for s in self.shapes:
            if s not in [add_box(prev, b) for b in addable_boxes(prev)] + \
                    [remove_box(prev, b) for b in removable_boxes(prev)]:
                raise ValueError("%r is not one box away from %r" % (s, prev))
            prev = s

    def __len__(self):
        return len(self.shapes)

    @property
    def steps(self):
        out = []
        prev = ()
        for s in self.shapes:
            if sum(s) > sum(prev):
                box = next(b for b in addable_boxes(prev)
                           if add_box(prev, b) == s)
                out.append(BoxStep(True, box[0], box[1]))
            else:
                box = next(b for b in removable_boxes(prev)
                           if remove_box(prev, b) == s)
                out.append(BoxStep(False, box[0], box[1]))
            prev = s
        return tuple(out)

    @property
    def shape(self) -> Partition:
        return self.shapes[-1]

    def transpose(self) -> "UpDownTableau":
        return UpDownTableau(tuple(transpose_partition(s)
                                   for s in self.shapes))

    def is_standard(self) -> bool:
        """No removed boxes (an ordinary standard Young tableau)."""
        return all(st.added for st in self.steps)

    def encode(self) -> str:
        return ";".join(",".join(str(x) for x in s) for s in self.shapes)

    @classmethod
    def decode(cls, text: str) -> "UpDownTableau":
        shapes = []
        for part in text.split(";"):
            part = part.strip()
            shapes.append(check_partition(
                [x for x in part.split(",") if x] if part else []))
        return cls(tuple(shapes))

    def __repr__(self):
        return "UpDownTableau(%s)" % self.encode()


def enumerate_tableaux(n: int):
    """All up-down tableaux of length n, depth-first, added boxes before
    removed, boxes ordered by (row, column).  Deterministic."""
    check_strands(n)
    out = []
    chain = [(1,)]

    def rec():
        if len(chain) == n:
            out.append(UpDownTableau(tuple(chain)))
            return
        cur = chain[-1]
        for b in addable_boxes(cur):
            chain.append(add_box(cur, b))
            rec()
            chain.pop()
        for b in removable_boxes(cur):
            chain.append(remove_box(cur, b))
            rec()
            chain.pop()

    rec()
    return out


def count_tableaux(n: int) -> int:
    """Number of up-down tableaux of length n (by shape recursion)."""
    check_strands(n)
    counts = {(1,): 1}
    for _ in range(n - 1):
        nxt = {}
        for shape, m in counts.items():
            for b in addable_boxes(shape):
                s = add_box(shape, b)
                nxt[s] = nxt.get(s, 0) + m
            for b in removable_boxes(shape):
                s = remove_box(shape, b)
                nxt[s] = nxt.get(s, 0) + m
        counts = nxt
    return sum(counts.values())


# ---------------------------------------------------------------------------
# content sequences
# ---------------------------------------------------------------------------

def quantum_contents(tab: UpDownTableau, params):
    """The quantum content of the box of each step (``_box_content``).
    The first value is always 1.  ``params`` is any object with ``q`` and
    ``nu``: rationals or truncated Laurent series."""
    return tuple(_box_content(params, st.row, st.col, st.added)
                 for st in tab.steps)


def _box_content(params, a, b, added):
    """The quantum content q^(2(b-a)) of an added box (a,b), nu^2 q^(2(a-b))
    of a removed one."""
    if added:
        return params.q ** (2 * (b - a))
    return params.nu * params.nu * params.q ** (2 * (a - b))


def classical_contents(tab: UpDownTableau, omega, t_classical=False):
    """Classical contents: +-((b-a) + (omega-1)/2); the t-classical flavour
    uses the transposed box, i.e. -(b-a) + (omega-1)/2 for added boxes and
    (b-a) - (omega-1)/2 for removed ones."""
    omega = Fraction(omega)
    half = (omega - 1) / 2
    out = []
    for st in tab.steps:
        d = st.col - st.row
        if t_classical:
            out.append(-d + half if st.added else d - half)
        else:
            out.append(d + half if st.added else -d - half)
    return tuple(out)


def extension_spectrum(shape: Partition, params):
    """Quantum contents of all one-box extensions/removals of a diagram:
    the eigenvalues of the next Jucys-Murphy element on the image of the
    current idempotent.  Pairwise distinct under certified parameters; a
    collision raises NOT_GENERIC.  The values are compared with ``==``
    (truncated Laurent series are unhashable)."""
    vals = [_box_content(params, a, b, True) for a, b in addable_boxes(shape)]
    vals += [_box_content(params, a, b, False)
             for a, b in removable_boxes(shape)]
    if any(vals[a] == vals[b] for a in range(len(vals)) for b in range(a)):
        raise NotGeneric("extension spectrum collision on %r" % (shape,))
    return tuple(vals)
