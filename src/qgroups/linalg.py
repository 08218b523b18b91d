"""Exact linear algebra over Q(v).

Matrices are sparse: a Mat stores {(row, col): RationalFunction} with zeros
never kept.  Vectors are plain dicts {index: RationalFunction}.  Elimination
(rref, kernels, solving) runs on dense row lists; everything stays in the
field, no floating point anywhere.
"""

from __future__ import annotations

from .scalar import RF_ONE, RF_ZERO, Memo, RationalFunction


def accumulate(acc: dict, pairs) -> dict:
    """Add each x of the (key, x) ``pairs`` into the sparse dict ``acc`` and
    return it.  A key whose sum is zero is dropped, so no zero is stored; a
    fresh key takes x itself, with no addition to zero."""
    for key, x in pairs:
        s = acc.get(key)
        s = x if s is None else s + x
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


class Mat:
    """Sparse matrix over Q(v)."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows, ncols, data=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {}
        if data:
            for (r, c), x in data.items():
                if x:
                    self.data[(r, c)] = x

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): RF_ONE for i in range(n)})

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(nrows, ncols)

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls(n, n, {(i, i): x for i, x in enumerate(entries)})

    @classmethod
    def from_rows(cls, rows):
        m = cls(len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    m.data[(i, j)] = x
        return m

    def __getitem__(self, rc):
        return self.data.get(rc, RF_ZERO)

    def set(self, r, c, x):
        if x:
            self.data[(r, c)] = x
        else:
            self.data.pop((r, c), None)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def is_zero(self):
        return not self.data

    def __add__(self, other):
        out = Mat(self.nrows, self.ncols, self.data)
        accumulate(out.data, other.data.items())
        return out

    def __neg__(self):
        return Mat(self.nrows, self.ncols, {rc: -x for rc, x in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: RationalFunction):
        if not c:
            return Mat(self.nrows, self.ncols)
        if c.is_one():
            return Mat(self.nrows, self.ncols, self.data)
        return Mat(self.nrows, self.ncols, {rc: c * x for rc, x in self.data.items()})

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # the right operand's rows, indexed once; the left one is walked as stored
        rows = {}
        for (k, c), y in other.data.items():
            rows.setdefault(k, []).append((c, y))
        out = Mat(self.nrows, other.ncols)
        accumulate(out.data, (((r, c), x * y) for (r, k), x in self.data.items()
                              for c, y in rows.get(k, ())))
        return out

    def transpose(self):
        return Mat(self.ncols, self.nrows, {(c, r): x for (r, c), x in self.data.items()})

    def kron(self, other):
        """Kronecker product; index (i, j) of the factors maps to i*other.n + j."""
        out = Mat(self.nrows * other.nrows, self.ncols * other.ncols)
        for (r1, c1), x in self.data.items():
            for (r2, c2), y in other.data.items():
                out.data[(r1 * other.nrows + r2, c1 * other.ncols + c2)] = x * y
        return out

    def columns(self) -> dict:
        """The entries indexed by column, {c: [(r, x)]}, for ``apply_index``.
        Built fresh on each call, never kept: ``data`` may change in place."""
        cols = {}
        for (r, c), x in self.data.items():
            cols.setdefault(c, []).append((r, x))
        return cols

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector."""
        return apply_index(self.columns(), vec)

    def column(self, c) -> dict:
        return {r: x for (r, cc), x in self.data.items() if cc == c}

    def set_column(self, c, vec: dict):
        for r, x in vec.items():
            self.set(r, c, x)

    def to_rows(self):
        rows = [[RF_ZERO] * self.ncols for _ in range(self.nrows)]
        for (r, c), x in self.data.items():
            rows[r][c] = x
        return rows

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, nnz={len(self.data)})"


# --- dense elimination -------------------------------------------------------


def rref(rows, ncols=None):
    """Reduced row echelon form in place; returns the pivot column list.
    Pivots lie in the first ``ncols`` columns (default all), rows are whole."""
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots

def rank(rows):
    work = [list(r) for r in rows]
    return len(rref(work))


def kernel_basis(rows, ncols):
    """Basis of the right kernel, in reduced echelon normalization.

    Each basis vector has value 1 at its own free column and value 0 at all
    other free columns, making the output canonical for a fixed column order.
    """
    work = [list(r) for r in rows]
    pivots = rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = {fc: RF_ONE}
        for r, pc in enumerate(pivots):
            x = work[r][fc]
            if x:
                vec[pc] = -x
        basis.append(vec)
    return basis


def raising_kernel(raising, indices):
    """Joint kernel of the ``raising`` matrices on the span of the basis
    ``indices`` (a weight space): the highest-weight vectors there, in
    ``kernel_basis`` normalization, as sparse vectors over the basis."""
    pos = {c: k for k, c in enumerate(indices)}
    rows = []
    for e in raising:
        by_row = {}
        for (r, c), x in e.data.items():
            if c in pos:
                by_row.setdefault(r, {})[pos[c]] = x
        rows.extend([by_row[r].get(k, RF_ZERO) for k in range(len(indices))]
                    for r in sorted(by_row))
    kern = kernel_basis(rows or [[RF_ZERO] * len(indices)], len(indices))
    return [{indices[k]: x for k, x in vec.items()} for vec in kern]


def intertwiner_kernel(unknowns, pairs):
    """Kernel basis of phi -> (A phi - phi B for each (A, B) in pairs).

    phi is supported on the positions (x, y) in ``unknowns``, which fix the
    column order; each basis vector is returned as {(x, y): value}, the
    ``kernel_basis`` vectors of the full system.  Each row only meets the
    unknowns sharing an index with a nonzero of A or B.  A row left with one
    entry forces that unknown to zero, and both leave the system (repeated
    until none is left); such a column is a pivot that enters no other
    column's kernel vector, so the basis is unchanged.
    """
    by_x, by_y = {}, {}
    for k, (x, y) in enumerate(unknowns):
        by_x.setdefault(x, []).append((y, k))
        by_y.setdefault(y, []).append((x, k))
    entries = {}
    for g, (a, b) in enumerate(pairs):
        accumulate(entries, ((((g, x0, y), k), c) for (x0, x1), c in a.data.items()
                             for y, k in by_x.get(x1, ())))
        accumulate(entries, ((((g, x, y1), k), -c) for (y0, y1), c in b.data.items()
                             for x, k in by_y.get(y0, ())))
    rows = {}
    for (key, k), c in entries.items():
        rows.setdefault(key, {})[k] = c
    live, zero, changed = list(rows.values()), set(), True
    while changed:
        changed, kept = False, []
        for row in live:
            row = {k: c for k, c in row.items() if k not in zero}
            if len(row) == 1:
                zero.update(row)
                changed = True
            elif row:
                kept.append(row)
        live = kept
    cols = [k for k in range(len(unknowns)) if k not in zero]
    if not cols:
        return []
    kern = kernel_basis([[row.get(k, RF_ZERO) for k in cols] for row in live], len(cols))
    return [{unknowns[cols[j]]: x for j, x in vec.items()} for vec in kern]


def solve(rows, rhs_cols):
    """Solve M x = b for each dense column b in rhs_cols.

    Returns a list of dicts, or raises if some system is inconsistent.  The
    systems may be overdetermined; a solution with free coordinates set to
    zero is returned.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work = [list(rows[i]) + [col[i] for col in rhs_cols] for i in range(nrows)]
    pivots = rref(work, ncols)
    for i in range(len(pivots), nrows):
        if any(work[i][ncols:]):
            raise ArithmeticError("inconsistent linear system")
    return [{pc: work[i][ncols + k] for i, pc in enumerate(pivots) if work[i][ncols + k]}
            for k in range(len(rhs_cols))]


def invert(m: Mat) -> Mat:
    if m.nrows != m.ncols:
        raise ValueError("only square matrices invert")
    n = m.nrows
    rows = m.to_rows()
    eye = Mat.identity(n).to_rows()
    work = [rows[i] + eye[i] for i in range(n)]
    pivots = rref(work, n)
    if len(pivots) != n:
        raise ArithmeticError("singular matrix")
    out = Mat(n, n)
    for i in range(n):
        for j in range(n):
            x = work[i][n + j]
            if x:
                out.data[(i, j)] = x
    return out


def apply_index(index: dict, vec: dict) -> dict:
    """Sparse vector with entry sum x * vec[a] at b over the (b, x) listed in
    ``index`` under a: a matrix indexed by column (``Mat.columns``) times a
    column vector, or one indexed by row times a row vector.

    The sum is kept inline rather than passed to ``accumulate``: the word
    evaluator applies thousands of indexes to one- or two-entry vectors, and
    the call per sum made ``hopf`` measurably slower."""
    out = {}
    for a, y in vec.items():
        if not y:
            continue
        for b, x in index.get(a, ()):
            p = x * y
            s = out.get(b)
            s = p if s is None else s + p
            if s:
                out[b] = s
            else:
                del out[b]
    return out


def index_applier(mat_of):
    """``f(i, vec)``: the matrix ``mat_of(i)`` times vec.  Each matrix is
    indexed by column on first use; the index lives in this closure only."""
    index = Memo(lambda i: mat_of(i).columns())
    return lambda i, vec: apply_index(index[i], vec)
