"""Hypothesis strategies for small SAC programs, and how to build them.

The property tests that run random programs through the evaluators
draw them from here:

* :func:`withloop_program` — one WITH-loop over an argument, its body a
  little arithmetic and builtins around one selection
  (``test_differential.py``);
* :func:`checked_program` — the same, or with one planted static error
  (``test_differential.py``'s error agreement);
* :func:`per_point_program` — a WITH-loop over the rows of a matrix
  whose body mixes values per point with whole arrays
  (``test_differential.py``);
* :func:`pair_program` — a producer WITH-loop and a consumer reading it
  at literal offsets (``test_wlfold_property.py``);
* :func:`donation_program` — calls of helpers that ``modarray`` their
  parameter, in every position the buffer planner tells apart
  (``test_donation_property.py``);
* :func:`stencil` — a 3-D relaxation with coefficient classes
  (``test_partialsum.py``).

:func:`build` compiles one; builds that share a ``cache`` share the
program (``vectorize`` does not decide it), so a property comparing the
two interpreters on one program optimizes it once.
"""

import itertools
import re

from hypothesis import strategies as st

from repro.sac import (CompilationSession, CompileOptions, KernelCache,
                       SacProgram)
from repro.sac.builtins import BUILTINS


def build(src: str, cache: KernelCache | None = None,
          **options) -> SacProgram:
    """``src`` compiled with these ``CompileOptions`` fields."""
    return SacProgram(None, _session=CompilationSession(
        src, options=CompileOptions(**options),
        cache=cache if cache is not None else KernelCache()))


def vec(values) -> str:
    """A SAC int vector literal."""
    return "[" + ", ".join(str(int(v)) for v in values) + "]"


# --------------------------------------------------------------------------
# One WITH-loop, well formed or with one static error.
# --------------------------------------------------------------------------

WITHLOOP_N = 8  # extent per axis of the argument

#: Bodies around one selection ``{b}``.  On integer-valued arguments
#: every one of them is exact, so that a fold sums it without rounding
#: in any order.
_BODIES = (
    "{b}",
    "2.0 * {b}",
    "{b} + 1.5",
    "{b} * {b}",
    "-{b}",
    "{b} - 0.5 * {b}",
    "abs({b})",
    "sqrt({b} * {b})",
    "max({b}, 0.5)",
    "min({b}, -{b})",
    "tod(toi({b}))",
    "tod(dim(a)) * {b}",
    "{b} + tod(sum(shape(a)))",
)

#: A binary and a unary user function, for folds.
_USER_FUNCTIONS = ("double h(double x, double y) { return x + y; }\n"
                   "double g(double x) { return x; }\n")

#: The static errors :func:`checked_program` plants, one per program.
DEFECTS = ("arity", "fold", "ragged", "name")


@st.composite
def affine_index(draw, rank: int) -> str:
    """An affine index expression in iv staying within [0, WITHLOOP_N)."""
    form = draw(st.sampled_from(["plain", "shift", "scale", "scale_div"]))
    if form == "plain":
        return "iv"
    if form == "shift":
        off = draw(st.integers(0, 3))
        # Bound-safe: generator upper bounds are reduced accordingly.
        return f"iv + {off}"
    if form == "scale":
        return "2 * iv"
    return "iv / 2"


@st.composite
def withloop_program(draw, defect: str | None = None) -> tuple[str, int]:
    """(source, rank) of ``f(a)``: a random genarray, modarray or fold;
    with a ``defect`` of :data:`DEFECTS` planted in it."""
    rank = draw(st.integers(1, 2))
    index = draw(affine_index(rank))
    body = draw(st.sampled_from(_BODIES)).format(b=f"a[{index}]")
    kind = "fold" if defect == "fold" else draw(
        st.sampled_from(["genarray", "modarray", "fold"]))
    fun = draw(st.sampled_from(["+", "min", "max", "h"]))
    if defect == "arity":  # a builtin with one argument too few or many
        name = draw(st.sampled_from(sorted(BUILTINS)))
        nargs = BUILTINS[name].arity + draw(st.sampled_from([-1, 1]))
        body = f"{body} + tod({name}({', '.join([body] * nargs)}))"
    elif defect == "fold":  # a function of other than two arguments
        fun = draw(st.sampled_from(
            ["g"] + [n for n, b in BUILTINS.items() if b.arity != 2]))
    elif defect == "ragged":
        ragged = draw(st.sampled_from(["[[1.0], 2.0]", "[[1.0, 2.0], [3.0]]"]))
        body = f"{body} + {ragged}[[0]]"
    elif defect == "name":
        body = draw(st.sampled_from(
            [f"{body} + b", f"nosuch({body})"]))
        fun = draw(st.sampled_from([fun, "nosuch"]))
    # Safe bounds for every index form: iv in [0, N//2 - 4) keeps
    # iv+3, 2*iv and iv/2 within [0, N).
    hi = WITHLOOP_N // 2 - 4 + draw(st.integers(0, 3))
    lo = draw(st.integers(0, 1))
    lo_vec = "[" + ", ".join([str(lo)] * rank) + "]"
    hi_vec = "[" + ", ".join([str(hi)] * rank) + "]"
    shp = "[" + ", ".join([str(WITHLOOP_N)] * rank) + "]"
    rank_ann = "[" + ",".join(["."] * rank) + "]"
    if kind == "genarray":
        expr = (f"with ({lo_vec} <= iv < {hi_vec}) "
                f"genarray({shp}, {body})")
        ret = f"double{rank_ann}"
    elif kind == "modarray":
        expr = f"with ({lo_vec} <= iv < {hi_vec}) modarray(a, {body})"
        ret = f"double{rank_ann}"
    else:
        expr = (f"with ({lo_vec} <= iv < {hi_vec}) "
                f"fold({fun}, 0.0, {body})")
        ret = "double"
    src = f"{ret} f(double{rank_ann} a) {{ return {expr}; }}"
    return _USER_FUNCTIONS + src, rank


@st.composite
def checked_program(draw) -> tuple[str, int, str | None]:
    """(source, rank, defect) of :func:`withloop_program`: half of them
    well formed, half with one of the :data:`DEFECTS`."""
    defect = draw(st.sampled_from((None,) * len(DEFECTS) + DEFECTS))
    return (*draw(withloop_program(defect)), defect)


# --------------------------------------------------------------------------
# Values per point beside whole arrays.
# --------------------------------------------------------------------------

PER_POINT_ROWS, PER_POINT_N = 2, 3  # f(a, v, w): a is ROWS x N, v and w N

#: Terms with a scalar cell ("s") and with a vector cell of N ("v"),
#: per point or whole; ``{s}``/``{v}`` is a smaller term of that cell,
#: ``{k}`` a literal in [0, N), ``{r}`` one in [0, ROWS).  The ``j`` of
#: a nested fold is its own index, read beside the enclosing ``iv``;
#: ``[3, 1][iv]`` is a value per point known before the loop runs.
_PER_POINT_LEAVES = {
    "s": ("a[iv][[{k}]]", "w[iv]", "v[[{k}]]", "1.5", "sum(a[iv])",
          "prod(a[iv])", "g(a[iv])", "tod(dim(a[iv]))",
          "tod(sum(shape(a[iv])))", "tod([3, 1][iv])"),
    "v": ("a[iv]", "v", "w", "a[[{r}]]", "h(a[iv])"),
}
_PER_POINT_FORMS = {
    "s": ("{s} + {s}", "{s} * {s}", "-{s}", "abs({s})", "max({s}, {s})",
          "tod(toi({s}))", "sum({v})", "g({v})", "tod(dim({v}))",
          "with ([0] <= j < [3]) fold(+, 0.0, {s} * a[iv][j])",
          "with ([0] <= j < [2, 3][iv]) fold(+, 0.0, {s})"),
    "v": ("{v} + {v}", "{v} * {s}", "{s} - {v}", "-{v}", "min({v}, {s})",
          "max({s}, {v})", "abs({v})", "h({v})", "[{s}, {s}, {s}]",
          "with ([0] <= j < [2]) fold(+, [0.0, 0.0, 0.0], a[j] * {s})"),
}
_PER_POINT_HELPERS = ("double g(double[.] x) { return sum(x); }\n"
                      "double[.] h(double[.] x) { return 2.0 * x + 1.0; }\n")


@st.composite
def per_point_program(draw) -> str:
    """Source of ``f(a, v, w)``: a genarray, fold or modarray over the
    rows of ``a`` (the last ones, or none), its body a term of rows ``a[iv]``, their elements,
    whole vectors, helpers called on a row, vector literals, structural
    builtins, reductions and a nested fold."""

    def term(cell: str, depth: int) -> str:
        leaf = depth == 0 or draw(st.booleans())
        form = draw(st.sampled_from(
            (_PER_POINT_LEAVES if leaf else _PER_POINT_FORMS)[cell]))
        return re.sub(r"\{(\w)\}", lambda m: str(draw(st.integers(
            0, {"k": PER_POINT_N, "r": PER_POINT_ROWS}[m[1]] - 1)))
            if m[1] in "kr" else f"({term(m[1], depth - 1)})", form)

    cell = draw(st.sampled_from(["s", "v"]))
    body = term(cell, 3)
    rows = f"[{PER_POINT_ROWS}]"
    kind = draw(st.sampled_from(["genarray", "fold"] + ["modarray"] * (
        cell == "v")))
    if kind == "genarray":
        op = f"genarray({rows}, {body})"
    elif kind == "fold":
        neutral = draw(st.sampled_from(
            ["0.0"] + ["[0.0, 0.0, 0.0]"] * (cell == "v")))
        op = f"fold({draw(st.sampled_from(['+', 'min', 'max']))}, " \
             f"{neutral}, {body})"
    else:
        op = f"modarray({draw(st.sampled_from(['a', 'toi(a)']))}, {body})"
    lower = draw(st.integers(0, PER_POINT_ROWS))  # ROWS: no point at all
    return (_PER_POINT_HELPERS + "double[*] f(double[.,.] a, double[.] v, "
            f"double[.] w) {{ return with ([{lower}] <= iv < {rows}) {op}; }}")


# --------------------------------------------------------------------------
# WITH-loop folding: a producer and a consumer.
# --------------------------------------------------------------------------

PAIR_N = 7  # extent per axis of the producer


@st.composite
def pair_program(draw) -> tuple[str, int]:
    """(source, rank) of ``f(a, g)``: a producer ``p`` over ``a`` and a
    consumer ``r`` reading it; ``g`` is a frame of ``a``'s shape."""
    rank = draw(st.integers(1, 3))
    # Half the draws are steered to where a splitting rule applies (A: an
    # unstepped producer that dies, read at one index; B: a stepped one
    # over the whole range, read with unit stride); the rest are free and
    # mostly land on what is refused.
    rule = draw(st.sampled_from(["A", "B", None, None]))

    def ints(lo: int, hi: int) -> list[int]:
        return [draw(st.integers(lo, hi)) for _ in range(rank)]

    # -- the producer ------------------------------------------------------
    pbody = draw(st.sampled_from([
        "a[iv]", "1.5", "2.0 * a[iv] + 1.0", "a[iv] * a[iv]", "-a[iv]"]))
    bounds = "dots" if rule == "B" else draw(
        st.sampled_from(["dots", "open dots", "literal", "symbolic"]))
    if bounds == "dots":
        pgen = ". <= iv <= ."
    elif bounds == "open dots":  # one short of the whole range: refused
        pgen = draw(st.sampled_from([
            ". < iv <= .", ". <= iv < .", ". < iv < ."]))
    elif bounds == "literal":
        pgen = f"{vec(ints(0, 2))} <= iv < {vec(ints(PAIR_N - 2, PAIR_N))}"
    else:
        pgen = "0 * shape(a) + 1 <= iv < shape(a) - 1"
    step = draw(st.sampled_from(
        {"A": [1], "B": [2, 3]}.get(rule, [1, 2, 3])))
    if step > 1 or draw(st.booleans()):
        pgen += f" step {vec([step] * rank)}" if draw(st.booleans()) \
            else f" step {step}"
    pop = draw(st.sampled_from(["genarray(shape(a), {})", "modarray(a, {})"]))

    # -- the consumer ------------------------------------------------------
    stride = 1 if rule == "B" else draw(st.sampled_from([1, 2]))
    offsets = [ints(-1, 2) for _ in range(draw(st.integers(1, 4)))]
    if rule == "A":
        offsets = offsets[:1] * len(offsets)
    scaled = "jv" if stride == 1 else f"{stride} * jv"
    terms = [f"{draw(st.sampled_from(['0.5', '0.25', '-2.0', '1.0']))} * "
             f"p[{scaled} + {vec(o)}]" for o in offsets]
    cbody = " + ".join(terms) + draw(st.sampled_from(["", " + 0.75",
                                                      " - g[jv]"]))
    # Every index must stay in [0, N): bounds per axis from the offsets.
    lo = [max(0, -(min(o[d] for o in offsets) // stride)) for d in range(rank)]
    hi = [min(PAIR_N, (PAIR_N - 1 - max(o[d] for o in offsets)) // stride + 1)
          for d in range(rank)]  # and g[jv], and the frames p and g
    # A ``.`` bound is on offer where it keeps every index inside.
    dots_lo = [". <= jv"] * (max(lo) == 0) + [". < jv"]
    lo = [draw(st.integers(lo[d], max(lo[d], hi[d] - 1))) for d in range(rank)]
    frame = draw(st.sampled_from(["genarray", "g"] + ["p"] * (rule != "A")))
    extent = [h + draw(st.integers(0, 2)) for h in hi] \
        if frame == "genarray" else [PAIR_N] * rank
    cop = f"genarray({vec(extent)}, {{}})" if frame == "genarray" \
        else f"modarray({frame}, {{}})"
    slack = max(e - h for e, h in zip(extent, hi))
    cgen = draw(st.sampled_from([
        f"{vec(lo)} <= jv", f"{vec(x - 1 for x in lo)} < jv",
        f"shape(a) - {vec(PAIR_N - x for x in lo)} <= jv"] + dots_lo))
    cgen += draw(st.sampled_from([
        f" < {vec(hi)}", f" <= {vec(x - 1 for x in hi)}",
        f" < shape(a) - {vec(PAIR_N - x for x in hi)}"]
        + [" <= ."] * (slack == 0) + [" < ."] * (slack <= 1)))
    t = "double[" + ",".join("." * rank) + "]"
    return (f"{t} f({t} a, {t} g)\n{{\n"
            f"  p = with ({pgen}) {pop.format(pbody)};\n"
            f"  r = with ({cgen}) {cop.format(cbody)};\n"
            f"  return( r);\n}}\n"), rank


# --------------------------------------------------------------------------
# Buffer donation: helpers that modarray their parameter.
# --------------------------------------------------------------------------

DONATION_N = 6  # extent of every vector

HELPERS = """
double[.] bump( double[.] p)
{
  return( with ([1] <= iv < shape(p) - 1) modarray( p, 0.5 * p[iv] + 1.0));
}

double[.] wrap( double[.] p)
{
  n  = shape(p)[[0]];
  lo = with ([0] <= iv < [1]) modarray( p, p[iv + (n - 2)]);
  hi = with ([n - 1] <= iv < [n]) modarray( lo, lo[iv - (n - 2)]);
  return( hi);
}

double[.] blend( double[.] p, double[.] q)
{
  return( with ([1] <= iv < shape(p) - 1)
          modarray( p, p[iv] - 0.25 * q[iv - 1]));
}

double[.] fuse( double[.] p, double[.] q)
{
  lo = with ([1] <= iv < shape(p) - 1) modarray( p, 2.0 * p[iv]);
  hi = with ([0] <= iv < shape(p) - 1) modarray( lo, lo[iv] + q[iv + 1]);
  return( hi);
}

double[.] delta( double[.] p)
{
  q = with ([1] <= iv < shape(p) - 1) modarray( p, 0.5 * p[iv] + 1.0);
  return( q - p);
}

double[.] both( double[.] p)
{
  return( bump( wrap( p)));
}

double[.] same( double[.] p)
{
  return( p);
}
"""

_UNARY = ["bump", "wrap", "delta", "both", "same"]
_BINARY = ["blend", "fuse"]


@st.composite
def donation_program(draw) -> str:
    """Source of ``f(a, b, m)``: up to eight statements over a growing
    pool of vectors (the parameters ``a`` and ``b`` and two arrays of
    ``f``'s own to begin with) and matrices (``m``), returning one vector
    or the sum of two."""
    vectors, matrices = ["a", "b", "s", "t"], ["m"]
    body = ["s = a + b;", "t = a - b;"]

    def vector() -> str:  # of the pool as it stands now, the newest likelier
        return draw(st.sampled_from(vectors[-2:] + vectors))

    def unary() -> str:
        return draw(st.sampled_from(_UNARY))

    def binary() -> str:
        return draw(st.sampled_from(_BINARY))

    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["fresh", "frame", "call", "rebind", "binary", "select",
             "matrix", "loop"]))
        x = f"x{len(body)}"
        if kind == "fresh":
            body.append(f"{x} = 2.0 * {vector()} + 0.5;")
        elif kind == "frame":   # read again later, or not
            v = vector()
            body.append(f"{x} = with ([1] <= iv < [{DONATION_N - 1}]) "
                        f"modarray( {v}, {v}[iv - 1] - {v}[iv + 1]);")
        elif kind == "call":
            body.append(f"{x} = {unary()}( {vector()});")
        elif kind == "rebind":  # the old value is dead after the call
            x = vector()
            body.append(f"{x} = {unary()}( {x});")
        elif kind == "binary":  # every third time the same vector twice
            v = vector()
            w = v if draw(st.integers(0, 2)) == 0 else vector()
            body.append(f"{x} = {binary()}( {v}, {w});")
        elif kind == "select":
            row = draw(st.integers(0, 1))
            body.append(f"{x} = {unary()}( "
                        f"{draw(st.sampled_from(list(matrices)))}[[{row}]]);")
        elif kind == "matrix":
            body.append(
                f"{x} = {draw(st.sampled_from(list(matrices)))} * 2.0;")
            matrices.append(x)
            continue
        else:  # a counted loop: x and y are carried, r is a result of
            # each trip, any of them may be read after it, and what
            # else a trip reads it re-reads on every trip
            inside = [x, x + "y", x + "r"]
            for n in inside:
                body.append(f"{n} = {vector()} + 0.0;" if draw(st.booleans())
                            else f"{n} = {vector()};")

            def operand() -> str:
                return draw(st.sampled_from(inside * 2 + vectors))

            steps = [
                f"{draw(st.sampled_from(inside))} = " + draw(st.sampled_from(
                    [f"{binary()}( {operand()}, {operand()})",
                     f"{unary()}( {operand()})", f"2.0 * {operand()}",
                     f"{operand()} + {unary()}( {operand()})", operand()]))
                + ";" for _ in range(draw(st.integers(1, 3)))]
            body.append(f"for (k = 0; k < {draw(st.integers(1, 3))}; k += 1) "
                        f"{{ {' '.join(steps)} }}")
            vectors.extend(inside[1:])
        if x not in vectors:
            vectors.append(x)
    result = vector() if draw(st.booleans()) else f"{vector()} + {vector()}"
    return (HELPERS + "double[.] f( double[.] a, double[.] b, double[.,.] m)\n"
            "{\n  " + "\n  ".join(body) + f"\n  return( {result});\n}}\n")


# --------------------------------------------------------------------------
# Shared partial sums: a grouped 3-D stencil.
# --------------------------------------------------------------------------

_COEFFS = (0.5, -0.25, 1.0 / 3.0, 2.0, -0.125, 1.0)

#: How an offset's coefficient class is chosen: by distance (the MG
#: stencils), by the distance along each axis, by the distance in the y-z
#: plane and the signed x offset (shared sums in differently weighted
#: groups), or per offset.
_CLASS_OF = {
    "distance": lambda o: sum(map(abs, o)),
    "profile": lambda o: tuple(map(abs, o)),
    "signed": lambda o: (abs(o[0]) + abs(o[1]), o[2]),
    "offset": lambda o: o,
}


@st.composite
def stencil(draw) -> str:
    """``f(a)``: a 3-D relaxation whose body sums ``c * a[iv + o]`` over
    the offsets of a box of {-1, 0, 1}^3 with holes along each axis, in
    a random order, each ``c`` the coefficient of its class."""
    axes = [sorted(draw(st.sets(st.sampled_from((-1, 0, 1)), min_size=1)))
            for _ in range(3)]
    offsets = draw(st.permutations(list(itertools.product(*axes))))
    class_of = _CLASS_OF[draw(st.sampled_from(sorted(_CLASS_OF)))]
    coeff: dict = {}
    for o in offsets:
        coeff.setdefault(class_of(o), draw(st.sampled_from(_COEFFS)))
    terms = [f"{coeff[class_of(o)]!r} * a[iv + {vec(o)}]" for o in offsets]
    return ("double[+] f(double[+] a) { return with (0*shape(a)+1 <= iv "
            f"< shape(a)-1) modarray(a, {' + '.join(terms)}); }}")
