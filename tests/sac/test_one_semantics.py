"""One SAC semantics, two value domains.

The specializing tracer is the interpreter plus a symbolic value kind,
so wherever no symbolic value is involved the two must not merely agree
on results — they must fail the same way, and do shared work once.
"""

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram, compile_function
from repro.sac.errors import SacError

A = np.arange(4.0)

#: name -> a function ``f(double[.] a)`` that cannot be evaluated.
MALFORMED = {
    "bounds-of-different-lengths":
        "double f(double[.] a) { return with ([0] <= iv < [3, 3]) "
        "fold(+, 0.0, a[[0]]); }",
    "non-positive-step":
        "double[+] f(double[.] a) { return with ([0] <= iv < [4] step [0]) "
        "genarray([4], a[[0]]); }",
    "width-wider-than-step":
        "double[+] f(double[.] a) { return with ([0] <= iv < [4] step [2] "
        "width [3]) genarray([4], a[[0]]); }",
    "dot-bound-without-frame":
        "double f(double[.] a) { return with (. <= iv < [3]) "
        "fold(+, 0.0, a[[0]]); }",
    "scalar-bounds-without-frame":
        "double f(double[.] a) { return with (0 <= iv < 3) "
        "fold(+, 0.0, a[[0]]); }",
    "region-outside-frame":
        "double[+] f(double[.] a) { return with ([0] <= iv < [6]) "
        "genarray([4], a[[0]]); }",
    "region-outside-modarray-frame":
        "double[+] f(double[.] a) { return with ([2] <= iv < [9]) "
        "modarray(a, 1.0); }",
    "generator-rank-above-frame-rank":
        "double[+] f(double[.] a) { return with ([0, 0] <= iv < [2, 2]) "
        "modarray(a, 1.0); }",
    "negative-genarray-shape":
        "double[+] f(double[.] a) { return with ([0] <= iv < [1]) "
        "genarray([0 - 2], a[[0]]); }",
    "index-out-of-range":
        "double f(double[.] a) { return a[[7]]; }",
    "negative-index":
        "double f(double[.] a) { return a[[0 - 1]]; }",
    "index-longer-than-rank":
        "double f(double[.] a) { return a[[0, 0]]; }",
    "index-out-of-range-in-constant":
        "int f(double[.] a) { v = [1, 2, 3]; return v[[5]]; }",
    "index-component-out-of-range":
        "double[+] f(double[.] a) { return with ([0] <= iv < [4]) "
        "genarray([4], a[[iv[[3]]]]); }",
    "ragged-vector-literal":
        "int[+] f(double[.] a) { return [[1, 2], [3]]; }",
    "undefined-function":
        "double f(double[.] a) { return nosuch(a); }",
    "undefined-variable":
        "double f(double[.] a) { return a[[0]] + b; }",
    "non-boolean-condition":
        "double f(double[.] a) { if (1) { return 1.0; } return 0.0; }",
    "runaway-recursion":
        "double f(double[.] a) { return f(a); }",
}


def failure(run) -> tuple:
    with pytest.raises(SacError) as exc:
        run()
    return type(exc.value), str(exc.value), exc.value.pos


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_program_fails_the_same_way_in_both(name):
    options = CompileOptions(optimize=False, typecheck=False)
    prog = SacProgram.from_source(MALFORMED[name], options=options)
    interpreted = failure(lambda: prog.call("f", A))
    assert failure(lambda: compile_function(prog, "f", (A,))) == interpreted


COUNTED_FRAME = """
double[.] frame(double[.] a) { return a + 1.0; }
double[.] f(double[.] a)
{
  r = with ([1] <= iv < [3]) modarray(frame(a), 2.0 * a[iv]);
  return r;
}
"""


@pytest.mark.parametrize("vectorize", [True, False])
def test_modarray_frame_is_evaluated_once_per_withloop(vectorize):
    options = CompileOptions(optimize=False, vectorize=vectorize)
    interp = SacProgram.from_source(COUNTED_FRAME, options=options).interp
    calls = []
    apply_fundef = interp.apply_fundef

    def counting(fun, args):
        calls.append(fun.name)
        return apply_fundef(fun, args)

    interp.apply_fundef = counting
    np.testing.assert_array_equal(interp.call("f", A), [1.0, 2.0, 4.0, 4.0])
    assert calls.count("frame") == 1
