"""WITH-loop partition checking: SAC2xx diagnostics."""

from repro.sac.analysis import analyze_source
from repro.sac.diagnostics import Severity


def diags(src, filename="<test>"):
    return analyze_source(src, filename).diagnostics


def codes(src):
    return [d.code for d in diags(src)]


class TestOverlap:
    def test_width_exceeds_step(self):
        src = ("int[10] f() { return with ([0] <= iv <= [8] step [2] "
               "width [3]) genarray([10], 1); }")
        found = [d for d in diags(src, "overlap.sac")
                 if d.code == "SAC201"]
        assert found
        d = found[0]
        assert d.severity is Severity.ERROR
        assert d.pos is not None
        assert d.pos.filename == "overlap.sac"
        assert d.pos.line == 1

    def test_width_equal_step_clean(self):
        src = ("int[10] f() { return with ([0] <= iv < [10] step [2] "
               "width [2]) genarray([10], 1); }")
        assert "SAC201" not in codes(src)

    def test_no_step_clause_clean(self):
        src = "int[10] f() { return with ([0] <= iv < [10]) genarray([10], 1); }"
        assert codes(src) == []


class TestCoverage:
    def test_dot_bounds_cover(self):
        src = ("double[+] f(double[+] a) { return with (. <= iv <= .) "
               "genarray(shape(a), 0.0); }")
        assert codes(src) == []

    def test_lower_gap(self):
        src = "int[5] f() { return with ([2] <= iv < [5]) genarray([5], 1); }"
        found = [d for d in diags(src) if d.code == "SAC202"]
        assert found and found[0].severity is Severity.WARNING

    def test_upper_gap(self):
        src = "int[5] f() { return with ([0] <= iv < [3]) genarray([5], 1); }"
        assert "SAC202" in codes(src)

    def test_stride_gaps(self):
        src = ("int[10] f() { return with ([0] <= iv < [10] step [3] "
               "width [1]) genarray([10], 1); }")
        assert "SAC202" in codes(src)

    def test_full_cover_clean(self):
        src = "int[5] f() { return with ([0] <= iv < [5]) genarray([5], 1); }"
        assert codes(src) == []

    def test_symbolic_cover_clean(self):
        # iota-style: genarray([n]) covered by [0] <= iv < [n].
        src = ("int[.] f(int n) { return with ([0] <= iv < [n]) "
               "genarray([n], iv[[0]]); }")
        assert "SAC202" not in codes(src)

    def test_modarray_not_checked_for_coverage(self):
        # modarray copies uncovered cells from the source: partial
        # generators are the normal case (interior relaxation).
        src = ("double[5] f(double[5] a) { return with ([1] <= iv < [4]) "
               "modarray(a, 0.0); }")
        assert "SAC202" not in codes(src)


class TestRangeEscape:
    def test_upper_past_extent(self):
        src = "int[5] f() { return with ([0] <= iv <= [9]) genarray([5], 1); }"
        found = [d for d in diags(src) if d.code == "SAC203"]
        assert found and found[0].severity is Severity.ERROR

    def test_symbolic_escape(self):
        src = ("double[+] f(double[+] a) { return with (0*shape(a) <= iv "
               "<= shape(a)) modarray(a, 0.0); }")
        assert "SAC203" in codes(src)

    def test_interior_clean(self):
        src = ("double[+] f(double[+] a) { return with (0*shape(a)+1 <= iv "
               "< shape(a)-1) modarray(a, 0.0); }")
        assert codes(src) == []


class TestEmptyAndLengths:
    def test_empty_range(self):
        src = "int[5] f() { return with ([4] <= iv <= [2]) genarray([5], 0); }"
        assert "SAC204" in codes(src)

    def test_bound_length_mismatch(self):
        src = ("int[4] f() { return with ([0,0] <= iv < [4]) "
               "genarray([4], 1); }")
        found = [d for d in diags(src) if d.code == "SAC205"]
        assert found and found[0].severity is Severity.ERROR


class TestRealPrograms:
    def test_prelude_clean(self):
        from repro.sac.stdlib import PRELUDE_SOURCE

        report = analyze_source(PRELUDE_SOURCE, "<prelude>",)
        assert [d for d in report.diagnostics
                if d.code.startswith("SAC2")] == []

    def test_mg_clean(self):
        from repro.mg_sac import mg_source_path

        report = analyze_source(mg_source_path().read_text(),
                                str(mg_source_path()))
        assert report.diagnostics == []
