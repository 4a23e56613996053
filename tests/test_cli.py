import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from coxcartan import cli, make_family
from coxcartan.cli import run


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_cartan_tsv_golden():
    code, out = invoke(["cartan", "--family", "a-infinity", "--window", "0..3"])
    assert code == 0
    assert out == (
        "\t0\t1\t2\t3\n"
        "0\t1\t0\t0\t0\n"
        "1\t1\t1\t0\t0\n"
        "2\t1\t1\t1\t0\n"
        "3\t1\t1\t1\t1\n"
    )


def test_inverse_json_lines():
    code, out = invoke(
        ["inverse", "--family", "a-infinity", "--window", "0..2", "--format", "json-lines"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[1]["row"] == "1"
    assert rows[1]["entries"] == [["0", -1], ["1", 1], ["2", 0]]


def test_coxeter_window_negative_range():
    code, out = invoke(["coxeter", "--family", "d-infinity", "--window=-1..4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "1\t1\t1\t2\t1\t0\t0"


def test_apply_shift():
    code, out = invoke(
        [
            "apply",
            "--family",
            "z-a-infinity",
            "--vector",
            "1@0,2@3",
            "--direction",
            "forward",
            "--eval=-2..6",
        ]
    )
    assert code == 0
    assert out.strip() == "1@1,2@4"


def test_resolve_tsv():
    code, out = invoke(
        ["resolve", "--family", "garland-seq:1", "--vertex", "j1", "--side", "left"]
    )
    assert code == 0
    assert out.splitlines() == [
        "degree\tvertex\tmultiplicity",
        "0\tj1\t1",
        "1\tg1.1t\t1",
        "1\tg1.1b\t1",
        "2\tj0\t1",
    ]


def test_ext_table():
    code, out = invoke(
        ["ext", "--family", "garland-seq:2", "--from", "j0", "--to", "j1", "--max-degree", "4"]
    )
    assert code == 0
    assert out.splitlines() == ["m\tdim", "0\t0", "1\t0", "2\t0", "3\t1", "4\t0"]


def test_tau_and_mesh():
    code, out = invoke(["tau", "--family", "a-infinity", "--interval", "1,2"])
    assert code == 0 and out.strip() == "1@0,1@1"
    code, out = invoke(["mesh", "--family", "a-infinity", "--interval", "0,1"])
    assert code == 0
    assert out.strip() == "0 -> 1@1,1@2 -> 1@0,1@1,1@2 + 1@1 -> 1@0,1@1 -> 0"


def test_tau_of_an_injective_interval_solves_one_hom_space():
    # the Hom(C, M) certificate looks at the socle only: I[0,29] has socle
    # 29 and is E(29) itself, so one hom solve settles it
    from coxcartan import artranslate

    with mock.patch.object(artranslate, "hom_basis", wraps=artranslate.hom_basis) as hb:
        code, out = invoke(
            ["tau", "--family", "a-infinity", "--interval", "0,29", "--direction", "tau-minus"]
        )
    assert code == 0 and out == "0\n"
    assert hb.call_count <= 1


def test_tau_of_a_long_injective_interval_solves_no_dense_system():
    # I[0,300] is E(300): the certificate's Hom system has about 300 unknowns
    # and at most two nonzeros per row, and is solved by sparse elimination;
    # dense rref only sees the 1 x 1 and 1 x 2 blocks of the engine
    from coxcartan import linalg

    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as rref:
        code, out = invoke(
            ["tau", "--family", "a-infinity", "--interval", "0,300", "--direction", "tau-minus"]
        )
    assert (code, out) == (0, "0\n")
    assert max((len(call.args[0][0]) for call in rref.call_args_list if call.args[0]),
               default=0) <= 2


def test_verify_tau_copresents_each_module_once():
    from coxcartan import artranslate

    copres = artranslate.min_inj_copresentation
    transpose = artranslate._transpose_attempt
    with mock.patch.object(artranslate, "min_inj_copresentation", wraps=copres) as mc, \
            mock.patch.object(artranslate, "_transpose_attempt", wraps=transpose) as mt:
        code, out = invoke(
            ["verify", "--family", "a-infinity", "--window", "9..16", "--suite", "tau"]
        )
    assert code == 0
    assert out == "OK: translate formula holds for 36 interval modules\n"
    assert mc.call_count == 36
    assert mt.call_count == 36


def test_verify_tau_builds_one_coxeter_operator():
    # the intervals of one window share the operator and its line memos
    from coxcartan import coxeter

    with mock.patch.object(coxeter, "CoxeterOperator", wraps=coxeter.CoxeterOperator) as op:
        code, out = invoke(["verify", "--family=z-a-infinity", "--window=0..5", "--suite=tau"])
    assert (code, out) == (0, "OK: translate formula holds for 21 interval modules\n")
    assert op.call_count == 1


def test_inverse_and_coxeter_suites_read_no_matrix_entry():
    # both suites read whole windows of the two products of c^-1 with c and
    # certified lines; the inverse suite builds no Coxeter operator at all
    from coxcartan import coxeter, lazymatrix

    entry = lazymatrix.LazyIntMatrix.entry
    for family, window in (("a-infinity", "0..19"), ("d-infinity", "-1..18")):
        for suite, operators in (("inverse", 0), ("coxeter", 1)):
            with mock.patch.object(
                lazymatrix.LazyIntMatrix, "entry", autospec=True, side_effect=entry
            ) as entries, mock.patch.object(
                coxeter, "CoxeterOperator", wraps=coxeter.CoxeterOperator
            ) as op:
                code, _ = invoke(["verify", f"--family={family}", f"--window={window}",
                                  f"--suite={suite}"])
            assert (code, entries.call_count, op.call_count) == (0, 0, operators)


def test_inverse_suite_reads_no_entry_without_certified_cartan_rows():
    # z-a-infinity certifies no Cartan row, so c.c^-1 is read through the
    # certified columns of c^-1 (1,200 entry reads row by row)
    from coxcartan import lazymatrix

    entry = lazymatrix.LazyIntMatrix.entry
    with mock.patch.object(
        lazymatrix.LazyIntMatrix, "entry", autospec=True, side_effect=entry
    ) as entries:
        code, out = invoke(["verify", "--suite=inverse", "--family=z-a-infinity",
                            "--window=0..19"])
    assert (code, out) == (0, "OK: left and right inverse identities hold on window\n")
    assert entries.call_count == 0


def test_tau_names_an_infinite_transpose_kernel(capsys):
    # the flipped E1 at the fork vertex 1 is infinite and the flipped E0 at a
    # leg finite, so the kernel is infinite: no window could hold it
    for leg in ("-1", "0"):
        code, out = invoke(
            ["tau", "--family=d-infinity", f"--interval={leg},{leg}", "--direction=tau-minus"]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: transpose kernel is infinite-dimensional: the flipped E1 = E(1) "
            f"is infinite at 1 and the flipped E0 = E({leg}) finite\n"
        )


def test_tau_has_no_margin_flag():
    # a margin of 0 used to print 0 for this translate; the windows are exact now
    argv = ["tau", "--family=a-infinity", "--interval=5,8", "--direction=tau-minus"]
    assert invoke(argv + ["--margin=0"]) == (2, "")
    assert invoke(argv) == (0, "1@4,1@5,1@6,1@7\n")


def test_internal_errors_exit_three(capsys):
    def broken(exc):
        def command(args, out):
            raise exc
        return command

    argv = ["cartan", "--family=a-infinity", "--window=0..2"]
    for exc, line in (
        (RecursionError("maximum recursion depth exceeded"),
         "internal error: RecursionError: maximum recursion depth exceeded\n"),
        (AssertionError("kernel not arrow-stable"),
         "internal error: AssertionError: kernel not arrow-stable\n"),
    ):
        with mock.patch.dict(cli._COMMANDS, {"cartan": broken(exc)}):
            assert invoke(argv) == (3, "")
        assert capsys.readouterr().err == line


def test_knit_text_and_determinism():
    argv = ["knit", "--family", "a-infinity", "--steps", "3", "--section", "0..4"]
    out1 = invoke(argv)
    out2 = invoke(argv)
    assert out1 == out2
    assert out1[0] == 0
    assert "tau n0 n5" in out1[1]


def test_knit_names_the_edge_of_its_seed_section(capsys):
    # E(3) is meshed while its arc 3 -> 4 leaves the section, so its mesh
    # lacks E(4): that is the edge of the section, not a Coxeter mismatch
    code, out = invoke(
        ["knit", "--family=d-infinity", "--section=-1..3", "--steps=5"]
    )
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: mesh at n4: knitting reached the edge of its seed section at "
        "E(3), whose arc 3 -> 4 leaves it; widen --section\n"
    )
    code, _ = invoke(["knit", "--family=d-infinity", "--section=-1..4", "--steps=5"])
    assert code == 0
    # verify takes its section from --window, and says so
    code, out = invoke(["verify", "--suite=tau", "--family=d-infinity", "--window=0..5"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: mesh at n1: knitting reached the edge of its seed section at "
        "E(1), whose arc 1 -> -1 leaves it; widen --window\n"
    )


def test_knit_dot():
    code, out = invoke(
        ["knit", "--family", "a-infinity", "--steps", "2", "--section", "0..3",
         "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph") and "style=dashed" in out


def test_verify_suites_ok(tmp_path):
    # Phi(e_3) on the chain 0 -> 1 -> 2 -> 3 is minus every simple, so the
    # coxeter round trip needs all of it, not two steps around the window
    chain = tmp_path / "chain.quiver"
    chain.write_text("kind quiver\narrow 0 1\narrow 1 2\narrow 2 3\n")
    checks = [
        ["verify", "--file", str(chain), "--window=3..3", "--suite", "coxeter"],
        ["verify", "--family", "a-infinity", "--window", "0..7", "--suite", "inverse"],
        ["verify", "--family", "d-infinity", "--window=-1..4", "--suite", "inverse"],
        ["verify", "--family", "z-a-infinity", "--window=-3..3", "--suite", "coxeter"],
        ["verify", "--family", "a-infinity", "--window", "0..5", "--suite", "tau"],
        ["verify", "--family", "d-infinity", "--window=-1..4", "--suite", "tau"],
        ["verify", "--family", "a-infinity", "--window", "0..4", "--suite", "euler"],
        ["verify", "--family", "garland-seq:1,2", "--window",
         "j0,g1.1t,g1.1b,j1,g2.1t,g2.1b,g2.2t,g2.2b,j2", "--suite", "mobius"],
    ]
    for argv in checks:
        code, out = invoke(argv)
        assert code == 0, (argv, out)
        assert out.startswith("OK:"), (argv, out)


def test_verify_failure_exit_one():
    # exit 1 is a counterexample: here a Mobius oracle broken on purpose
    with mock.patch.object(cli.resolutions, "mobius", lambda pres, lo, hi: 7):
        code, out = invoke(["verify", "--family=garland-seq:1", "--window=j0,j1", "--suite=mobius"])
    assert code == 1
    assert out == "FAIL: cross-oracle at (j0,j0): resolution 1, mobius 7, complex 1\n"


def test_wrong_kind_of_presentation_exits_two(capsys):
    cases = [
        (["verify", "--suite=tau", "--family=garland-seq:2", "--window=j0,j1"],
         "tau suite needs a path presentation"),
        (["verify", "--suite=mobius", "--family=a-infinity", "--window=0..3"],
         "mobius suite needs an incidence presentation"),
        (["tau", "--family=garland-seq:2", "--interval=j0,j1"],
         "interval modules need a path presentation on integer vertices"),
        (["mesh", "--family=garland-seq:2", "--interval=j0,j1"],
         "interval modules need a path presentation on integer vertices"),
        (["tau", "--family=garland-seq:2", "--interval=0,1"],
         "interval modules need a path presentation on integer vertices"),
        (["tau", "--family=a-infinity", "--interval=x,3"],
         "interval modules need a path presentation on integer vertices"),
    ]
    for argv, message in cases:
        assert invoke(argv) == (2, ""), argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_input_error_exit_two():
    code, _ = invoke(["cartan", "--family", "a-infinity", "--window", "abc..def"])
    assert code == 2
    code, _ = invoke(["cartan", "--family", "no-such-family", "--window", "0..2"])
    assert code == 2
    code, _ = invoke(["cartan", "--window", "0..2"])
    assert code == 2


def test_cartan_on_a_long_file_chain(tmp_path):
    chain = tmp_path / "chain.quiver"
    chain.write_text("kind quiver\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1500)))
    code, out = invoke(["cartan", f"--file={chain}", "--window=0,1500"])
    assert code == 0
    assert out.splitlines()[2].split("\t") == ["1500", "1", "1"]


def test_cartan_on_a_wide_family_window():
    # a path count on a-infinity is 0 or 1 in closed form, with no budget
    code, out = invoke(["cartan", "--family=a-infinity", "--window=0,250000"])
    assert code == 0
    assert out == "\t0\t250000\n0\t1\t0\n250000\t1\t1\n"


def test_mobius_suite_names_the_chain_budget(tmp_path, capsys, monkeypatch):
    # the open interval (0, 1400) of a chain has 2^1399 - 1 chains
    monkeypatch.delenv("COX_NODE_BUDGET", raising=False)
    for order in (range(1500), range(1499, -1, -1)):
        chain = tmp_path / "chain.poset"
        chain.write_text(
            "kind poset\n"
            + "".join(f"vertex {i}\n" for i in order)
            + "".join(f"cover {i} {i + 1}\n" for i in range(1499))
        )
        code, out = invoke(["verify", "--suite=mobius", f"--file={chain}", "--window=0,1400"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: chains of an order complex on 1399 elements "
            "exceeded COX_NODE_BUDGET 200000\n"
        )


def test_classify_output():
    code, out = invoke(["classify", "--family", "z-a-infinity", "--window=-1..1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "row-finite\tno"
    assert lines[1] == "col-finite\tno"


def test_file_input(tmp_path):
    p = tmp_path / "kron.quiver"
    p.write_text("kind quiver\narrow 0 1\narrow 0 1\n")
    code, out = invoke(["cartan", "--file", str(p), "--window", "0..1"])
    assert code == 0
    assert out.splitlines()[2] == "1\t2\t1"


def test_a_query_frees_its_presentation_without_the_cycle_collector(monkeypatch):
    # memos live on the presentation and views are rebuilt on demand, so
    # nothing points back at a presentation once its query returns
    refs, load = [], cli.presentations.parse_family_flag

    def tracked(text):
        pres = load(text)
        refs.append(weakref.ref(pres))
        return pres

    monkeypatch.setattr(cli.presentations, "parse_family_flag", tracked)
    gc.disable()
    try:
        for argv in (
            ["verify", "--suite=euler", "--family=garland:2", "--window=0..1"],
            ["tau", "--family=a-infinity", "--interval=1,3", "--direction=tau"],
        ):
            code, out = invoke(argv)
            assert code == 0 and out, argv
            assert refs[-1]() is None, argv
    finally:
        gc.enable()


def test_one_parser_serves_every_call():
    calls = [
        ["cartan", "--family", "a-infinity", "--bogus"],
        ["cartan", "--family", "a-infinity", "--window", "0..3"],
        ["inverse", "--family=garland:1", "--window=0..1", "--format", "json-lines"],
        ["ext", "--family=garland:2"],
        ["resolve", "--family=garland:1", "--vertex=j1"],
    ]
    reused = [invoke(argv) for argv in calls]
    with mock.patch.object(cli, "_parser", cli.build_parser):
        fresh = [invoke(argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _ in reused] == [2, 0, 0, 2, 0]
    assert cli._parser() is cli._parser()


def test_importing_the_cli_builds_no_parser():
    code = "import coxcartan.cli as c; print(c._parser.cache_info().currsize)"
    # the child imports the package this test imported, however it was found
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "0"


@st.composite
def translate_argvs(draw):
    """argv for tau, mesh, knit or verify --suite=tau|mobius|euler|inverse|coxeter,
    on a path family or a small random acyclic --file quiver (given as its
    text)."""
    command = draw(st.sampled_from(["tau", "mesh", "knit", "verify"]))
    if draw(st.booleans()):
        family = draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"]))
        source, text = [f"--family={family}"], None
    else:
        n = draw(st.integers(1, 5))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=7))
        lines = ["kind quiver"] + [f"vertex {i}" for i in range(n)]
        lines += [f"arrow {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
        source, text = [], "\n".join(lines) + "\n"
    lo = draw(st.integers(-3, 5))
    hi = lo + draw(st.integers(-1, 5))
    if command == "tau":
        rest = [f"--interval={lo},{hi}",
                f"--direction={draw(st.sampled_from(['tau', 'tau-minus']))}"]
    elif command == "mesh":
        rest = [f"--interval={lo},{hi}",
                f"--direction={draw(st.sampled_from(['ending-at', 'starting-from']))}"]
    elif command == "knit":
        seed = draw(st.sampled_from(["--section", "--seed-column"]))
        rest = [f"--steps={draw(st.integers(0, 6))}", f"{seed}={lo}..{hi}"]
    else:
        suite = draw(st.sampled_from(["tau", "mobius", "euler", "inverse", "coxeter"]))
        rest = [f"--suite={suite}", f"--window={lo}..{hi}"]
    return [command, *source, *rest], text


@settings(max_examples=80, deadline=None)
@given(translate_argvs())
@example((["verify", "--family=d-infinity", "--suite=coxeter", "--window=-1..3"], None))
@example((["verify", "--suite=inverse", "--window=0..2"], "kind quiver\nvertex 0\narrow 0 1\narrow 0 1\n"))
def test_translate_commands_exit_with_a_documented_code(case):
    argv, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "q.quiver")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [*argv, f"--file={path}"]
        with contextlib.redirect_stderr(err):
            code, out = invoke(argv)
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), argv
    # exit 1 only with a counterexample; a quiver is the wrong kind for mobius
    assert (code == 1) == out.startswith("FAIL:"), (argv, out)
    if "--suite=mobius" in argv:
        assert (code, out) == (2, ""), argv
    if "--suite=inverse" in argv or "--suite=coxeter" in argv:
        # the identities hold on every path presentation
        if code == 0:
            assert out.startswith("OK:") and err.getvalue() == "", (argv, out, err.getvalue())
        else:
            assert code == 2 and out == "", (argv, code, out)
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


@st.composite
def matrix_argvs(draw):
    """argv for cartan, inverse, coxeter (tsv or json-lines), apply or
    classify on a path family or a small random --file quiver or poset
    (given as its text)."""
    command = draw(st.sampled_from(["cartan", "inverse", "coxeter", "apply", "classify"]))
    source = draw(st.sampled_from(["family", "quiver", "poset"]))
    if source == "family":
        family = draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"]))
        args, text = [f"--family={family}"], None
    else:
        n = draw(st.integers(1, 6))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
        word = "arrow" if source == "quiver" else "cover"
        lines = [f"kind {source}"] + [f"vertex {i}" for i in range(n)]
        lines += [f"{word} {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
        args, text = [], "\n".join(lines) + "\n"
    lo = draw(st.integers(-3, 5))
    window = f"{lo}..{lo + draw(st.integers(-1, 6))}"
    if command == "apply":
        terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 6)), min_size=1, max_size=3))
        args += ["--vector=" + ",".join(f"{c}@{v}" for c, v in terms), f"--eval={window}"]
    else:
        args.append(f"--window={window}")
    if command in ("coxeter", "apply"):
        args.append(f"--direction={draw(st.sampled_from(['forward', 'inverse']))}")
    if command in ("cartan", "inverse", "coxeter") and draw(st.booleans()):
        args.append("--format=json-lines")
    return [command, *args], text


@settings(max_examples=80, deadline=None)
@given(matrix_argvs())
@example((["apply", "--family=z-a-infinity", "--vector=1@0", "--eval=0..2"], None))
@example((["coxeter", "--window=0..2"], "kind poset\nvertex 0\ncover 0 1\n"))
def test_matrix_commands_exit_zero_or_name_the_input_error(case):
    # no counterexample can come from these commands: exit 0, or exit 2 with
    # one error line, and never an internal error
    argv, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "p.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [*argv, f"--file={path}"]
        with contextlib.redirect_stderr(err):
            code, out = invoke(argv)
        if "--format=json-lines" in argv:
            with contextlib.redirect_stderr(io.StringIO()):
                tsv = invoke([a for a in argv if a != "--format=json-lines"])
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out == "" and err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    else:
        assert out and err.getvalue() == "", (argv, err.getvalue())
    if "--format=json-lines" in argv:
        # the same window as the tsv of the same argv, row for row
        assert tsv[0] == code
        if code == 0:
            header, *lines = tsv[1].splitlines()
            grid = [line.split("\t") for line in lines]
            rows = [json.loads(line) for line in out.splitlines()]
            assert [r["row"] for r in rows] == [g[0] for g in grid]
            for r, g in zip(rows, grid):
                assert [e[0] for e in r["entries"]] == header.split("\t")[1:]
                assert [str(e[1]) for e in r["entries"]] == g[1:]


@st.composite
def incidence_argvs(draw):
    """argv for verify --suite=mobius|euler|inverse|coxeter|tau, resolve, ext
    or inverse on a random --file poset of at most 7 elements (given as its
    text), on garland-seq with block lengths 1-9, or on a one-block window of
    garland:1..4.  The mobius suite ranks the order complex of each interval,
    whose chains grow fast with the block lengths, so on garland-seq it gets
    one block."""
    command = draw(st.sampled_from(["verify", "resolve", "ext", "inverse"]))
    suite = draw(st.sampled_from(["mobius", "euler", "inverse", "coxeter", "tau"]))
    text, window = None, None
    source = draw(st.sampled_from(["file", "garland-seq", "garland"]))
    if source == "file":
        n = draw(st.integers(1, 7))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
        lines = ["kind poset"] + [f"vertex {i}" for i in range(n)]
        lines += [f"cover {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
        text, args, names = "\n".join(lines) + "\n", [], [str(i) for i in range(n)]
    elif source == "garland-seq":
        one_block = command == "verify" and suite == "mobius"
        lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=1 if one_block else 3))
        args = ["--family=garland-seq:" + ",".join(map(str, lengths))]
        pres = make_family("garland-seq", lengths)
        names = [pres.display(v) for v in pres.vertices()]
    else:
        length, lo = draw(st.integers(1, 4)), draw(st.integers(-3, 3))
        args, window = [f"--family=garland:{length}"], f"{lo}..{lo + 1}"
        pres = make_family("garland", length)
        names = [pres.display(v) for v in pres.window(window)]
    if window is None:
        window = ",".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)))
    if command == "verify":
        args += [f"--suite={suite}", f"--window={window}"]
    elif command == "resolve":
        args += [f"--vertex={draw(st.sampled_from(names))}",
                 f"--side={draw(st.sampled_from(['left', 'right']))}"]
    elif command == "ext":
        args += [f"--from={draw(st.sampled_from(names))}", f"--to={draw(st.sampled_from(names))}",
                 f"--max-degree={draw(st.integers(0, 12))}"]
    else:
        args += [f"--window={window}"]
    return [command, *args], text


@settings(max_examples=40, deadline=None)
@given(incidence_argvs())
@example((["verify", "--suite=mobius", "--family=garland-seq:6", "--window=j0,j1"], None))
@example((["verify", "--suite=mobius", "--family=garland-seq:7", "--window=j0,j1"], None))
@example((["verify", "--suite=mobius", "--family=garland:4", "--window=-1..1"], None))
@example((["verify", "--suite=euler", "--family=garland-seq:8", "--window=j0,j1"], None))
@example((["verify", "--suite=euler", "--family=garland-seq:9", "--window=j0,j1"], None))
@example((["verify", "--suite=coxeter", "--family=garland:3", "--window=0..1"], None))
@example((["inverse", "--family=garland:16", "--window=0..1"], None))
@example((["resolve", "--family=garland:16", "--vertex=j1"], None))
def test_incidence_commands_give_no_false_counterexamples(case):
    # every resolution ends, so on a poset no suite may fail and no command
    # may stop short
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "p.poset")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [*argv, f"--file={path}"]
        code, out = invoke(argv)
    if "--suite=tau" in argv:
        # a poset is the wrong kind of presentation for the tau suite
        assert (code, out) == (2, ""), argv
        return
    assert code == 0, (argv, out)
    if argv[0] == "verify":
        assert out.startswith("OK:"), (argv, out)


def test_long_garland_resolution_runs_to_its_end():
    # Ext^17 between the simples at j0 and j1 of garland:16 is nonzero
    code, out = invoke(["resolve", "--family=garland:16", "--vertex=j1"])
    assert code == 0
    assert out.splitlines()[-1] == "17\tj0\t1"
    code, out = invoke(["inverse", "--family=garland:16", "--window=0..1"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[-1][0] == "j1" and rows[0][1] == "j0"
    assert rows[-1][1] == "-1"


def test_resolve_and_verify_take_no_degree_cap():
    for argv in (
        ["resolve", "--family=garland:1", "--vertex=j1", "--max-degree=3"],
        ["verify", "--family=garland:1", "--window=0..1", "--suite=euler", "--max-degree=3"],
    ):
        assert invoke(argv) == (2, "")


# a valid argv for every command, and the formats each one reads
COMMAND_ARGVS = {
    "cartan": ["--family=a-infinity", "--window=0..2"],
    "inverse": ["--family=a-infinity", "--window=0..2"],
    "coxeter": ["--family=a-infinity", "--window=0..2"],
    "apply": ["--family=a-infinity", "--vector=1@0", "--eval=0..2"],
    "resolve": ["--family=a-infinity", "--vertex=1"],
    "ext": ["--family=a-infinity", "--from=0", "--to=1"],
    "tau": ["--family=a-infinity", "--interval=1,2"],
    "mesh": ["--family=a-infinity", "--interval=1,2"],
    "knit": ["--family=a-infinity", "--steps=2", "--section=0..3"],
    "verify": ["--family=a-infinity", "--window=0..2", "--suite=inverse"],
    "classify": ["--family=a-infinity", "--window=0..2"],
}
FORMATS = {"cartan": {"tsv", "json-lines"}, "inverse": {"tsv", "json-lines"},
           "coxeter": {"tsv", "json-lines"}, "knit": {"tsv", "dot"}}


def test_only_the_commands_that_read_format_take_it():
    assert set(COMMAND_ARGVS) == set(cli._COMMANDS)
    for command, args in COMMAND_ARGVS.items():
        code, plain = invoke([command, *args])
        assert code == 0, command
        for fmt in ("tsv", "dot", "json-lines"):
            with contextlib.redirect_stderr(io.StringIO()):
                code, out = invoke([command, *args, f"--format={fmt}"])
            if fmt in FORMATS.get(command, ()):
                assert code == 0 and (out == plain) == (fmt == "tsv"), (command, fmt)
            else:
                assert (code, out) == (2, ""), (command, fmt)


def test_far_windows_cost_what_the_window_holds():
    # a window reads its cells, not the Cartan rows that cross it: row
    # 1000000 of c on a-infinity has a million entries
    far = ["--family=a-infinity", "--window=1000000..1000010"]
    argvs = [["cartan", *far], ["inverse", *far],
             ["coxeter", *far, "--direction=forward"], ["coxeter", *far, "--direction=inverse"]]
    for argv in argvs:
        tracemalloc.start()
        try:
            code, out = invoke(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(out.splitlines()) == 12, argv
        assert peak < 5 * 2**20, (argv, peak)


def test_far_windows_cost_what_the_window_holds_on_every_path_family():
    for family in ("d-infinity", "z-a-infinity"):
        far = [f"--family={family}", "--window=1000000..1000010"]
        argvs = [["cartan", *far], ["inverse", *far],
                 ["coxeter", *far, "--direction=forward"],
                 ["coxeter", *far, "--direction=inverse"]]
        for argv in argvs:
            tracemalloc.start()
            try:
                code, out = invoke(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and len(out.splitlines()) == 12, argv
            assert peak < 5 * 2**20, (argv, peak)


def test_cartan_and_inverse_windows_call_no_entry_rule():
    # each window row is one bulk read of its line: path counts compared in
    # place, the inverse row read off its certified local row
    from coxcartan.lazymatrix import LazyIntMatrix

    expect = {"cartan": "1\t1\t1\t0", "inverse": "0\t-1\t1\t0"}
    for command, row in expect.items():
        with mock.patch.object(LazyIntMatrix, "entry", autospec=True,
                               side_effect=LazyIntMatrix.entry) as entry:
            code, out = invoke([command, "--family=a-infinity", "--window=0..40"])
        assert code == 0 and out.splitlines()[3].endswith(row + "\t0" * 37), command
        assert entry.call_count == 0, command


def test_far_apply_reads_no_cartan_row():
    # the support of x.c is read only when asked for, and `apply` asks for
    # coordinates: no row of c (here 100,001 entries long) is built
    for direction, expect in (("forward", "1@100001\n"), ("inverse", "0\n")):
        argv = ["apply", "--family=a-infinity", "--vector=1@100000",
                f"--direction={direction}", "--eval=100000..100003"]
        tracemalloc.start()
        try:
            code, out = invoke(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, expect)
        assert peak < 5 * 2**20, (direction, peak)


def translate_corpus():
    """tau both ways, verify tau and mesh on the three path families, with
    the refusals among them: intervals that leave the family or cross the
    fork of d-infinity, meshes off the linear chains, windows whose
    knitting reaches the edge of its section, malformed intervals."""
    starts = {"a-infinity": 0, "z-a-infinity": -3, "d-infinity": -1}
    for fam, s in starts.items():
        for direction in ("tau", "tau-minus"):
            for lo in range(s, s + 7):
                for hi in [*range(lo - 1, lo + 6), lo + 12, lo + 30]:
                    yield ["tau", f"--family={fam}", f"--interval={lo},{hi}",
                           f"--direction={direction}"]
        for lo in (s, s + 2, 5):
            for n in (1, 3, 6):
                yield ["verify", f"--family={fam}", f"--window={lo}..{lo + n - 1}", "--suite=tau"]
        for direction in ("ending-at", "starting-from"):
            for lo, hi in ((0, 0), (1, 3), (2, 2), (-1, 1), (3, 20)):
                yield ["mesh", f"--family={fam}", f"--interval={lo},{hi}",
                       f"--direction={direction}"]
    yield ["tau", "--family=garland:2", "--interval=1,2"]
    yield ["verify", "--family=garland:1", "--window=0..1", "--suite=tau"]
    yield ["tau", "--family=a-infinity", "--interval=x,2"]
    yield ["tau", "--family=a-infinity", "--interval=1"]


def test_translate_corpus_output_is_unchanged():
    # one digest over argv, exit code, stdout and stderr of every command,
    # recorded when the three families still ran the path-basis engine;
    # re-recorded when verify's edge-of-section line came to name --window
    digest = hashlib.sha256()
    count = 0
    for argv in translate_corpus():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(argv)
        digest.update(json.dumps([argv, code, out, err.getvalue()]).encode())
        count += 1
    assert count == 439
    assert digest.hexdigest() == (
        "b0704c5c5c4c2a74fdb2d6c235889ef6eb282220121bfbe533207e1d13eaf9f2"
    )


PATH_FAMILY_TRANSLATES = [
    (["tau", "--family=a-infinity", "--interval=2,5", "--direction=tau"], 0, "1@3,1@4,1@5,1@6\n"),
    (["tau", "--family=a-infinity", "--interval=2,5", "--direction=tau-minus"], 0,
     "1@1,1@2,1@3,1@4\n"),
    (["tau", "--family=a-infinity", "--interval=0,3", "--direction=tau-minus"], 0, "0\n"),
    (["tau", "--family=z-a-infinity", "--interval=-3,1", "--direction=tau"], 0,
     "1@-2,1@-1,1@0,1@1,1@2\n"),
    (["tau", "--family=z-a-infinity", "--interval=-3,1", "--direction=tau-minus"], 0,
     "1@-4,1@-3,1@-2,1@-1,1@0\n"),
    (["tau", "--family=d-infinity", "--interval=2,4", "--direction=tau"], 0, "1@3,1@4,1@5\n"),
    (["tau", "--family=d-infinity", "--interval=2,4", "--direction=tau-minus"], 0,
     "1@-1,1@0,1@1,1@2,1@3\n"),
    (["tau", "--family=d-infinity", "--interval=1,1", "--direction=tau"], 0,
     "1@-1,1@0,2@1,1@2\n"),
    (["tau", "--family=d-infinity", "--interval=-1,-1", "--direction=tau-minus"], 2, ""),
    (["verify", "--family=a-infinity", "--window=0..6", "--suite=tau"], 0,
     "OK: translate formula holds for 21 interval modules\n"),
    (["verify", "--family=z-a-infinity", "--window=-3..2", "--suite=tau"], 0,
     "OK: translate formula holds for 21 interval modules\n"),
    (["verify", "--family=d-infinity", "--window=-1..6", "--suite=tau"], 0,
     "OK: knitting completed 4 coherent meshes\n"),
    (["mesh", "--family=a-infinity", "--interval=1,3", "--direction=ending-at"], 0,
     "0 -> 1@2,1@3,1@4 -> 1@1,1@2,1@3,1@4 + 1@2,1@3 -> 1@1,1@2,1@3 -> 0\n"),
    (["mesh", "--family=z-a-infinity", "--interval=-2,2", "--direction=starting-from"], 0,
     "0 -> 1@-2,1@-1,1@0,1@1,1@2 -> 1@-3,1@-2,1@-1,1@0,1@1,1@2 + 1@-2,1@-1,1@0,1@1 "
     "-> 1@-3,1@-2,1@-1,1@0,1@1 -> 0\n"),
]


def test_path_family_translates_build_no_path_basis_injective(capsys):
    # copresentations, certificates and transpose kernels run on labels:
    # no query enumerates a path, multiplies matrices or solves a system
    from coxcartan import comodules, linalg

    def refuse(*args, **kwargs):
        raise AssertionError("path tuples or dense products used")

    with contextlib.ExitStack() as stack:
        for owner, name in [
            (comodules, "enumerate_paths"), (linalg, "mat_mul"), (linalg, "solve_matrix"),
        ]:
            stack.enter_context(mock.patch.object(owner, name, refuse))
        for argv, code, out in PATH_FAMILY_TRANSLATES:
            assert invoke(argv) == (code, out), argv
    assert capsys.readouterr().err == (
        "error: transpose kernel is infinite-dimensional: the flipped E1 = E(1) is "
        "infinite at 1 and the flipped E0 = E(-1) finite\n"
    )


def test_far_translates_cost_what_the_near_ones_cost():
    # tau and tau-minus of I[n, n+5] on the tree families: neither the
    # E(k) fit test nor the infinite-kernel refusal builds an ancestor set,
    # so n = 10**6 peaks within a small factor of n = 10
    def traced(argv):
        tracemalloc.start()
        try:
            code, out = invoke(argv)
            return code, out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for family in ("a-infinity", "d-infinity"):
        for direction, shift in (("tau", 1), ("tau-minus", -1)):
            peaks = []
            for n in (10, 10**6):
                argv = ["tau", f"--family={family}", f"--interval={n},{n + 5}",
                        f"--direction={direction}"]
                code, out, peak = traced(argv)
                shifted = ",".join(f"1@{v + shift}" for v in range(n, n + 6))
                assert (code, out) == (0, shifted + "\n"), argv
                peaks.append(peak)
            assert peaks[1] < 3 * peaks[0] + 2**16, (family, direction, peaks)
