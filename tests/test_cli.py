import csv
import random
import time

import pytest

from wordeq import cli
from wordeq.cli import main
from wordeq.core import Equation
from wordeq.parse import serialize_system
from generators import gen_instance

E = Equation

FIG3B = "A x y = x y A\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_sat(tmp_path, capsys):
    path = write(tmp_path, "fig3b.eq", FIG3B)
    code = main(["solve", path, "--scheme", "count"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "SAT"
    assert out[1].startswith("nodes=") and "time_ms=" in out[1]
    assert out[2:] == ["x ->", "y ->"]


def test_solve_unsat(tmp_path, capsys):
    path = write(tmp_path, "hard.eq", "A B x x y y = x x y y B A\n")
    code = main(["solve", path, "--scheme", "split"])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[0] == "UNSAT"


def test_solve_unknown_on_budget(tmp_path, capsys):
    path = write(tmp_path, "inf.eq", "x x A y B z = A x x z y\n")
    code = main(["solve", path, "--scheme", "base", "--max-nodes", "1000"])
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "UNKNOWN"
    assert out[1].endswith(" reason=max_nodes")


def test_usage_errors_exit_3(tmp_path, capsys):
    path = write(tmp_path, "fig3b.eq", FIG3B)
    for argv in (["solve", path, "--scheme", "bogus"], ["solve", path, "--max-nodes", "ten"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error" in capsys.readouterr().err


def test_solve_timeout(tmp_path, capsys):
    # a label-growth probe that runs for hours at the default node budget
    path = write(tmp_path, "grow.eq", "y y x A z B = x z B z x\n")
    started = time.monotonic()
    code = main(["solve", path, "--timeout-ms", "50"])
    assert time.monotonic() - started < 5
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "UNKNOWN"
    assert out[1].endswith(" reason=timeout")


def test_negative_timeout_exits_3(tmp_path, capsys):
    path = write(tmp_path, "fig3b.eq", FIG3B)
    for command in ("solve", "enumerate", "dot"):
        for timeout in ("-1", "nan"):
            assert main([command, path, "--timeout-ms", timeout]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "timeout must not be negative" in captured.err


def test_enumerate_and_dot_take_a_timeout(tmp_path, capsys):
    path = write(tmp_path, "fig3b.eq", FIG3B)
    assert main(["enumerate", path, "--timeout-ms", "10000"]) == 0
    assert "x=, y=" in capsys.readouterr().out.splitlines()
    assert main(["dot", path, "--timeout-ms", "10000"]) == 0
    assert capsys.readouterr().out.startswith("digraph solution_graph {")


def test_solve_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.eq", "x $ = y\n")
    code = main(["solve", path])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in captured.err


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/x.eq"]) == 3


def test_enumerate(tmp_path, capsys):
    path = write(tmp_path, "fig3b.eq", FIG3B)
    code = main(["enumerate", path, "--max-len", "1", "--max-path", "8"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    # oracle truth at value bound 1: every pair of A-powers, including (A, A)
    assert out == ["x=, y=", "x=, y=A", "x=A, y=", "x=A, y=A"]
    # the shortest-path slice keeps only the single-letter assignments
    main(["enumerate", path, "--max-len", "1", "--max-path", "4"])
    assert capsys.readouterr().out.splitlines() == ["x=, y=", "x=, y=A", "x=A, y="]


def test_enumerate_negative_bound(tmp_path, capsys, monkeypatch):
    # the bounds are checked before the graph is built
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "_build", no_build)
    path = write(tmp_path, "triptych.eq", "x x A y B z = A x x z y\n")
    for flag in ("--max-len", "--max-path"):
        code = main(["enumerate", path, "--scheme", "base", flag, "-1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "error: enumeration bounds must not be negative" in captured.err


def test_enumerate_refuses_too_many_ground_words(tmp_path, capsys):
    # x y = y x at length 30 would list 2^31 - 1 words for a residual variable,
    # and over A at length 100000 about 5 * 10^9 letters; x y z = z y x at
    # length 12 reaches a leaf whose two residual variables would each take
    # 8191 words
    for text, max_len, alphabet, message in (
            ("x y = y x\n", "30", "AB", "letters in the ground words up to length 30"),
            ("x y = y x\n", "100000", "A", "letters in the ground words up to length 100000"),
            ("x y z = z y x\n", "12", "AB", "ground instances of a solution")):
        path = write(tmp_path, "big.eq", text)
        assert main(["enumerate", path, "--max-len", max_len, "--alphabet", alphabet]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: more than {cli.MAX_GROUND_WORDS} {message}" in captured.err
        assert "Traceback" not in captured.err


def test_enumerate_unsat(tmp_path, capsys):
    path = write(tmp_path, "unsat.eq", "x x A y B z = A x x z y\n")
    code = main(["enumerate", path, "--scheme", "count"])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_enumerate_with_alphabet(tmp_path, capsys):
    path = write(tmp_path, "comm.eq", "x y = y x\n")
    code = main(["enumerate", path, "--scheme", "base", "--max-len", "1",
                 "--max-path", "12", "--alphabet", "AB"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 7


def test_alphabet_must_be_letters(tmp_path, capsys, monkeypatch):
    # enumerate checks the alphabet before the graph is built
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "_build", no_build)
    path = write(tmp_path, "comm.eq", "x y = y x\n")
    for command in ("enumerate", "oracle"):
        for alphabet in ("ab", "A-"):
            code = main([command, path, "--max-len", "1", "--alphabet", alphabet])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert "is not a letter A-Z" in captured.err


def test_verify(tmp_path, capsys):
    eq = write(tmp_path, "fig3b.eq", FIG3B)
    good = write(tmp_path, "good.nar", "x ->\ny ->\n")
    bad = write(tmp_path, "bad.nar", "y -> x y\n")
    empty = write(tmp_path, "empty.nar", "")
    assert main(["verify", eq, good, "--scheme", "base"]) == 0
    assert capsys.readouterr().out.strip() == "T"
    assert main(["verify", eq, bad, "--scheme", "base"]) == 1
    assert capsys.readouterr().out.strip() == "F"
    assert main(["verify", eq, empty, "--scheme", "base"]) == 1


def test_verify_rejects_non_ascii_terms(tmp_path, capsys):
    eq = write(tmp_path, "comm.eq", "x A = A x\n")
    for text in ("x -> Ä x\n", "é -> A é\n"):
        nar = write(tmp_path, "bad.nar", text)
        assert main(["verify", eq, nar]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1" in captured.err


def test_dot(tmp_path, capsys):
    eq = write(tmp_path, "fig3b.eq", FIG3B)
    out_file = tmp_path / "g.dot"
    assert main(["dot", eq, "--scheme", "base", "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("digraph solution_graph {")
    assert text.count("style=dashed") == 2

    assert main(["dot", eq, "--scheme", "base"]) == 0
    assert capsys.readouterr().out == text


def test_oracle_command(tmp_path, capsys):
    eq = write(tmp_path, "comm.eq", "x y = y x\n")
    assert main(["oracle", eq, "--max-len", "1", "--alphabet", "A"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x=, y=", "x=, y=A", "x=A, y=", "x=A, y=A"]


def test_oracle_rejects_negative_bound(tmp_path, capsys):
    eq = write(tmp_path, "comm.eq", "x y = y x\n")
    assert main(["oracle", eq, "--max-len", "-1", "--alphabet", "A"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must not be negative" in captured.err


def test_oracle_caps_its_work(tmp_path, capsys, monkeypatch):
    # 255 ground words over AB up to length 7, so 255**3 (16.6 M) assignments
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the oracle enumerated")

    monkeypatch.setattr(cli.oraclemod, "brute_solutions", no_enumeration)
    eq = write(tmp_path, "rev.eq", "x y z A = A z y x\n")
    assert main(["oracle", eq, "--max-len", "7", "--alphabet", "AB"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than {cli.MAX_GROUND_WORDS} assignments" in captured.err
    # over one letter the words are few but long: refused before they are listed
    eq = write(tmp_path, "comm.eq", "x y = y x\n")
    assert main(["oracle", eq, "--max-len", "1000000000", "--alphabet", "A"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than {cli.MAX_GROUND_WORDS} letters" in captured.err
    assert "Traceback" not in captured.err


def test_bench(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    (d / "sat.eq").write_text(FIG3B)
    (d / "unsat.eq").write_text("A B x x y y = x x y y B A\n")
    (d / "broken.eq").write_text("x $ = y\n")
    out_csv = tmp_path / "results.csv"
    code = main(["bench", str(d), "--scheme", "count", "--csv", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [r["file"] for r in rows] == ["broken.eq", "sat.eq", "unsat.eq"]
    by_name = {r["file"]: r["result"] for r in rows}
    assert by_name == {"sat.eq": "SAT", "unsat.eq": "UNSAT", "broken.eq": "ERROR"}


def test_bench_budget_maps_to_unknown(tmp_path):
    d = tmp_path / "suite"
    d.mkdir()
    (d / "inf.eq").write_text("x x A y B z = A x x z y\n")
    out_csv = tmp_path / "results.csv"
    code = main(["bench", str(d), "--scheme", "base", "--max-nodes", "500",
                 "--csv", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert rows[0]["result"] == "UNKNOWN"


def test_bench_bad_build_flag_exits_3(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    (d / "a.eq").write_text(FIG3B)
    for flags, message in ((["--timeout-ms", "-1"], "timeout must not be negative"),
                           (["--timeout-ms", "nan"], "timeout must not be negative"),
                           (["--max-nodes", "0"], "budget limits must be positive")):
        assert main(["bench", str(d), *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def _family_pattern_shuffled(rng):
    base = gen_instance("sro_rep", rng.randrange(10**6), n_vars=3, length=10)[0]
    variables = [c for c in base.rhs if c.islower()]
    rng.shuffle(variables)
    it = iter(variables)
    rhs = "".join(next(it) if c.islower() else c for c in base.rhs)
    return [Equation(base.lhs, rhs)]


def _family_rotating_var(rng):
    body = gen_instance("sro_rep", rng.randrange(10**6), n_vars=2, length=8)[0]
    phi = "".join(c for c in body.lhs if c.isupper()) or "A"
    psi = "".join(c for c in body.rhs if c.isupper()) or "B"
    return [Equation("w" + phi, psi + "w")]


def _family_mixed_system(rng):
    first = gen_instance("sro_rep", rng.randrange(10**6), n_vars=2, length=8)[0]
    phi = "".join(rng.choice("ABx") for _ in range(rng.randint(1, 3)))
    psi = "".join(rng.choice("ABy") for _ in range(rng.randint(1, 3)))
    return [first, Equation(phi + psi, psi + phi)]


def _family_unstructured(rng):
    return gen_instance("random", rng.randrange(10**6), n_vars=3, length=9)


def test_bench_mini_benchmark_families(tmp_path):
    # fifty systems, ten per family, in the flavour of the published suite
    rng = random.Random(99)
    d = tmp_path / "mini"
    d.mkdir()
    count = 0
    for family in (
        lambda r: gen_instance("sro_rep", r.randrange(10**6), n_vars=3, length=10),
        _family_pattern_shuffled,
        _family_rotating_var,
        _family_mixed_system,
        _family_unstructured,
    ):
        for _ in range(10):
            system = family(rng)
            (d / f"t{count:02}.eq").write_text(serialize_system(system) + "\n")
            count += 1
    out_csv = tmp_path / "mini.csv"
    code = main(["bench", str(d), "--scheme", "count", "--max-nodes", "20000",
                 "--timeout-ms", "1000", "--csv", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 50
    decided = [r for r in rows if r["result"] in ("SAT", "UNSAT")]
    assert len(decided) >= 40, f"only {len(decided)} of 50 decided"
