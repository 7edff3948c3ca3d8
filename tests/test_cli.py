import argparse
import os
import random
import subprocess
import sys

import pytest

from cqcount import cli
from cqcount.parser import parse_quantum, parse_query, parse_structure


PSI2 = "query\nfree x1 x2\nexists y\nbody E(x1,y) & E(x2,y)\n"
P3 = "graph\ndomain 3\nE 0 1\nE 1 2\n"
TRIANGLE = "graph\ndomain 3\nE 0 1\nE 1 2\nE 0 2\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_brute_and_dp_agree(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    t = write(tmp_path, "t", P3)
    for method in ("brute", "dp", "auto"):
        code, out, _ = run(capsys, ["count", "--query", q, "--target", t,
                                    "--method", method])
        assert code == 0
        assert out.splitlines()[0] == "count: 5"


def test_count_machine_output(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    t = write(tmp_path, "t", P3)
    code, out, _ = run(capsys, ["count", "--query", q, "--target", t,
                                "--machine"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count=5"
    assert lines[1].startswith("method=")


def test_count_of_an_unsatisfiable_query(tmp_path, capsys):
    # eq x y collapses ineq x y, so no target has an answer
    q = write(tmp_path, "q",
              "formula\nfree x y\nbody E(x,y)\nineq x y\neq x y\n")
    t = write(tmp_path, "t", P3)
    c = write(tmp_path, "c", "color 0 x\ncolor 1 y\ncolor 2 x\n")
    for argv in (["count"], ["count-cp", "--coloring", c],
                 ["count-cf", "--coloring", c]):
        code, out, _ = run(capsys, argv + ["--query", q, "--target", t])
        assert code == 0
        assert out == "count: 0\nmethod: zero-witness\n", argv


def test_commands_without_a_count_name_the_unsatisfiable_query(tmp_path,
                                                               capsys):
    q = write(tmp_path, "q",
              "formula\nfree x y\nbody E(x,y)\nineq x y\neq x y\n")
    t = write(tmp_path, "t", P3)
    c = write(tmp_path, "c", "color 0 0\ncolor 1 0\ncolor 2 0\n")
    runs = [["params", "--query", q], ["classify", "--query", q],
            ["minimize", "--query", q],
            ["gadget", "minor", "--query", q, "--op", "delete-vertex",
             "--vertices", "0"],
            ["gadget", "uncolored-to-cp", "--query", q, "--target", t],
            ["gadget", "gaifman-expand", "--query", q, "--target", t,
             "--coloring", c]]
    for argv in runs:
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: %s: query is unsatisfiable: " % q), \
            (argv, err)


def test_colored_counts(tmp_path, capsys):
    q = write(tmp_path, "q", "query\nfree x1\nexists y\nbody E(x1,y)\n")
    t = write(tmp_path, "t", "graph\ndomain 4\nE 0 2\nE 0 3\nE 1 2\n")
    c = write(tmp_path, "c",
              "color 0 x1\ncolor 1 x1\ncolor 2 y\ncolor 3 y\n")
    code, out, _ = run(capsys, ["count-cp", "--query", q, "--target", t,
                                "--coloring", c])
    assert code == 0 and out.splitlines()[0] == "count: 2"
    code, out, _ = run(capsys, ["count-cf", "--query", q, "--target", t,
                                "--coloring", c])
    assert code == 0 and out.splitlines()[0] == "count: 2"


def test_params_and_classify(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    code, out, _ = run(capsys, ["params", "--query", q, "--machine"])
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert values["tw"] == "1" and values["tw_contract"] == "1"
    assert values["dss"] == "2" and values["lmn"] == "1"

    qs = []
    for k in (2, 3, 4):
        free = " ".join("x%d" % i for i in range(1, k + 1))
        body = " & ".join("E(x%d,y)" % i for i in range(1, k + 1))
        qs += ["--query", write(tmp_path, "psi%d" % k,
                                "query\nfree %s\nexists y\nbody %s\n"
                                % (free, body))]
    code, out, _ = run(capsys, ["classify"] + qs + ["--machine"])
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert values["regime"] == "#W[2]-hard"
    assert values["trend_dss"] == "growing"


def test_minimize_emits_the_core(tmp_path, capsys):
    q = write(tmp_path, "q", "query\nfree x\nexists y z\n"
                             "body E(x,y) & E(y,z)\n")
    code, out, _ = run(capsys, ["minimize", "--query", q])
    assert code == 0
    core = parse_query(out)
    assert core.structure.n == 2


def test_minimize_cores_an_xaux_query_like_any_other(tmp_path, capsys):
    # Xaux is an ordinary symbol: the core search adds no relation of its own
    outs = []
    for sym in ("Xaux", "R"):
        q = write(tmp_path, sym, "query\nsignature %s/2\nfree x1 x2\n"
                                 "exists y z\nbody %s(x1,y) & %s(x2,y) & "
                                 "%s(x1,z) & %s(x2,z)\n" % ((sym,) * 5))
        code, out, err = run(capsys, ["minimize", "--query", q])
        assert code == 0 and err == ""
        outs.append(out)
    assert parse_query(outs[0]).structure.n == 3
    assert outs[0] == outs[1].replace("R", "Xaux")


def test_expand_and_eval_round_trip(tmp_path, capsys):
    f = write(tmp_path, "f", "formula\nfree x1 x2\nexists y\n"
                             "body E(x1,y) | E(x2,y)\n")
    code, out, _ = run(capsys, ["expand", "--formula", f])
    assert code == 0
    qq = parse_quantum(out)
    assert qq.terms
    qfile = write(tmp_path, "qq", out)
    t = write(tmp_path, "t", P3)
    code, out, _ = run(capsys, ["eval", "--quantum", qfile, "--target", t,
                                "--machine"])
    assert code == 0
    # every vertex of the path has a neighbor, so all nine pairs qualify
    assert out.splitlines()[0] == "value=9"


def test_gadget_family_and_domset(tmp_path, capsys):
    code, out, _ = run(capsys, ["gadget", "family", "--kind", "gamma",
                                "--k", "2"])
    assert code == 0
    q = parse_query(out)
    assert q.structure.n == 4
    t = write(tmp_path, "t", TRIANGLE)
    code, out, _ = run(capsys, ["gadget", "domset", "--target", t,
                                "--k", "2", "--machine"])
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert values["D1"] == "3" and values["D2"] == "3"


def test_gadget_uncolored_to_cp_output_is_parseable(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    t = write(tmp_path, "t", P3)
    code, out, _ = run(capsys, ["gadget", "uncolored-to-cp", "--query", q,
                                "--target", t])
    assert code == 0
    body = out.split("--- structure\n", 1)[1]
    structure_text, coloring_text = body.split("--- coloring\n", 1)
    parse_structure(structure_text)
    assert coloring_text.startswith("color 0 ")


def test_missing_gadget_inputs_give_input_errors(capsys):
    code, _, err = run(capsys, ["gadget", "uncolored-to-cp"])
    assert code == 1
    assert "needs --query" in err


def test_bad_input_file_gives_exit_code_one(tmp_path, capsys):
    bad = write(tmp_path, "bad", "graph\ndomain 2\nE 0 9\n")
    q = write(tmp_path, "q", PSI2)
    code, _, err = run(capsys, ["count", "--query", q, "--target", bad])
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, ["count", "--query", q,
                                "--target", str(tmp_path / "missing")])
    assert code == 1


def test_repeated_domain_line_gives_exit_code_one(tmp_path, capsys):
    bad = write(tmp_path, "bad", "graph\ndomain 5\nE 3 4\ndomain 2\n")
    q = write(tmp_path, "q", PSI2)
    code, out, err = run(capsys, ["count", "--query", q, "--target", bad])
    assert code == 1 and out == ""
    assert err.startswith("error: %s: duplicate domain line" % bad)


def test_a_domain_past_max_domain_exits_one_naming_the_line(tmp_path,
                                                          capsys):
    huge = write(tmp_path, "huge",
                 "graph\ndomain 99999999999999999999\nE 0 1\n")
    q = write(tmp_path, "q", PSI2)
    for method in ("dp", "brute"):
        code, out, err = run(capsys, ["count", "--query", q, "--target", huge,
                                      "--method", method])
        assert code == 1 and out == ""
        assert err == ("error: %s: domain size 99999999999999999999 exceeds "
                       "MAX_DOMAIN = 16777216 (line 2)\n" % huge)
    # a domain of 3,000,000 vertices is under the cap and counts
    big = write(tmp_path, "big", "graph\ndomain 3000000\nE 0 2999999\n")
    code, out, _ = run(capsys, ["count", "--query", q, "--target", big])
    assert code == 0 and out.splitlines()[0] == "count: 2"


def test_eval_of_a_block_that_is_not_a_query_gives_exit_code_one(tmp_path,
                                                                capsys):
    t = write(tmp_path, "t", P3)
    for block in ("formula\nfree x\nforall y\nbody E(x,y)\n",
                  "formula\nfree x y\nbody E(x,y) | E(y,x)\n"):
        qq = write(tmp_path, "qq", "transform identity\ncoeff 1/1\n" + block)
        code, out, err = run(capsys, ["eval", "--quantum", qq, "--target", t])
        assert code == 1 and out == ""
        assert err.startswith("error: %s: " % qq) and "(line 2)" in err


def test_eval_names_the_file_line_of_an_error_in_a_later_block(tmp_path,
                                                              capsys):
    t = write(tmp_path, "t", P3)
    qq = write(tmp_path, "qq",
               "coeff 1/1\nquery\nfree x y\nbody E(x,y)\n---\n"
               "coeff -1/1\nquery\nfree x\nbody E(x,z)\n")
    code, out, err = run(capsys, ["eval", "--quantum", qq, "--target", t])
    assert code == 1 and out == ""
    assert err.startswith("error: %s: " % qq)
    assert "unbound variable 'z' (line 9)" in err


def test_check_suite_passes_and_is_deterministic(tmp_path, capsys):
    argv = ["check", "--trials", "10", "--max-n", "4", "--seed", "1",
            "--machine"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    lines = first.splitlines()
    assert len(lines) == len(cli.CHECKS)
    assert all(line.endswith("=pass") for line in lines)
    code, second, _ = run(capsys, argv)
    assert code == 0 and second == first


def test_the_dp_check_reaches_an_atom_that_a_join_completes(monkeypatch):
    # an atom lying in no single joined table is checked at the join; the
    # dp check's trials of `check --trials 30` at seeds 0-3 schedule one
    checked = []
    schedule = cli.dec._schedule

    def spy(structure, td, keep):
        steps = schedule(structure, td, keep)
        checked.extend(stage[3] for step in steps if step[0] == "join"
                       for stage in step[2])
        return steps

    monkeypatch.setattr(cli.dec, "_schedule", spy)
    cli.dec._plan.cache_clear()
    args = argparse.Namespace(max_n=5)
    for seed in range(4):
        rng = random.Random("%d:dp-counter-vs-brute" % seed)
        for _ in range(30):
            assert cli._check_dp(rng, args) is None
    assert any(checked)


def test_signature_mismatch_gives_exit_code_one(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    c = write(tmp_path, "c", "color 0 x1\ncolor 1 y\ncolor 2 x2\n")
    qq = write(tmp_path, "qq", "transform identity\ncoeff 1/1\n" + PSI2)
    other = write(tmp_path, "other",
                  "structure\nsignature R/2\ndomain 3\nR 0 1\n")
    ternary = write(tmp_path, "ternary",
                    "structure\nsignature E/3\ndomain 3\nE 0 1 2\n")
    for t, words in ((other, ["no symbol E", "E/2"]),
                     (ternary, ["symbol E", "arity 3", "2 in the query"])):
        runs = [["count", "--query", q, "--target", t, "--method", method]
                for method in ("dp", "brute", "auto")]
        runs += [[command, "--query", q, "--target", t, "--coloring", c]
                 for command in ("count-cp", "count-cf")]
        runs.append(["eval", "--quantum", qq, "--target", t])
        for argv in runs:
            code, out, err = run(capsys, argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error: %s: " % t), argv
            assert all(word in err for word in words), (argv, err)


def test_gadgets_check_the_target_and_exit_one(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    c = write(tmp_path, "c", "color 0 0\ncolor 1 2\ncolor 2 1\n")
    other = write(tmp_path, "other",
                  "structure\nsignature R/2\ndomain 3\nR 0 1\n")
    directed = write(tmp_path, "directed",
                     "structure\nsignature E/2\ndomain 3\nE 0 1\n")
    runs = []
    for t in (other, directed):
        runs += [(["gadget", "uncolored-to-cp", "--query", q, "--target", t],
                  t, "not a graph"),
                 (["gadget", "domset", "--target", t, "--k", "2"],
                  t, "not a graph")]
    runs += [(["gadget", "minor", "--query", q, "--op", "delete-edge",
               "--vertices", "0", "2", "--target", other, "--coloring", c],
              other, "no symbol E"),
             (["gadget", "gaifman-expand", "--query", q, "--target", other,
               "--coloring", c], other, "no symbol E"),
             (["gadget", "family", "--k", "0"], "gadget family",
              "k must be positive"),
             (["gadget", "family", "--kind", "zzz"], "gadget family",
              "unknown family kind 'zzz'")]
    for argv, where, words in runs:
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: %s: " % where) and words in err, \
            (argv, err)


# symmetric E/2 with two loops: it passes the signature check, and no
# coloring by a loopless query is a homomorphism on it
LOOPED = "structure\nsignature E/2\ndomain 3\nE 0 1\nE 1 0\nE 0 0\nE 2 2\n"
GOOD = "color 0 0\ncolor 1 2\ncolor 2 1\n"
BAD = "color 0 0\ncolor 1 1\ncolor 2 2\n"
COLORING_ERRORS = {
    "minor": (["--query", "q", "--op", "delete-edge", "--vertices", "0", "2"],
              LOOPED, GOOD, "E(0, 1)"),
    "gaifman-expand": (["--query", "q"], LOOPED, GOOD, "E(2, 2)"),
    "gamma-to-grate": (["--k", "2"], P3, BAD, "E(0, 1)"),
}


@pytest.mark.parametrize("gadget", sorted(COLORING_ERRORS))
def test_gadget_coloring_errors_name_the_coloring_and_the_target(
        tmp_path, capsys, gadget):
    extra, target, coloring, tup = COLORING_ERRORS[gadget]
    q = write(tmp_path, "q", PSI2)
    t = write(tmp_path, "t", target)
    c = write(tmp_path, "c", coloring)
    argv = ["gadget", gadget] + [q if a == "q" else a for a in extra]
    code, out, err = run(capsys, argv + ["--target", t, "--coloring", c])
    assert code == 1 and out == ""
    assert err == ("error: %s: coloring is not a homomorphism on %s "
                   "(target %s)\n" % (c, tup, t))


def test_gamma_to_grate_names_itself_on_a_bad_k(tmp_path, capsys):
    t = write(tmp_path, "t", P3)
    c = write(tmp_path, "c", BAD)
    code, out, err = run(capsys, ["gadget", "gamma-to-grate", "--k", "0",
                                  "--target", t, "--coloring", c])
    assert code == 1 and out == ""
    assert err == "error: gadget gamma-to-grate: k must be positive\n"


PSI3 = "query\nfree x1 x2 x3\nexists y\nbody E(x1,y) & E(x2,y) & E(x3,y)\n"
# gamma_2's vertices 0..3 with its own edges: x0 y0, x1 y1 and y0 y1
GAMMA2_PATH = "graph\ndomain 4\nE 0 2\nE 1 3\nE 2 3\n"
IDENTITY4 = "color 0 0\ncolor 1 1\ncolor 2 2\ncolor 3 3\n"
TERNARY = "query\nsignature R/3\nfree x y\nexists z\nbody R(x,y,z)\n"
# a triangle, the Gaifman graph of TERNARY, with a second copy of y at 3
TRIANGLE_AND_Y = "graph\ndomain 4\nE 0 1\nE 1 2\nE 0 2\nE 2 3\nE 0 3\n"
THREE_HALVES = ("transform identity\ncoeff 3/2\nquery\nexists x y\n"
                "body E(x,y)\n")
# (files by name, argv naming them, the whole of stdout), each output as
# the command printed it before these tests were written
PINNED = {
    "gamma-to-grate": (
        {"t": GAMMA2_PATH, "c": IDENTITY4},
        ["gadget", "gamma-to-grate", "--k", "2", "--target", "t",
         "--coloring", "c"],
        "relation: count_cp_answers(gamma_k,t) = "
        "count_cp_answers(omega_k,gadget)\n--- structure\ngraph\n"
        "domain 6\nE 0 4\nE 1 5\nE 2 4\nE 2 5\n--- coloring\n"
        "color 0 0\ncolor 1 1\ncolor 2 2\ncolor 3 2\ncolor 4 3\n"
        "color 5 4\n"),
    "minor": (
        {"q": PSI2},
        ["gadget", "minor", "--query", "q", "--op", "delete-edge",
         "--vertices", "0", "2"],
        "query\nfree v0 v1\nexists v2\nbody E(v1,v2)\n"),
    "minor-instance": (
        {"q": PSI2, "t": "graph\ndomain 3\nE 1 2\n",
         "c": "color 0 0\ncolor 1 1\ncolor 2 2\n"},
        ["gadget", "minor", "--query", "q", "--op", "delete-edge",
         "--vertices", "0", "2", "--target", "t", "--coloring", "c"],
        "relation: count_cp_answers equal\n--- structure\ngraph\n"
        "domain 3\nE 0 2\nE 1 2\n--- coloring\ncolor 0 0\ncolor 1 1\n"
        "color 2 2\n"),
    "gaifman-expand": (
        {"q": TERNARY, "t": TRIANGLE_AND_Y,
         "c": "color 0 0\ncolor 1 1\ncolor 2 2\ncolor 3 1\n"},
        ["gadget", "gaifman-expand", "--query", "q", "--target", "t",
         "--coloring", "c"],
        "relation: count_cp_answers(gaifman(q),t) = "
        "count_cp_answers(q,gadget)\n--- structure\nstructure\n"
        "signature R/3\ndomain 4\nR 0 1 2\nR 0 3 2\n--- coloring\n"
        "color 0 0\ncolor 1 1\ncolor 2 2\ncolor 3 1\n"),
    "classify-one": (
        {"q": PSI2}, ["classify", "--query", "q"],
        "treewidth: 1\ncontract treewidth: 1\ndominating star size: 2\n"
        "linked matching number: 1\ncomponent 0: {2}, boundary {0,1}\n"),
    "classify-one-machine": (
        {"q": PSI2}, ["classify", "--query", "q", "--machine"],
        "tw=1\ntw_contract=1\ndss=2\nlmn=1\ncomponent0=2|boundary=0,1\n"),
    "params-note": (
        {"q": PSI3}, ["params", "--query", "q"],
        "treewidth: 1\ncontract treewidth: 2\ndominating star size: 3\n"
        "linked matching number: 1\ncomponent 0: {3}, boundary {0,1,2}\n"
        "note: no O(n^{3-eps}) algorithm under SETH (class-level evidence; "
        "dss >= 3)\n"),
    "params-note-machine": (
        {"q": PSI3}, ["params", "--query", "q", "--machine"],
        "tw=1\ntw_contract=2\ndss=3\nlmn=1\ncomponent0=3|boundary=0,1,2\n"
        "note0=no O(n^{3-eps}) algorithm under SETH (class-level evidence; "
        "dss >= 3)\n"),
    "eval-fraction": (
        {"qq": THREE_HALVES, "t": "graph\ndomain 2\nE 0 1\n"},
        ["eval", "--quantum", "qq", "--target", "t"], "value: 3/2\n"),
    "eval-fraction-machine": (
        {"qq": THREE_HALVES, "t": "graph\ndomain 2\nE 0 1\n"},
        ["eval", "--quantum", "qq", "--target", "t", "--machine"],
        "value=3/2\n"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_command_output(tmp_path, capsys, case):
    files, argv, want = PINNED[case]
    paths = {name: write(tmp_path, name, text) for name, text in files.items()}
    code, out, err = run(capsys, [paths.get(a, a) for a in argv])
    assert (code, out, err) == (0, want, "")


def test_eval_methods_agree_on_a_universal_formula(tmp_path, capsys):
    f = write(tmp_path, "f", "formula\nfree x1 x2\nforall y\n"
                             "body E(x1,y) | E(x2,y)\n")
    code, out, _ = run(capsys, ["expand", "--formula", f])
    assert code == 0 and "transform complement" in out
    qfile = write(tmp_path, "qq", out)
    t = write(tmp_path, "t", "graph\ndomain 5\nE 0 1\nE 1 2\nE 3 4\nE 0 3\n")
    values = set()
    for method in ("dp", "brute", "auto"):
        code, out, _ = run(capsys, ["eval", "--quantum", qfile, "--target", t,
                                    "--method", method, "--machine"])
        assert code == 0
        values.add(out)
    assert len(values) == 1


def test_count_methods_on_a_wide_boundary(tmp_path, capsys):
    code, star, _ = run(capsys, ["gadget", "family", "--kind", "psi",
                                 "--k", "7"])
    assert code == 0
    q = write(tmp_path, "q", star)
    t = write(tmp_path, "t", P3)
    # seven free leaves: 2**7 answers around the middle vertex, and one
    # around each end
    for method in ([], ["--method", "dp"]):
        code, out, _ = run(capsys, ["count", "--query", q, "--target", t,
                                    "--machine"] + method)
        assert code == 0 and out == "count=129\nmethod=dp\n"
    k9 = write(tmp_path, "k9", "graph\ndomain 9\n" + "".join(
        "E %d %d\n" % (a, b) for a in range(9) for b in range(a + 1, 9)))
    code, out, err = run(capsys, ["count", "--query", q, "--target", k9,
                                  "--method", "dp"])
    assert code == 1 and out == ""
    # TABLE_ROWS_CAP measures the target, so the target file is named
    assert err.startswith("error: %s: " % k9) and "TABLE_ROWS_CAP" in err


def test_dp_refusals_name_the_file_they_measure(tmp_path, capsys):
    # the plain-query requirement is the query's; TABLE_ROWS_CAP, the
    # target's, is covered above.  A component past the exact treewidth
    # limit is planned by min-fill, so the DP counts it: the pairs of P3
    # joined by a walk of 22 edges
    t = write(tmp_path, "t", P3)
    ys = ["y%d" % i for i in range(1, 22)]
    chain = ["x1"] + ys + ["x2"]
    long = write(tmp_path, "long", "query\nfree x1 x2\nexists %s\nbody %s\n"
                 % (" ".join(ys), " & ".join("E(%s,%s)" % pair for pair
                                              in zip(chain, chain[1:]))))
    code, out, err = run(capsys, ["count", "--query", long, "--target", t,
                                  "--method", "dp"])
    assert code == 0 and err == ""
    assert out.splitlines() == ["count: 5", "method: dp"]
    ineq = write(tmp_path, "ineq", "formula\nfree x y\nbody E(x,y)\n"
                                   "ineq x y\n")
    for argv, what in ((["count", "--query", ineq, "--target", t,
                         "--method", "dp"], "--method dp"),
                       (["minimize", "--query", ineq], "minimize")):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: %s: %s supports plain queries only"
                              % (ineq, what)), err


def test_count_names_brute_after_a_row_cap_fallback(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli.dec, "TABLE_ROWS_CAP", 3)
    # psi_3 with a pendant of x1: y binds x1 and x2 before it hands its
    # mask to x3, and those five rows are stored
    q = write(tmp_path, "q", "query\nfree x1 x2 x3\nexists y z\n"
                             "body E(x1,y) & E(x2,y) & E(x3,y) & E(x1,z)\n")
    t = write(tmp_path, "t", P3)
    code, out, _ = run(capsys, ["count", "--query", q, "--target", t,
                                "--machine"])
    assert code == 0 and out.splitlines() == ["count=9", "method=brute"]
    code, out, err = run(capsys, ["count", "--query", q, "--target", t,
                                  "--method", "dp"])
    assert code == 1 and out == ""
    assert err.startswith("error: %s: " % t) and "TABLE_ROWS_CAP" in err


def test_colored_count_methods_agree(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    t = write(tmp_path, "t", "graph\ndomain 5\nE 0 2\nE 1 2\nE 1 3\nE 3 4\n")
    c = write(tmp_path, "c", "color 0 x1\ncolor 1 x2\ncolor 2 y\n"
                             "color 3 y\ncolor 4 x1\n")
    outs = set()
    for method in ("dp", "brute", "auto"):
        code, out, _ = run(capsys, ["count-cp", "--query", q, "--target", t,
                                    "--coloring", c, "--method", method])
        assert code == 0
        outs.add(out)
    assert outs == {"count: 2\n"}


def test_check_into_a_closed_pipe_exits_quietly():
    # the reader is gone before the first line is written, so each write of
    # the report meets a broken pipe
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cqcount.cli", "check", "--seed", "0"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr.decode()
    assert done.returncode == 1


LOOPED = ("structure\nsignature E/2\ndomain 3\n"
          "E 0 0\nE 1 1\nE 0 1\nE 1 0\n")


def test_a_merged_edge_counts_as_the_loop_it_becomes(tmp_path, capsys):
    # eq x y turns E(x,y) into E(x,x): both count the 2 loops, and on the
    # reflexive complement of one edge on 3 vertices, its 3 loops
    merged = write(tmp_path, "merged",
                   "formula\nfree x y\nbody E(x,y)\neq x y\n")
    loop = write(tmp_path, "loop", "formula\nfree x\nbody E(x,x)\n")
    t = write(tmp_path, "t", LOOPED)
    g = write(tmp_path, "g", "graph\ndomain 3\nE 0 1\n")
    for q in (merged, loop):
        code, out, _ = run(capsys, ["count", "--query", q, "--target", t])
        assert code == 0 and out.splitlines()[0] == "count: 2"
        with open(q) as fh:
            block = fh.read()
        qq = write(tmp_path, "qq", "transform complement\ncoeff 1/1\n" + block)
        code, out, _ = run(capsys, ["eval", "--quantum", qq, "--target", g])
        assert code == 0 and out == "value: 3\n"


def test_an_asymmetric_target_exits_one_naming_the_file(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    qq = write(tmp_path, "qq", "coeff 1/1\n" + PSI2)
    c = write(tmp_path, "c", "color 0 0\ncolor 1 2\ncolor 2 1\n")
    grate = write(tmp_path, "grate", "color 0 0\ncolor 1 2\ncolor 2 3\n")
    directed = write(tmp_path, "directed",
                     "structure\nsignature E/2\ndomain 3\nE 0 2\nE 2 1\n"
                     "E 1 2\n")
    runs = [(["count", "--query", q, "--target", directed],
             "holds (0, 2) and not its reverse"),
            (["eval", "--quantum", qq, "--target", directed],
             "holds (0, 2) and not its reverse"),
            (["gadget", "minor", "--query", q, "--op", "delete-edge",
              "--vertices", "0", "2", "--target", directed, "--coloring", c],
             "holds (0, 2) and not its reverse"),
            (["gadget", "gaifman-expand", "--query", q, "--target", directed,
              "--coloring", c], "holds (0, 2) and not its reverse"),
            (["gadget", "gamma-to-grate", "--k", "2", "--target", directed,
              "--coloring", grate], "not a graph")]
    for argv, words in runs:
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: %s: " % directed) and words in err, \
            (argv, err)


def test_usage_errors_exit_one(tmp_path, capsys):
    q = write(tmp_path, "q", PSI2)
    for argv, words in (
            (["count", "--query", q], "required: --target"),
            (["check", "--trials", "x"], "invalid int value: 'x'"),
            (["params", "--query", q, "--query", q],
             "--query given more than once"),
            (["check", "--trials", "0"], "--trials must be at least 1"),
            (["check", "--trials", "-3"], "--trials must be at least 1"),
            (["check", "--max-n", "0"], "--max-n must be at least 1")):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert "error: " in err and words in err, (argv, err)


def test_gadget_minor_names_a_vertex_out_of_range_or_a_missing_op(tmp_path,
                                                                  capsys):
    q = write(tmp_path, "q", PSI2)
    for v in ("7", "-1"):
        code, out, err = run(capsys, ["gadget", "minor", "--query", q,
                                      "--op", "delete-vertex",
                                      "--vertices", v])
        assert code == 1 and out == ""
        assert err == "error: %s: vertex %s out of range\n" % (q, v)
    code, out, err = run(capsys, ["gadget", "minor", "--query", q,
                                  "--vertices", "0", "2"])
    assert code == 1 and out == ""
    assert err == "error: gadget minor needs --op\n"
    code, out, err = run(capsys, ["gadget", "minor", "--query", q,
                                  "--op", "delete-vertex",
                                  "--vertices", "0", "1"])
    assert code == 1 and out == ""
    assert err == "error: gadget minor: delete-vertex needs one vertex\n"
    t = write(tmp_path, "t", P3)
    code, out, err = run(capsys, ["gadget", "minor", "--query", q,
                                  "--op", "delete-edge", "--vertices", "0",
                                  "2", "--target", t])
    assert code == 1 and out == ""
    assert err == "error: gadget minor: --target needs --coloring\n"


def test_a_crash_inside_a_trial_fails_its_check_and_the_rest_run(
        capsys, monkeypatch):
    def crash(rng, args):
        raise AssertionError("padding system is not integral")
    name, _, share = cli.CHECKS[0]
    monkeypatch.setattr(cli, "CHECKS", [(name, crash, share)]
                        + cli.CHECKS[1:])
    code, out, err = run(capsys, ["check", "--trials", "5", "--max-n", "3"])
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert lines[:2] == [
        "%s: fail" % name,
        "  counterexample: AssertionError: padding system is not integral"]
    assert lines[2:] == ["%s: pass" % other for other, _, _ in cli.CHECKS[1:]]
    code, out, err = run(capsys, ["check", "--trials", "5", "--max-n", "3",
                                  "--machine"])
    assert code == 2 and err == ""
    assert out.splitlines() == [
        "%s=fail" % name,
        "%s.counterexample=AssertionError: padding system is not integral"
        % name] + ["%s=pass" % other for other, _, _ in cli.CHECKS[1:]]


# One malformed file per parser message: (command, file text, message, line
# or None).  The command reads the file as the kind of input its text is.
MALFORMED = [
    # structures
    ("count", "structure\nsignature E2\ndomain 2\n",
     "expected <name>/<arity>: 'E2'", 2),
    ("count", "structure\nsignature 2E/2\ndomain 2\n",
     "bad symbol name '2E'", 2),
    ("count", "structure\nsignature E/x\ndomain 2\n", "bad arity in 'E/x'", 2),
    ("count", "structure\nsignature E/2 E/2\ndomain 2\n",
     "duplicate relation symbol", 2),
    ("count", "# nothing\n", "empty structure file", None),
    ("count", "grap\ndomain 2\n",
     "expected 'structure' or 'graph' header, got 'grap'", 1),
    ("count", "structure\ndomain 2\nsignature E/2\n",
     "signature must come before domain and tuples", 3),
    ("count", "graph\nsignature R/2\ndomain 2\n",
     "graph mode requires the signature E/2", 2),
    ("count", "graph\ndomain 2\ndomain 2\n", "duplicate domain line", 3),
    ("count", "graph\ndomain\n", "expected 'domain <n>'", 2),
    ("count", "graph\ndomain x\n", "bad domain size 'x'", 2),
    ("count", "graph\ndomain -1\n", "negative domain size", 2),
    ("count", "structure\nE 0 1\n", "tuple line before signature", 2),
    ("count", "graph\nE 0 1\n", "tuple line before domain", 2),
    ("count", "graph\ndomain 2\nR 0 1\n", "unknown relation symbol 'R'", 3),
    ("count", "graph\ndomain 2\nE 0 a\n", "vertices must be integers", 3),
    ("count", "graph\ndomain 2\nE 0\n", "arity mismatch for E", 3),
    ("count", "graph\ndomain 2\nE 0 9\n", "vertex 9 out of range", 3),
    ("count", "graph\ndomain 2\nE 1 1\n", "loop 1 in graph mode", 3),
    ("count", "structure\ndomain 2\n", "missing signature", None),
    ("count", "graph\n", "missing domain line", None),
    # colorings of the 3-vertex path by psi_2, whose variables are x1 x2 y
    ("count-cp", "colour 0 x1\n", "expected 'color <vertex> <variable>'", 1),
    ("count-cp", "color a x1\n", "target vertex must be an integer", 1),
    ("count-cp", "color -1 x1\n", "target vertex must be non-negative", 1),
    ("count-cp", "color 0 z\n", "unknown query variable 'z'", 1),
    ("count-cp", "color 0 x1\ncolor 0 y\n", "vertex 0 colored twice", 2),
    ("count-cp", "color 0 x1\ncolor 2 y\n",
     "coloring must cover vertices 0..2", None),
    # formulas
    ("expand", "formula\nfree x\nbody E(x,$)\n", "bad token '$'", 3),
    ("expand", "formula\nfree x\nbody E(x,\n",
     "unexpected end of expression", 3),
    ("expand", "formula\nfree x\nbody E x\n", "expected '(', got 'x'", 3),
    ("expand", "formula\nfree x\nbody E(x,x))\n", "trailing token ')'", 3),
    ("expand", "formula\nfree x\nbody !(E(x,x) & E(x,x))\n",
     "'!' applies to single atoms only", 3),
    ("expand", "formula\nfree x\nbody ,\n", "expected an atom, got ','", 3),
    ("expand", "formula\nfree x\nbody E((x)\n", "bad variable '('", 3),
    ("expand", "formula\nfree x\nbody E(x x)\n", "expected ',' or ')'", 3),
    ("expand", "", "empty formula file", None),
    ("expand", "formulas\nfree x\n",
     "expected 'formula' or 'query' header, got 'formulas'", 1),
    ("expand", "formula\nsignature E/2\nsignature E/2\n",
     "duplicate signature line", 3),
    ("expand", "formula\nfree x\nfree y\n", "duplicate free line", 3),
    ("expand", "formula\nexists y\nforall z\n",
     "only one quantifier block is allowed", 3),
    ("expand", "formula\nfree x\nbody E(x,x)\nbody E(x,x)\n",
     "duplicate body line", 4),
    ("expand", "formula\nfree x y\nineq x\n", "expected 'ineq <v> <v>'", 3),
    ("expand", "formula\nfree x y\nineq x x\n",
     "inequality between a variable and itself", 3),
    ("expand", "formula\nfree x y\neq x\n", "expected 'eq <v> <v>'", 3),
    ("expand", "formula\nfree x\nbodies E(x,x)\n",
     "unknown statement 'bodies'", 3),
    ("expand", "formula\nfree x\n", "missing body line", None),
    ("expand", "formula\nfree x\nexists x\nbody true\n",
     "variable declared twice", None),
    ("expand", "formula\nfree 1x\nbody true\n", "bad variable name '1x'",
     None),
    ("expand", "formula\nfree x\nbody R(x,x)\n",
     "unknown relation symbol 'R'", 3),
    ("expand", "formula\nfree x\nbody E(x)\n", "arity mismatch for E", 3),
    ("expand", "formula\nfree x\nbody E(x,z)\n", "unbound variable 'z'", 3),
    ("expand", "formula\nfree x\nexists y\nbody E(x,y) & !E(x,y)\n",
     "negated atom on quantified variable 'y'", 4),
    ("expand", "formula\nfree x y\nbody E(x,y) | !E(x,y)\n",
     "negation outside the top-level conjunction", 3),
    ("expand", "formula\nfree x\nbody E(x,x)\nineq x z\n",
     "unbound variable 'z' in inequality", 4),
    ("expand", "formula\nfree x\nexists y\nbody E(x,y)\nineq x y\n",
     "inequality on quantified variable 'y'", 5),
    ("expand", "formula\nfree x\nbody E(x,x)\neq x z\n",
     "unbound variable 'z' in equality", 4),
    ("expand", "query\nfree x\nforall y\nbody E(x,y)\n",
     "a query cannot be universally quantified", None),
    ("expand", "query\nfree x y\nbody E(x,y) | E(y,x)\n",
     "query bodies must be conjunctions of atoms", None),
    # quantum queries: a block's error names the file's line, or the
    # block's coeff line where the message has none
    ("eval", "transform inverse\ncoeff 1/1\n" + PSI2, "bad transform line",
     1),
    ("eval", "coef 1/1\n" + PSI2, "expected 'coeff <p>/<q>'", 1),
    ("eval", "coeff 1/x\n" + PSI2, "bad coefficient '1/x'", 1),
    ("eval", "coeff 0/1\n" + PSI2, "zero coefficient", 1),
    ("eval", "coeff 1/1\nquery\nfree x\n\nbody E(x,z)\n",
     "unbound variable 'z'", 5),
    ("eval", "coeff 1/1\nquery\nfree x x\nbody true\n",
     "variable declared twice", 1),
    ("eval", "coeff 1/1\nformula\nfree x\nforall y\nbody E(x,y)\n",
     "universal formulas are not conjunctive queries", 1),
    ("eval", "coeff 1/1\nformula\nfree x y\nbody E(x,y)\nineq x y\n"
     "eq x y\n", "unsatisfiable constituent", 1),
]


# An unsatisfiable query still has its inputs checked: (command, target
# text, coloring text or None for a missing file, the file named, message).
UNSATISFIABLE = "formula\nfree x y\nbody E(x,y)\nineq x y\neq x y\n"
MALFORMED_BESIDE_AN_UNSATISFIABLE_QUERY = [
    ("count", "structure\nsignature R/3\ndomain 2\n", None, "target",
     "the target has no symbol E"),
    ("count-cp", P3, None, "coloring", "cannot read coloring file"),
    ("count-cf", P3, "color 0 x\ncolor 0 y\n", "coloring",
     "vertex 0 colored twice"),
    ("count-cp", P3, "color 0 x\ncolor 1 y\n", "coloring",
     "coloring has wrong length"),
    ("count-cp", P3, "color 0 99\ncolor 1 0\ncolor 2 0\n", "coloring",
     "color out of range: 99"),
    ("count-cf", P3, "color 0 99\ncolor 1 0\ncolor 2 0\n", "coloring",
     "color out of range: 99"),
]


@pytest.mark.parametrize("command, target, coloring, named, message",
                         MALFORMED_BESIDE_AN_UNSATISFIABLE_QUERY)
def test_an_unsatisfiable_query_names_a_malformed_input(
        tmp_path, capsys, command, target, coloring, named, message):
    files = {"query": write(tmp_path, "q", UNSATISFIABLE),
             "target": write(tmp_path, "t", target),
             "coloring": str(tmp_path / "c")}
    if coloring is not None:
        write(tmp_path, "c", coloring)
    argv = [command, "--query", files["query"], "--target", files["target"]]
    if command != "count":
        argv += ["--coloring", files["coloring"]]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert files[named] in err and message in err, err


@pytest.mark.parametrize("command, text, message, line", MALFORMED)
def test_each_parser_message_names_the_file_and_the_line(
        tmp_path, capsys, command, text, message, line):
    bad = write(tmp_path, "bad", text)
    q = write(tmp_path, "q", PSI2)
    t = write(tmp_path, "t", P3)
    argv = {"count": ["count", "--query", q, "--target", bad],
            "count-cp": ["count-cp", "--query", q, "--target", t,
                         "--coloring", bad],
            "expand": ["expand", "--formula", bad],
            "eval": ["eval", "--quantum", bad, "--target", t]}[command]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: %s: %s" % (bad, message)), err
    if line is None:
        assert "(line" not in err
    else:
        assert "(line %d" % line in err, err
