"""Command line interface: golden JSON outputs, exit codes, determinism."""

import json
import re
import shlex
import sys
from math import inf
from pathlib import Path

import pytest

from planehopf import birkhoff, idempotents
from planehopf.cli import main
from planehopf.compositions import compositions_of
from planehopf.forests import chain_tree, max_linear_extension


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_nsym_embed_golden(capsys):
    data = run_json(capsys, "nsym", "embed", "--basis", "R", "--I", "2,1",
                    "--format", "json")
    assert data["terms"] == {"000": "2", "100": "1", "010": "1"}


def test_forest_parse_empty(capsys):
    code, out = run(capsys, "forest", "parse", "--code", "", "--format",
                    "json")
    assert code == 0
    assert json.loads(out)["size"] == 0


def test_forest_parse_invalid_is_domain_error(capsys):
    code, _ = run(capsys, "forest", "parse", "--code", "20")
    assert code == 3


def test_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_cost_guard_exit_code(capsys):
    code, _ = run(capsys, "idem", "verify", "--what", "quasi", "--n", "7")
    assert code == 4


@pytest.mark.parametrize("argv, expected", [
    (("birkhoff", "sigma-plus"), 3),
    (("ehrhart", "qcount", "--forest", "200", "--n", "-1"), 3),
    (("nsym", "embed", "--I", "9"), 4),
    (("nsym", "embed", "--I", "4,4"), 4),
    (("tamari", "downset", "--forest", "0" * 10), 4),
    (("tamari", "upset", "--forest", "1" * 9 + "0"), 4),
    (("hopf", "product", "--left", "20000", "--right", "10000"), 4),
    (("hopf", "product", "--left", "20000", "--right", "10000",
      "--basis", "C"), 4),
    (("ehrhart", "points", "--forest", "0000000", "--n", "9"), 4),
    (("birkhoff", "words", "--I", "14"), 4),
    (("birkhoff", "words", "--model", "S", "--I", "2,2,2,2,2,2,2"), 4),
    (("birkhoff", "d-lambda", "--lambda", "2,2,2,1,1,1", "--basis", "X"), 4),
    (("birkhoff", "sigma-plus", "--n", "10"), 4),
    (("birkhoff", "d-lambda", "--lambda", "3,3,2,2,1,1,1,1", "--basis", "R"),
     4),
    (("idem", "eulerian", "--n", "10", "--k", "2"), 4),
    (("tamari", "leq", "--lower", "1" * 12 + "0", "--upper", "0" * 13), 0),
    (("tamari", "leq", "--lower", "1" * 12 + "0", "--upper", "0" * 12), 3),
    (("birkhoff", "d-lambda", "--lambda", "3,3,2,2,1,1,1,1", "--basis", "C"),
     4),
    (("ehrhart", "qcount", "--forest", "0" * 20, "--n", "1"), 4),
    (("ehrhart", "qcount", "--forest", "00", "--n", "3000"), 4),
    (("ehrhart", "qcount", "--forest", "0" * 10, "--n", "-1"), 3),
    # codes are parsed and printed with no stack frame per level
    (("forest", "parse", "--code", "1" * 1499 + "0"), 0),
    (("birkhoff", "d-lambda", "--basis", "C", "--lambda", ",".join("1" * 1500)),
     0),
    # the ribbon basis lists the same arrangements with no recursion
    (("birkhoff", "d-lambda", "--basis", "R", "--lambda", ",".join("1" * 1500)),
     0),
    # verify and idem verify refuse degrees above MAX_VERIFY_DEGREE
    (("verify", "--suite", "factorization", "--n", "6"), 4),
    (("verify", "--suite", "hopf", "--n", "8"), 4),
    (("verify", "--suite", "words", "--n", "11"), 4),
    (("verify", "--suite", "dendriform", "--n", "9"), 4),
    (("verify", "--suite", "tamari", "--n", "9"), 4),
    (("verify", "--suite", "quotient", "--n", "7"), 4),
    (("verify", "--suite", "quotient", "--n", "100000"), 4),
    (("idem", "verify", "--what", "primitive", "--n", "12"), 4),
    (("idem", "verify", "--what", "quasi", "--n", "30"), 4),
    (("verify", "--suite", "bogus", "--n", "100"), 3),
    # Psi, Psi-bar and Solomon in the X basis embed every ribbon of the degree
    (("idem", "dynkin", "--n", "8", "--basis", "X"), 4),
    (("idem", "solomon", "--n", "8", "--basis", "X"), 4),
    (("idem", "qsolomon", "--n", "8", "--basis", "X"), 3),
    (("verify", "--suite", "idempotents", "--n", "11"), 4),
    # a chain nested past the recursion limit is over the ehrhart poly cap
    (("ehrhart", "poly", "--forest", "1" * 1499 + "0"), 4),
    # solomon and qsolomon in the ribbon basis list every ribbon of the degree
    (("idem", "qsolomon", "--n", "13"), 4),
    (("idem", "solomon", "--n", "13", "--basis", "R"), 4),
    (("idem", "solomon", "--n", "13"), 4),
    (("idem", "qsolomon", "--n", "13", "--basis", "X"), 3),
    (("idem", "qsolomon", "--n", "7"), 0),
    (("idem", "solomon", "--n", "7", "--basis", "R"), 0),
    # forest list lists Catalan(n) forests, Catalan(n-1) trees
    (("forest", "list", "--n", "16"), 4),
    (("forest", "list", "--n", "14"), 4),
    (("forest", "list", "--n", "15", "--trees"), 4),
    (("forest", "list", "--n", str(10 ** 9)), 4),
    (("forest", "list", "--n", "8", "--trees"), 0),
    (("forest", "list", "--n", "-1"), 3),
    (("forest", "list", "--n", "-1", "--trees"), 0),
    # hopf coproduct in the Y basis lists every admissible cut
    (("hopf", "coproduct", "--basis", "Y", "--forest", "0" * 22), 4),
    (("hopf", "coproduct", "--basis", "Y", "--forest", "0" * 20), 4),
    (("hopf", "coproduct", "--basis", "Y", "--forest", "0" * 12), 0),
    (("hopf", "coproduct", "--basis", "X", "--forest", "0" * 22), 0),
    # Psi_n and Psi-bar_n have n(n+1)/2 parts in all
    (("nsym", "psi", "--n", "100000"), 4),
    (("nsym", "psibar", "--n", "1414"), 4),
    (("idem", "dynkin", "--n", "4000"), 4),
    (("idem", "dynkin", "--n", "1414", "--basis", "R"), 4),
    (("nsym", "psi", "--n", "-3"), 3),
    # the sizes are capped where they are counted, so a huge input is
    # refused at once
    (("birkhoff", "words", "--I", "1000000"), 4),
    (("birkhoff", "d-lambda", "--lambda", "1000000000", "--basis", "C"), 4),
    (("ehrhart", "points", "--forest", "0" * 100000, "--n", str(10 ** 100)),
     4),
    # Solomon's idempotent and its q-analogue start at degree 1
    (("idem", "solomon", "--n", "0"), 3),
    (("idem", "solomon", "--n", "0", "--basis", "X"), 3),
    (("idem", "qsolomon", "--n", "0"), 3),
    (("idem", "verify", "--n", "0"), 3),
    (("idem", "verify", "--what", "quasi", "--n", "0"), 3),
    (("idem", "solomon", "--n", "-1"), 3),
    (("idem", "qsolomon", "--n", "-2"), 3),
    # a suite at degree 0 or below checks nothing, so it is refused
    (("verify", "--suite", "hopf", "--n", "0"), 3),
    (("verify", "--suite", "words", "--n", "-1"), 3),
    # the C product peels the product back to C, so 9 nodes answer
    (("hopf", "product", "--left", "0000", "--right", "00000", "--basis", "C"),
     0),
    # ehrhart poly interpolates |F| + 1 point counts, up to MAX_EHRHART_SIZE
    (("ehrhart", "poly", "--forest", "0" * 801), 4),
    # Psi_n, Psi-bar_n and the Dynkin pair start at degree 1
    (("nsym", "psi", "--n", "0"), 3),
    (("nsym", "psibar", "--n", "-1"), 3),
    (("idem", "dynkin", "--n", "-1"), 3),
    (("idem", "dynkin", "--n", "0", "--basis", "X"), 3),
])
def test_contract_exit_code(capsys, argv, expected):
    assert main(list(argv)) == expected
    err = capsys.readouterr().err
    assert err.startswith({0: "", 3: "error:", 4: "cost guard:"}[expected])
    assert "Traceback" not in err


@pytest.mark.parametrize("n", range(1, 7))
def test_words_size_is_exact(n):
    # the size the words guard checks is the number of words listed
    for i in compositions_of(n):
        assert birkhoff.word_count(i, "W", inf) == len(birkhoff.words_w(i))
        assert birkhoff.word_count(i, "S", inf) == len(birkhoff.words_s(i))


def test_sigma_plus_spec_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["birkhoff", "sigma-plus", "--n", "3", "--spec", "foo"])
    assert exc.value.code == 2
    data = run_json(capsys, "birkhoff", "sigma-plus", "--n", "3",
                    "--spec", "ab", "--format", "json")
    assert data["spec"] == "ab"


def test_words_many_parts(capsys):
    # the word listing takes no stack frame per letter
    data = run_json(capsys, "birkhoff", "words", "--I", ",".join(["2"] * 600),
                    "--format", "json")
    assert data["count"] == len(data["words"]) == 2


def test_words_guard_message_is_short(capsys):
    # |S(I)| for 600 parts has hundreds of digits; the refusal omits it
    assert main(["birkhoff", "words", "--model", "S",
                 "--I", ",".join(["2"] * 600)]) == 4
    assert len(capsys.readouterr().err) < 200


def test_idem_verify_reports_a_non_primitive(capsys, monkeypatch):
    monkeypatch.setattr(idempotents, "is_primitive", lambda a: False)
    code, out = run(capsys, "idem", "verify", "--what", "primitive", "--n",
                    "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_idem_verify_reports_a_failed_square(capsys, monkeypatch):
    monkeypatch.setattr(idempotents, "quasi_idempotent_check",
                        lambda a, n: (False, 0))
    code, out = run(capsys, "idem", "verify", "--what", "quasi", "--n", "3",
                    "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("planehopf ")]


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command(capsys, argv):
    # every documented command runs and prints valid JSON
    assert main(argv + ["--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


def test_tamari_upset_golden(capsys):
    data = run_json(capsys, "tamari", "upset", "--forest", "1200",
                    "--format", "json")
    assert data["codes"] == ["0000", "0010", "0100", "0110", "0200",
                             "1200", "2000", "2010", "3000"]


def test_tamari_leq(capsys):
    data = run_json(capsys, "tamari", "leq", "--lower", "1100",
                    "--upper", "0100", "--format", "json")
    assert data["result"] is True


def test_tamari_leq_on_a_chain_deeper_than_the_recursion_limit(capsys):
    n = sys.getrecursionlimit() + 500
    data = run_json(capsys, "tamari", "leq", "--lower", "1" * (n - 1) + "0",
                    "--upper", "0" * n, "--format", "json")
    assert data["result"] is True


def test_ehrhart_points_on_a_chain_deeper_than_the_recursion_limit(capsys):
    n = sys.getrecursionlimit() + 500
    data = run_json(capsys, "ehrhart", "points", "--forest", "1" * (n - 1) + "0",
                    "--n", "0", "--format", "json")
    assert data["count"] == 1
    assert data["points"] == [",".join("0" * n)]


def test_ehrhart_qcount_on_a_chain_deeper_than_the_recursion_limit(capsys):
    n = sys.getrecursionlimit() + 500
    data = run_json(capsys, "ehrhart", "qcount", "--forest", "1" * (n - 1) + "0",
                    "--n", "0", "--format", "json")
    assert data["q_terms"] == {"0": "1"}


def test_max_linear_extension_of_a_1000_node_chain():
    # the root is last, after the chain below it
    assert max_linear_extension((chain_tree(1000),)) == tuple(range(1, 1001))


def test_hopf_coproduct_golden(capsys):
    data = run_json(capsys, "hopf", "coproduct", "--forest", "2100",
                    "--basis", "Y", "--format", "json")
    assert data["terms"] == {
        "e (x) 2100": "1", "0 (x) 110": "1", "0 (x) 200": "1",
        "10 (x) 10": "1", "00 (x) 10": "1", "100 (x) 0": "1",
        "2100 (x) e": "1"}


def test_hopf_coproduct_on_a_chain_deeper_than_the_recursion_limit(capsys):
    # the cuts of a chain are its 1,001 splits, each lower part one chain
    data = run_json(capsys, "hopf", "coproduct", "--forest", "1" * 999 + "0",
                    "--basis", "Y", "--format", "json")
    assert len(data["terms"]) == 1001
    assert set(data["terms"].values()) == {"1"}
    assert data["terms"]["1" * 999 + "0 (x) e"] == "1"


def test_hopf_product_golden(capsys):
    data = run_json(capsys, "hopf", "product", "--left", "10",
                    "--right", "10", "--basis", "X", "--format", "json")
    assert data["terms"] == {"1010": "2", "1110": "1", "2010": "1",
                             "2100": "1"}


def test_idem_eulerian_golden(capsys):
    data = run_json(capsys, "idem", "eulerian", "--n", "4", "--k", "1",
                    "--format", "json")
    assert data["terms"] == {"1110": "1/4", "1200": "1/6", "2010": "1/12",
                             "2100": "1/12"}


def test_birkhoff_d_lambda_ribbon(capsys):
    data = run_json(capsys, "birkhoff", "d-lambda", "--lambda", "2,1",
                    "--basis", "R", "--format", "json")
    assert data["terms"]["4"] == "3"
    assert data["terms"]["1,1,1,1"] == "-3"


def test_birkhoff_words_count(capsys):
    data = run_json(capsys, "birkhoff", "words", "--I", "1,1,2",
                    "--model", "S", "--format", "json")
    assert data["count"] == 9


def test_ehrhart_poly_golden(capsys):
    data = run_json(capsys, "ehrhart", "poly", "--forest", "200",
                    "--format", "json")
    assert data["poly"] == "1 + 13/6*x + 3/2*x^2 + 1/3*x^3"


def test_ehrhart_qcount_golden(capsys):
    data = run_json(capsys, "ehrhart", "qcount", "--forest", "200",
                    "--n", "2", "--format", "json")
    assert data["q_terms"] == {"0": "1", "1": "1", "2": "3", "3": "3",
                               "4": "3", "5": "2", "6": "1"}


def test_verify_suite(capsys):
    data = run_json(capsys, "verify", "--suite", "tamari", "--n", "4",
                    "--format", "json")
    assert data["passed"] is True
    assert data["counterexamples"] == []


def test_json_determinism(capsys):
    _, first = run(capsys, "idem", "eulerian", "--n", "4", "--k", "2",
                   "--format", "json")
    _, second = run(capsys, "idem", "eulerian", "--n", "4", "--k", "2",
                    "--format", "json")
    assert first == second


def test_text_format_runs(capsys):
    code, out = run(capsys, "hopf", "product", "--left", "10",
                    "--right", "10", "--basis", "X")
    assert code == 0
    assert "2100" in out
