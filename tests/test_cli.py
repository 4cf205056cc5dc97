"""Command-line interface: JSON output, exit codes, reproducibility."""

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product

import pytest

import utpoly.cli
import utpoly.fields
import utpoly.freealg
import utpoly.parsing
import utpoly.solver
import utpoly.triangular
from utpoly.cli import ORACLE_NOTE, build_parser, main
from utpoly.fields import FieldDescriptor
from utpoly.freealg import NcPolynomial
from utpoly.triangular import (UTMatrix, evaluate,
                               evaluate_structured)


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_order_command(capsys):
    data = run_json(capsys, "order", "--poly", "x1*x2-x2*x1")
    assert data["r"] == 1
    assert data["witness"]["entry"] == [1, 2]


def test_order_cap_reported(capsys):
    data = run_json(capsys, "order", "--poly",
                    "(x1*x2-x2*x1)*(x3*x4-x4*x3)", "--max-n", "1")
    assert data["r"] == "cap"


def test_classify_command_matches_reference(capsys):
    data = run_json(capsys, "classify", "--poly",
                    "(x1*x2-x2*x1)*(x3*x4-x4*x3)", "--n", "5")
    assert data == {"affine_dim": 6, "band": 1, "case": "dense_in_band",
                    "n": 5, "r": 2}


def test_eval_generic(capsys):
    data = run_json(capsys, "eval", "--poly", "x1*x2-x2*x1",
                    "--generic", "--n", "2")
    result = data["result"]
    assert result["ring"] == "poly"
    entries = {(e["j"], e["k"]): e["value"] for e in result["entries"]}
    assert (1, 1) not in entries and (2, 2) not in entries
    assert "x[1,2,1]" in entries[(1, 2)] and "x[1,2,2]" in entries[(1, 2)]


def test_eval_generic_of_zero_in_no_variables(capsys):
    """The polynomial 0 has no variables and no terms: its generic
    evaluation is the zero matrix, as that of x1-x1 is.  It used to exit
    2 with ArityMismatch about a matrix the user never gave."""
    zero = run(capsys, "eval", "--poly", "0", "--generic", "--n", "2")
    assert zero == run(capsys, "eval", "--poly", "x1-x1", "--generic",
                       "--n", "2")
    assert zero == (0, '{"result":{"entries":[],"n":2,"ring":"poly"}}\n', "")


@pytest.mark.parametrize("modes", [(), ("--generic", "--matrices", "m.json")])
def test_eval_takes_exactly_one_mode(capsys, modes):
    """--matrices and --generic are one required group: giving both was
    read as --generic with the file ignored."""
    code, out, err = run(capsys, "eval", "--poly", "x1*x2-x2*x1", "--n", "2",
                         *modes)
    assert code == 1 and out == "" and "utpoly" in err and "error:" in err


def test_eval_matrices_refuses_n(tmp_path, capsys):
    """--n belongs to --generic: with --matrices it used to be ignored,
    the product printed at the file's own size with exit 0."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"matrices": [{"n": 2, "entries": []}] * 2}))
    code, out, err = run(capsys, "eval", "--poly", "x1*x2-x2*x1",
                         "--matrices", str(f), "--n", "7")
    assert code == 1 and out == "" and "UsageError" in err and "--n" in err
    # without --n the same file evaluates, by the direct route by default
    assert run_json(capsys, "eval", "--poly", "x1*x2-x2*x1",
                    "--matrices", str(f))["result"]["n"] == 2


def test_eval_generic_refuses_route(capsys):
    """--route belongs to --matrices: --generic takes no route, and used
    to ignore it with exit 0."""
    for route in ("direct", "structured"):
        code, out, err = run(capsys, "eval", "--poly", "x1*x2-x2*x1",
                             "--generic", "--n", "2", "--route", route)
        assert code == 1 and out == "" and "UsageError" in err
        assert "--route" in err


def test_eval_concrete_routes_agree(tmp_path, capsys):
    mats = {"matrices": [
        {"n": 2, "ring": "field",
         "entries": [{"j": 1, "k": 1, "value": "1"},
                     {"j": 1, "k": 2, "value": "2"}]},
        {"n": 2, "ring": "field",
         "entries": [{"j": 1, "k": 2, "value": "5"},
                     {"j": 2, "k": 2, "value": "3"}]},
    ]}
    f = tmp_path / "mats.json"
    f.write_text(json.dumps(mats))
    outs = []
    for route in ("direct", "structured"):
        outs.append(run_json(capsys, "eval", "--poly", "x1*x2-x2*x1",
                             "--matrices", str(f), "--route", route))
    assert outs[0] == outs[1]


def test_eval_structured_complex_pinned(tmp_path, capsys):
    """The structured route over C, which the golden corpus never runs:
    its float summation order is pinned to the byte (the direct route
    differs from it in the last bits of several entries)."""
    def matrix(entries):
        return {"n": 4, "entries": [{"j": j, "k": k, "value": v}
                                    for (j, k), v in entries.items()]}
    f = tmp_path / "mats.json"
    f.write_text(json.dumps({"matrices": [
        matrix({(1, 1): "0.3+1.1j", (1, 2): "-1.7+0.2j", (1, 3): "0.9-0.4j",
                (1, 4): "2.3", (2, 2): "-0.6+0.7j", (2, 3): "1.3j",
                (2, 4): "-0.1-2.2j", (3, 3): "1.9-0.3j", (3, 4): "0.7+0.7j",
                (4, 4): "-1.1"}),
        matrix({(1, 1): "-0.8+0.5j", (1, 2): "0.4+1.6j", (1, 4): "-1.3+0.9j",
                (2, 2): "1.2-0.9j", (2, 3): "-2.1+0.1j", (2, 4): "0.6",
                (3, 3): "0.2+0.2j", (3, 4): "-0.5-1.4j",
                (4, 4): "1.7+0.6j"})]}))
    code, out, err = run(capsys, "eval", "--poly",
                         "(0.7-1.3j)*x1*x2*x1 + 1.1*x2*x1*x2*x2"
                         " - (x1*x2-x2*x1)*x1 + x2^2",
                         "--field", "C", "--matrices", str(f),
                         "--route", "structured")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "72a60e87b1f1b87340563127cd8f9282b1ed0e49dc8ce7809414bd054ae180a1"


@pytest.mark.parametrize("route", ["direct", "structured"])
def test_empty_matrix_tuple_is_an_arity_error(tmp_path, capsys, route):
    """The polynomial 0 takes no matrices, and an empty tuple has no size
    to evaluate at: both routes say so.  The structured route used to
    say FieldMismatch, as if the matrices were over the wrong ring."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"matrices": []}))
    code, out, err = run(capsys, "eval", "--poly", "0", "--matrices", str(f),
                         "--route", route)
    assert (code, out) == (2, "")
    assert err == ("utpoly: ArityMismatch: cannot evaluate with an empty "
                   "matrix tuple\n")


@pytest.mark.parametrize("command", ["solve", "eval"])
def test_c_answers_ignore_an_equal_polynomial_run_before(tmp_path, capsys,
                                                         command):
    """p1 is p2 with its terms in reverse order: an equal polynomial, whose
    coefficient polynomials over C sum their floats in another order.
    A live-slot index shared between the two made a C request on p2
    print other bytes after one on p1.  Re-reading p2 still reuses its
    own index."""
    p2 = "1.3*x1*x2*x1 - 0.9*x2*x1*x1 + 0.3*x1*x1*x2 + 0.7*x2*x1 + 0.1*x1*x2"
    p1 = "0.1*x1*x2 + 0.7*x2*x1 + 0.3*x1*x1*x2 - 0.9*x2*x1*x1 + 1.3*x1*x2*x1"
    c = FieldDescriptor.parse("C")
    terms = list(NcPolynomial.parse(p2, c).terms.items())
    assert list(NcPolynomial.parse(p1, c).terms.items()) == terms[::-1]
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"n": 3, "entries": [
        {"j": j, "k": k, "value": f"{j + 2 * k}.5"}
        for j in range(1, 4) for k in range(j, 4)]}))
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps({"matrices": [{"n": 3, "entries": [
        {"j": j, "k": k, "value": f"{0.3 * j + 0.7 * k + i:.3f}"}
        for j in range(1, 4) for k in range(j, 4)]} for i in range(2)]}))
    rest = {"solve": ("--n", "3", "--target", str(target)),
            "eval": ("--matrices", str(mats), "--route", "structured")}[command]

    def request(poly):
        return run(capsys, command, "--poly", poly, "--field", "C", *rest)

    shared = utpoly.freealg.shared_parse
    shared.cache_clear()
    alone = request(p2)
    assert alone[0] == 0, alone[2]
    hits = shared.cache_info().hits
    assert request(p2) == alone
    assert shared.cache_info().hits > hits
    shared.cache_clear()
    request(p1)
    assert request(p2) == alone


def test_coeffs_slots(capsys):
    data = run_json(capsys, "coeffs", "--poly", "x1*x2-x2*x1",
                    "--slots", "1")
    assert data["coeff_poly"] == "-z[1,2] + z[2,2]"
    assert data["is_zero"] is False


def test_coeffs_leading(capsys):
    data = run_json(capsys, "coeffs", "--poly", "x1*x2-x2*x1",
                    "--leading", "1")
    assert data["leading_tuples"] == [[1], [2]]
    assert data["r"] == 1


def test_coeffs_leading_past_the_last_live_length(capsys):
    """No tuple of length 3 is live for a commutator: an empty list, not
    InternalInconsistency."""
    code, out, err = run(capsys, "coeffs", "--poly", "x1*x2-x2*x1",
                         "--leading", "3")
    assert code == 0, err
    assert out == '{"leading_tuples":[],"r":3}\n'


def test_coeffs_leading_past_the_degree_enumerates_nothing(capsys):
    """R past the degree of p has no placement: an empty list at once.
    It used to end in an OverflowError traceback (a MemoryError at
    R = 10^12) from allocating R indices for the placements."""
    r = 10 ** 20
    code, out, err = run(capsys, "coeffs", "--poly", "x1*x2-x2*x1",
                         "--leading", str(r))
    assert (code, err) == (0, ""), err
    assert out == f'{{"leading_tuples":[],"r":{r}}}\n'


def test_solve_and_verify_roundtrip(tmp_path, capsys):
    target = {"n": 2, "ring": "field",
              "entries": [{"j": 1, "k": 2, "value": "5"}]}
    tf = tmp_path / "target.json"
    tf.write_text(json.dumps(target))
    data = run_json(capsys, "solve", "--poly", "x1*x2-x2*x1",
                    "--n", "2", "--target", str(tf))
    assert data["status"] == "exact"
    assert data["verify"]["target_met"] is True
    wf = tmp_path / "witness.json"
    wf.write_text(json.dumps(data))
    rep = run_json(capsys, "verify", "--poly", "x1*x2-x2*x1",
                   "--witness", str(wf), "--target", str(tf))
    assert rep["target_met"] is True and rep["dual_evaluation_agrees"] is True


def test_verify_open_set_rejects_zero_polynomial(tmp_path, capsys):
    # a zero polynomial has no order, so there are no band coordinates
    # to put the open-set condition on
    mats = [{"n": 2, "ring": "field",
             "entries": [{"j": 1, "k": 2, "value": str(i)}]} for i in (1, 2)]
    wf = tmp_path / "witness.json"
    wf.write_text(json.dumps(mats))
    code, out, err = run(capsys, "verify", "--poly", "x1*x2-x1*x2",
                         "--witness", str(wf), "--open-set", "y[1,2]")
    assert code == 2 and out == "" and "ZeroInput" in err


def test_verify_open_set_checks_coordinates_first(tmp_path, capsys,
                                                  monkeypatch):
    """verify refuses an open-set variable that is no band coordinate as
    hit does, before any evaluation: it used to run both routes and then
    stop on UnboundVariable."""
    def no_work(*args, **kwargs):
        raise AssertionError("evaluation before the coordinate check")

    monkeypatch.setattr(utpoly.solver, "evaluate", no_work)
    monkeypatch.setattr(utpoly.solver, "evaluate_structured", no_work)
    wf = tmp_path / "witness.json"
    wf.write_text(json.dumps([{"n": 3, "entries": []}] * 2))
    for command, extra in (("verify", ("--witness", str(wf))),
                           ("hit", ("--n", "3"))):
        code, out, err = run(capsys, command, "--poly", "x1*x2-x2*x1",
                             *extra, "--open-set", "y[1,1]")
        assert code == 2 and out == "", err
        assert err == ("utpoly: VariableOutOfRange: y[1,1] is not a band "
                       "coordinate for r=1, n=3\n")


def test_verify_open_set_at_order_zero_reads_the_diagonal(tmp_path, capsys):
    """Order 0 is dense in band -1, the whole algebra, so y[s,s] is one
    of its coordinates: verify used to refuse y[1,1] with exit 2."""
    wf = tmp_path / "witness.json"
    wf.write_text(json.dumps([{"n": 2, "entries": [
        {"j": 1, "k": 1, "value": "3"}, {"j": 1, "k": 2, "value": "5"}]}]))
    for open_set, met in (("y[1,1]-3", False), ("y[1,1]*y[1,2]-14", True),
                          ("y[2,2]", False)):
        rep = run_json(capsys, "verify", "--poly", "x1", "--witness", str(wf),
                       "--open-set", open_set)
        assert rep["open_set_met"] is met, open_set


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
@pytest.mark.parametrize("text,n", [("x1^2", 2), ("x1^2", 3),
                                    ("x1*x2-x2*x1", 3),
                                    ("(x1*x2-x2*x1)^2", 4)])
def test_zero_target_solves_to_the_zero_tuple(tmp_path, capsys, monkeypatch,
                                              field, text, n):
    """p(0) = 0 at every order (0, 1 and 2 here), so the zero target
    needs no sweep.  x1^2 and (x1*x2-x2*x1)^2 exited 3: a zero target
    entry forced a zero slope further on in every sweep."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep run for the zero target")

    monkeypatch.setattr(utpoly.solver, "_sweep", no_sweep)
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": n, "entries": []}))
    data = run_json(capsys, "solve", "--poly", text, "--field", field,
                    "--n", str(n), "--target", str(tf))
    assert data["diagnostics"]["attempts"] == 0
    assert all(a["entries"] == [] for a in data["matrices"])
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps(data))
    rep = run_json(capsys, "verify", "--poly", text, "--field", field,
                   "--witness", str(wf), "--target", str(tf))
    assert rep["target_met"] is True


_FIVE = ("(x1*x2-x2*x1)*(x3*x4-x4*x3)*(x1*x3-x3*x1)*(x2*x4-x4*x2)"
         "*(x1*x4-x4*x1)")
_SIX = _FIVE + "*(x2*x3-x3*x2)"
_SEVEN = _SIX + "*(x1*x2-x2*x1)"


@pytest.mark.parametrize("command", ["solve", "hit", "verify"])
def test_commands_that_know_n_search_the_order_below_n(tmp_path, capsys,
                                                       command):
    """A product of seven commutators has order 7.  At n = 3 only r >= 3
    matters; these took about 20 s each when the order was searched up
    to deg p = 14.  Runtime budget: 2 s each, from a cold cache."""
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": 3, "entries": []}))
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps([{"n": 3, "entries": []}] * 4))
    extra = {"solve": ("--n", "3", "--target", str(tf)),
             "hit": ("--n", "3", "--open-set", "y[1,3]"),
             "verify": ("--witness", str(wf), "--open-set", "1")}[command]
    utpoly.freealg.shared_parse.cache_clear()
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, "--poly", _SEVEN, *extra)
    elapsed = time.perf_counter() - t0
    if command == "hit":
        assert code == 2 and out == ""
        assert "OrderMismatch" in err and "r >= n = 3" in err
    else:
        assert code == 0, err
    assert elapsed < 2.0, elapsed


def test_generic_monomial_budget_fires_before_the_fold(capsys, monkeypatch):
    """The guard counts the product of x1*x2 at n = 260 from its word
    and n before the fold, so under a budget of 10 it stops before
    building any of its 2.96 M monomials (about 9.7 s and 440 MB when it
    summed the finished product).  Runtime budget: 1 s."""
    monkeypatch.setattr(utpoly.triangular, "_MONOMIAL_BUDGET", 10)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "eval", "--generic", "--poly", "x1*x2",
                         "--n", "260")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    assert "ResourceLimit: symbolic matrix grew past 10 monomials" in err
    assert elapsed < 1.0, elapsed


def test_generic_monomial_budget_fires_at_n_400(capsys):
    """At n = 400 the first product of x1*x2 would pass 10^6 monomials;
    the layout of its packed monomials is checked first, and must stay
    cheap enough for the budget to fire within the runtime budget: 3 s."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "eval", "--generic", "--poly", "x1*x2",
                         "--n", "400")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    assert "ResourceLimit: symbolic matrix grew past 1000000 monomials" in err
    assert elapsed < 3.0, elapsed


def test_generic_evaluation_refuses_a_wide_packing(capsys):
    """generic_evaluate packs each monomial into one int with a field per
    variable of the letters p holds.  Past _MAX_PACKED_BITS it refuses
    before building any table, whatever --m adds in unused letters.
    Runtime budget: 0.5 s."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "eval", "--generic", "--poly", "x1*x2",
                         "--n", "2000")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    bound = utpoly.triangular._MAX_PACKED_BITS
    assert err.startswith("utpoly: ResourceLimit: generic evaluation at n = 2000 ")
    assert err.endswith(f"bits, past the limit of {bound}\n")
    assert elapsed < 0.5, elapsed
    # letters p does not hold take no bits
    narrow = run(capsys, "eval", "--generic", "--poly", "x1*x2", "--n", "3")
    assert run(capsys, "eval", "--generic", "--poly", "x1*x2", "--n", "3",
               "--m", "400") == narrow


@pytest.mark.parametrize("command", [("order",), ("eval", "--generic", "--n", "3")])
def test_a_huge_m_is_read_like_the_letters_p_holds(capsys, command):
    """--m past the letters of p declares letters p does not hold: the
    generic evaluation keys its tables by the letters p holds, so the
    answer is that of --m 2.  A table per declared letter used to end in
    an OverflowError traceback (a MemoryError at m = 10^9)."""
    argv = (*command, "--poly", "x1*x2-x2*x1", "--m")
    code, out, err = run(capsys, *argv, str(10 ** 20))
    assert (code, err) == (0, ""), err
    assert (code, out, err) == run(capsys, *argv, "2")


_TARGET_3 = {"n": 3, "entries": [{"j": 1, "k": 2, "value": "1"}]}
_HUGE = {"matrices": [{"n": 10 ** 9, "entries": [{"j": 1, "k": 2, "value": "1"}]},
                      {"n": 10 ** 9, "entries": [{"j": 2, "k": 3, "value": "1"}]}]}
_EMPTY_800 = {"matrices": [{"n": 800, "entries": []}, {"n": 800, "entries": []}]}


@pytest.mark.parametrize("argv,file,m,n", [
    (("hit", "--n", "100000", "--open-set", "y[1,2]"), None, 2, 100000),
    (("hit", "--m", str(10 ** 20), "--n", "3", "--open-set", "y[1,2]"), None, 10 ** 20, 3),
    (("solve", "--m", str(10 ** 20), "--n", "3", "--target"), _TARGET_3, 10 ** 20, 3),
    (("solve", "--n", "1500", "--target"), {"n": 1500, "entries": []}, 2, 1500),
    (("eval", "--route", "direct", "--matrices"), _HUGE, 2, 10 ** 9),
    (("eval", "--route", "structured", "--matrices"), _HUGE, 2, 10 ** 9),
    (("verify", "--open-set", "y[1,2]", "--witness"), _HUGE, 2, 10 ** 9),
    (("verify", "--witness"), _EMPTY_800, 2, 800),
], ids=["hit-n", "hit-m", "solve-m", "solve-zero-target", "eval-direct",
        "eval-structured", "verify-open-set", "verify-empty-800"])
def test_a_witness_past_the_entry_bound_is_refused_first(tmp_path, capsys, monkeypatch,
                                                         argv, file, m, n):
    """A tuple of m matrices of size n holds m * n(n+1)/2 entries.  Past
    the bound, a solve or hit witness and an eval or verify matrix file
    exit 2 before any listing, sampling, product or replay: hit --n 100000
    once listed 5 * 10^9 band coordinates and ended in a MemoryError,
    --m 10^20 sampled a value per declared letter, and the zero target
    of size 1500 was replayed on zero matrices for over 20 s.  A file of
    two matrices at n = 10^9 ran past 10 s on either eval route (the
    products loop over k up to n, the structured route reads n
    diagonals) and ended verify --open-set in a MemoryError, and verify
    on two empty matrices at n = 800 walked every entry's paths for over
    10 s."""
    for name in ("exact_order", "band_coordinates", "_replay"):
        monkeypatch.setattr(utpoly.solver, name, _forbidden)
    for name in ("_product", "structured_entry"):
        monkeypatch.setattr(utpoly.triangular, name, _forbidden)
    monkeypatch.setattr(UTMatrix, "entry", _forbidden)
    if file is not None:
        tf = tmp_path / "m.json"
        tf.write_text(json.dumps(file))
        argv += (str(tf),)
    code, out, err = run(capsys, *argv, "--poly", "x1*x2-x2*x1")
    bound = utpoly.triangular._MAX_TUPLE_ENTRIES
    assert (code, out, err) == (
        2, "", f"utpoly: ResourceLimit: a tuple of m = {m} matrices at n = {n} "
               f"holds {m * n * (n + 1) // 2} entries, past the limit of {bound}\n")


def test_order_of_five_commutators_within_budget(capsys):
    """order probes the generic evaluation at sizes 1..6 of a product of
    five commutators (order 5), in about 0.1 s.  Runtime budget: 4 s."""
    t0 = time.perf_counter()
    data = run_json(capsys, "order", "--poly", _FIVE)
    elapsed = time.perf_counter() - t0
    assert data["r"] == 5 and data["witness"]["entry"] == [1, 6]
    assert elapsed < 4.0, elapsed


def test_order_of_six_commutators_within_budget(capsys):
    """order probes the generic evaluation at sizes 1..7 of a product of
    six commutators (order 6), in about 1 s.  stdout is pinned to the
    byte.  Runtime budget: 4 s."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "order", "--poly", _SIX)
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert json.loads(out)["r"] == 6
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1644f065af45d5fee59c323147fbe3d0a7d33ce47e94a32d9d83bf1db1176ff8")
    assert elapsed < 4.0, elapsed


@pytest.mark.parametrize("field", ["C:inf", "C:1e400"])
def test_complex_tolerance_must_be_finite(tmp_path, capsys, field):
    """Within an infinite eps every value is zero: eval printed the zero
    matrix for x1 at a matrix with diagonal entry 5, with exit 0."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps([{"n": 1, "entries": [
        {"j": 1, "k": 1, "value": "5"}]}]))
    for argv in (("classify", "--n", "2"), ("eval", "--matrices", str(f))):
        code, out, err = run(capsys, argv[0], "--poly", "x1", "--field",
                             field, *argv[1:])
        assert code == 1 and out == "", err
        assert err.startswith("utpoly: ParseError: tolerance must be")


def test_solve_routes_order_zero(tmp_path, capsys):
    target = {"n": 2, "ring": "field",
              "entries": [{"j": 1, "k": 1, "value": "4"},
                          {"j": 2, "k": 2, "value": "9"},
                          {"j": 1, "k": 2, "value": "5"}]}
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(target))
    data = run_json(capsys, "solve", "--poly", "x1^2", "--n", "2",
                    "--target", str(tf))
    assert data["status"] == "exact"


def test_hit_command(capsys):
    data = run_json(capsys, "hit", "--poly", "x1*x2-x2*x1", "--n", "3",
                    "--open-set", "y[1,2]*y[2,3]-1")
    assert data["verify"]["open_set_met"] is True


@pytest.mark.parametrize("text", ["(1e-5*y[1,2])*(1e-5*y[1,2])*1e10",
                                  "1e10*(1e-5*y[1,2])*(1e-5*y[1,2])",
                                  "(1e-5*y[1,2])^2*1e10"])
def test_an_open_set_over_c_does_not_depend_on_its_bracketing(capsys, text):
    """Each text is y[1,2]^2 up to rounding: its term map is built
    whole and its zeros dropped once.  The first and last exited 2 with
    ZeroInput, the 1e-10 of an intermediate product dropped as zero."""
    data = run_json(capsys, "hit", "--poly", "x1*x2-x2*x1", "--field", "C",
                    "--n", "3", "--open-set", text)
    assert data["verify"]["open_set_met"] is True


def test_oracle_enum_reference_case(capsys):
    data = run_json(capsys, "oracle-enum", "--poly", "x1*x2-x2*x1",
                    "--field", "Fp:2", "--n", "2")
    assert data["tuples"] == 64
    assert data["image_size"] == 2
    assert data["dual_evaluation_agrees"] is True
    values = {tuple((e["j"], e["k"], e["value"]) for e in img["entries"])
              for img in data["image"]}
    assert values == {(), ((1, 2, "1"),)}  # zero matrix and E12


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "order", "--poly", "x1+1")
    assert code == 2 and "ConstantTerm" in err


def test_exit_code_band_violation(tmp_path, capsys):
    target = {"n": 2, "ring": "field",
              "entries": [{"j": 1, "k": 1, "value": "1"}]}
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(target))
    code, _, err = run(capsys, "solve", "--poly", "x1*x2-x2*x1",
                       "--n", "2", "--target", str(tf))
    assert code == 2 and "BandViolation" in err


def test_exit_code_budget_error(tmp_path, capsys):
    # no square root of E12 over F_5: diagonal solve then slope both die
    target = {"n": 2, "ring": "field",
              "entries": [{"j": 1, "k": 2, "value": "1"}]}
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(target))
    code, _, err = run(capsys, "solve", "--poly", "x1^2", "--field", "Fp:5",
                       "--n", "2", "--target", str(tf))
    assert code == 3


def test_exit_code_usage(capsys):
    code, _, _ = run(capsys, "order")  # missing --poly
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys, "order", "--poly", "x1", "--field", "R")
    assert code == 1


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "solve", "--poly", "x1*x2-x2*x1", "--n", "2",
                       "--target", "/nonexistent/t.json")
    assert code == 1 and "not found" in err


# a pair (x1, x2) of 2x2 matrices over Q, at which x1*x2 - x2*x1 is -2 at (1,2)
_PAIR = {"matrices": [
    {"n": 2, "entries": [{"j": 1, "k": 1, "value": "1"}, {"j": 1, "k": 2, "value": "2"},
                         {"j": 2, "k": 2, "value": "3"}]},
    {"n": 2, "entries": [{"j": 1, "k": 1, "value": "5"}, {"j": 1, "k": 2, "value": "7"},
                         {"j": 2, "k": 2, "value": "11"}]}]}


@pytest.mark.parametrize("argv,code,error", [
    (("eval", "--poly", "x1*x2-x2*x1", "--matrices", "-"), 0, None),
    (("solve", "--poly", "x1*x2-x2*x1", "--n", "2", "--target", "PAIR"), 1,
     "UsageError"),
    (("eval", "--poly", "x1", "--generic"), 1, "UsageError"),
    (("order", "--poly", "x1", "--field", "C:abc"), 1, "ParseError"),
    (("oracle-enum", "--poly", "x1+x2+x3", "--field", "Fp:3", "--n", "3"), 2,
     "ResourceLimit"),
    (("hit", "--poly", "x1*x2-x2*x1", "--field", "Fp:2", "--n", "2",
      "--open-set", "y[1,2]^2 - y[1,2]", "--nonzero-budget", "5"), 3,
     "BudgetExhausted")])
def test_rarely_taken_exits(tmp_path, capsys, monkeypatch, argv, code, error):
    """A tuple read from stdin, a tuple file given as a target, --generic
    without --n, a bad C tolerance, more than two variables for
    oracle-enum, and an open set that F_2 never leaves: each exit code,
    and for a failure its one 'utpoly: <Error>:' line on stderr."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(_PAIR))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_PAIR)))
    got, out, err = run(capsys, *(str(pair) if a == "PAIR" else a for a in argv))
    assert got == code, err
    if error is None:
        assert err == ""
        assert json.loads(out)["result"]["entries"] == [
            {"j": 1, "k": 2, "value": "-2"}]
    else:
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"utpoly: {error}: "), err


def test_oracle_enum_guards(capsys):
    code, _, _ = run(capsys, "oracle-enum", "--poly", "x1", "--field", "Fp:7",
                     "--n", "2")
    assert code == 1  # only tiny primes allowed
    code, _, _ = run(capsys, "oracle-enum", "--poly", "x1", "--field", "Q",
                     "--n", "2")
    assert code == 1  # finite fields only
    code, _, _ = run(capsys, "oracle-enum", "--poly", "x1", "--field", "Fp:5",
                     "--n", "4")
    assert code == 2  # size guard is a resource limit, not a usage error


def test_oracle_enum_tuple_limit(capsys, monkeypatch):
    """5^12 tuples pass the n and m caps but not ORACLE_TUPLE_LIMIT,
    which refuses them before any evaluation."""
    monkeypatch.setattr(utpoly.cli, "evaluate", _forbidden)
    code, out, err = run(capsys, "oracle-enum", "--poly", "x1*x2",
                         "--field", "Fp:5", "--n", "3", "--m", "2")
    assert code == 2 and out == ""
    assert "ResourceLimit: 5^12 = 244140625 tuples exceeds 100000000" in err


def _forbidden(*args, **kwargs):
    raise AssertionError("forbidden call")


@pytest.mark.parametrize("q", [2, 3, 5])
def test_lanes_act_lane_by_lane(q):
    """+, * and ** by an int, each with a plain int on either side, % q,
    truthiness and ==, against the same operations on each lane's int."""
    rng = random.Random(q)
    tables = utpoly.cli._LaneTables(q)
    xs, ys = ([rng.randrange(q) for _ in range(40)] for _ in range(2))
    a, b = (utpoly.cli._Lanes(bytes(v), tables) for v in (xs, ys))

    def lanes(v):
        return list(v.data)

    assert lanes(a + b) == [(x + y) % q for x, y in zip(xs, ys)]
    assert lanes(a * b) == [x * y % q for x, y in zip(xs, ys)]
    for c in range(-q, 2 * q + 1):
        assert lanes(a + c) == lanes(c + a) == [(x + c) % q for x in xs]
        assert lanes(a * c) == lanes(c * a) == [x * c % q for x in xs]
    for e in range(8):
        assert lanes(a ** e) == [x ** e % q for x in xs]
    assert a % q is a
    zero = utpoly.cli._Lanes(bytes(40), tables)
    assert a and not zero and utpoly.cli._Lanes(bytes(39) + b"\1", tables)
    assert a == utpoly.cli._Lanes(bytes(xs), tables) and a != b and a + zero == a


def per_tuple_oracle(text, field, n, m):
    """Reference for oracle-enum: its stdout computed one tuple at a
    time, each route called on plain F_q matrices."""
    desc = FieldDescriptor.parse(field)
    p = NcPolynomial.parse(text, desc, nvars=m)
    positions = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    values = [desc.from_int(v) for v in range(desc.p)]
    per_matrix = [UTMatrix(desc, n, dict(zip(positions, combo)))
                  for combo in product(values, repeat=len(positions))]
    image = {}
    dual_ok = True
    count = 0
    for tup in product(per_matrix, repeat=m):
        out = evaluate(p, list(tup))
        if dual_ok and not out.eq(evaluate_structured(p, list(tup))):
            dual_ok = False
        key = tuple(sorted(out.entries.items()))
        if key not in image:
            image[key] = out
        count += 1
    band_counts = {}
    for mat in image.values():
        lvl = str(mat.band_level())
        band_counts[lvl] = band_counts.get(lvl, 0) + 1
    doc = {"note": ORACLE_NOTE, "q": desc.p, "n": n, "m": m, "tuples": count,
           "dual_evaluation_agrees": dual_ok, "image_size": len(image),
           "band_counts": band_counts,
           "image": [image[k].to_json() for k in sorted(image)]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _random_poly_text(rng, q, m):
    """Up to five terms of up to four letters; a repeated word adds its
    coefficients, which may cancel."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        word = "*".join(f"x{rng.randint(1, m)}" for _ in range(rng.randint(1, 4)))
        terms.append(f"{rng.randint(1, q - 1)}*{word}")
    return "+".join(terms)


# every (q, n, m) with at most 729 tuples
_SMALL_ENUMERATIONS = [(q, n, m) for q in (2, 3, 5) for n in (1, 2, 3)
                       for m in (1, 2) if q ** (m * n * (n + 1) // 2) <= 729]
_SPECIAL_POLYS = [
    ("0", "Fp:2", 2, 1), ("0", "Fp:3", 3, 1), ("0", "Fp:5", 1, 2),
    ("x1^4", "Fp:3", 3, 1), ("x1^2+x1^5", "Fp:5", 2, 1), ("x1^3", "Fp:2", 3, 1),
    ("x1^3-x1", "Fp:3", 3, 1),                    # zero on every diagonal
    ("x1*x2+2*x1*x2", "Fp:3", 2, 2),              # the coefficients cancel
    ("x1*x2-x2*x1+x1*x1*x2", "Fp:3", 2, 2),
]


@pytest.mark.parametrize("q,n,m", _SMALL_ENUMERATIONS)
def test_oracle_enum_lanes_match_the_per_tuple_loop(capsys, monkeypatch, q, n, m):
    """Chunks of 7 lanes, so most enumerations end in a partial chunk."""
    monkeypatch.setattr(utpoly.cli, "ORACLE_CHUNK", 7)
    rng = random.Random(q * 100 + n * 10 + m)
    for _ in range(2):
        text = _random_poly_text(rng, q, m)
        argv = ("--poly", text, "--field", f"Fp:{q}", "--n", str(n), "--m", str(m))
        code, out, err = run(capsys, "oracle-enum", *argv)
        assert code == 0, err
        assert out == per_tuple_oracle(text, f"Fp:{q}", n, m), text


@pytest.mark.parametrize("text,field,n,m", _SPECIAL_POLYS)
def test_oracle_enum_lanes_match_on_special_polys(capsys, monkeypatch, text,
                                                  field, n, m):
    monkeypatch.setattr(utpoly.cli, "ORACLE_CHUNK", 7)
    code, out, err = run(capsys, "oracle-enum", "--poly", text, "--field", field,
                         "--n", str(n), "--m", str(m))
    assert code == 0, err
    assert out == per_tuple_oracle(text, field, n, m)


def test_oracle_enum_sees_one_wrong_lane(capsys, monkeypatch):
    """The structured route made wrong in lane 3 of the second of four
    chunks of 7, 7, 7 and 6 tuples: the routes no longer agree, and the
    image, read from the direct route, stays as it was."""
    monkeypatch.setattr(utpoly.cli, "ORACLE_CHUNK", 7)
    argv = ("oracle-enum", "--poly", "x1^2", "--field", "Fp:3", "--n", "2")
    good = run_json(capsys, *argv)
    real = utpoly.cli.evaluate_structured
    chunks = []

    def wrong_in_one_lane(p, mats):
        out = real(p, mats)
        chunks.append(out)
        if len(chunks) == 2:
            v = out.entries[(1, 1)]
            data = bytearray(v.data)
            data[3] = (data[3] + 1) % 3
            out.entries[(1, 1)] = type(v)(bytes(data), v.tables)
        return out

    monkeypatch.setattr(utpoly.cli, "evaluate_structured", wrong_in_one_lane)
    bad = run_json(capsys, *argv)
    assert len(chunks) == 2     # once the routes disagree, it is not called again
    assert good["dual_evaluation_agrees"] is True
    assert bad["dual_evaluation_agrees"] is False
    assert {**bad, "dual_evaluation_agrees": True} == good


@pytest.mark.parametrize("chunk,chunks", [(4096, 1), (7, 105)])
def test_oracle_enum_runs_each_route_once_per_chunk(capsys, monkeypatch,
                                                    chunk, chunks):
    monkeypatch.setattr(utpoly.cli, "ORACLE_CHUNK", chunk)
    calls = Counter()
    for name in ("evaluate", "evaluate_structured"):
        route = getattr(utpoly.cli, name)
        monkeypatch.setattr(utpoly.cli, name, lambda p, mats, route=route, name=name:
                            calls.update([name]) or route(p, mats))
    data = run_json(capsys, "oracle-enum", "--poly", "x1*x2-x2*x1+x1*x1*x2",
                    "--field", "Fp:3", "--n", "2", "--m", "2")
    assert data["tuples"] == 729 and data["dual_evaluation_agrees"] is True
    assert calls == {"evaluate": chunks, "evaluate_structured": chunks}


def test_oracle_enum_f5_n3_within_budget():
    """15,625 tuples over F_5, timed as a process with its start-up:
    about 2.0 s one tuple at a time, 0.3 s in lane chunks.  The digest
    is that of the per-tuple enumeration's stdout."""
    src = os.path.dirname(os.path.dirname(utpoly.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "utpoly.cli", "oracle-enum", "--poly",
         "x1^2+2*x1^3", "--field", "Fp:5", "--n", "3"],
        capture_output=True, env=env, timeout=60)
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == \
        "0f12ae774c78698739f8363f0017271202081b69c5a97aad00f74b8d06ab6fb0"
    assert elapsed < 1.2, elapsed


def test_byte_determinism(capsys):
    a = run_json(capsys, "order", "--poly", "x1*x2-x2*x1")
    b = run_json(capsys, "order", "--poly", "x1*x2-x2*x1")
    assert a == b


def test_solve_byte_determinism(tmp_path, capsys):
    target = {"n": 3, "ring": "field",
              "entries": [{"j": 1, "k": 2, "value": "2"},
                          {"j": 1, "k": 3, "value": "-1/3"}]}
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(target))
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "solve", "--poly", "x1*x2-x2*x1",
                           "--n", "3", "--target", str(tf), "--seed", "11")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("seed,attempts,digest", [
    ("0", 4, "e90cd119326bc0402dc73d0512fad60c6e6c4fbb7b24258f1d41766a36994c85"),
    ("2", 6, "384be5e3550ccdb089dcfe22df946e435b6def95e17f96d16b41c6ca9ef09cd3"),
])
def test_solve_order_zero_retries_pinned(tmp_path, capsys, seed, attempts, digest):
    """Order-0 attempts that fail draw a fixed amount of randomness: the
    stdout of a solve that needs several attempts is pinned to the byte."""
    target = {"n": 3, "ring": "field",
              "entries": [{"j": 1, "k": 1, "value": "1"},
                          {"j": 2, "k": 2, "value": "1"},
                          {"j": 3, "k": 3, "value": "1"},
                          {"j": 1, "k": 3, "value": "2"}]}
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(target))
    code, out, err = run(capsys, "solve", "--poly", "x1^2", "--field", "Fp:3",
                         "--n", "3", "--target", str(tf), "--seed", seed)
    assert code == 0, err
    assert json.loads(out)["diagnostics"]["attempts"] == attempts
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_stdout_is_single_json_line(capsys):
    code, out, _ = run(capsys, "classify", "--poly", "x1", "--n", "2")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)


# C targets whose first witness has entries near 1e3, so the direct and
# structured routes differ by about 2e-9 (relative error ~1e-10): more
# than the absolute tolerance.
ILL_CONDITIONED = {
    "5+5j": ("(5.0+5.0j)*(x2*x4-x4*x2)*(x4*x2-x2*x4)",
             {(1, 3): "-1+2j", (1, 4): "-5j", (1, 5): "-8+1j", (2, 4): "3",
              (2, 5): "1j", (3, 5): "9+9j"}),
    "3+2j": ("(3.0+2.0j)*(x4*x2-x2*x4)*(x2*x4-x4*x2)",
             {(1, 3): "1", (1, 4): "-7+9j", (1, 5): "-3+8j", (2, 4): "-9-8j",
              (2, 5): "-5-7j", (3, 5): "-5-1j"}),
}


def _solve_ill_conditioned(tmp_path, capsys, case, *extra):
    poly, entries = ILL_CONDITIONED[case]
    target = {"n": 5, "ring": "field",
              "entries": [{"j": j, "k": k, "value": v}
                          for (j, k), v in entries.items()]}
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(target))
    return run(capsys, "solve", "--poly", poly, "--field", "C", "--n", "5",
               "--target", str(tf), *extra)


@pytest.mark.parametrize("case", sorted(ILL_CONDITIONED))
def test_solve_complex_resamples_when_routes_disagree(tmp_path, capsys, case):
    """A witness whose routes disagree is resampled instead of ending
    the solve with InternalInconsistency."""
    code, out, err = _solve_ill_conditioned(tmp_path, capsys, case)
    assert code == 0, err
    data = json.loads(out)
    assert data["diagnostics"]["attempts"] > 1
    assert data["verify"]["dual_evaluation_agrees"] is True
    assert data["verify"]["target_met"] is True


def test_solve_complex_routes_disagree_on_every_retry(tmp_path, capsys):
    code, out, err = _solve_ill_conditioned(tmp_path, capsys, "5+5j",
                                            "--retries", "1")
    assert code == 3 and out == ""
    assert "DegenerateCoefficient" in err and "'verify'" in err


# -- declared options -------------------------------------------------------------

_SWEEP = {"--n", "--seed", "--retries", "--height", "--diag-budget"}
DECLARED = {
    "order": {"--max-n", "--height"},
    "classify": {"--n"},
    "eval": {"--matrices", "--generic", "--n", "--route"},
    "coeffs": {"--slots", "--leading"},
    "solve": _SWEEP | {"--target"},
    "hit": _SWEEP | {"--open-set", "--nonzero-budget"},
    "oracle-enum": {"--n"},
    "verify": {"--witness", "--target", "--open-set"},
}


def test_each_subcommand_declares_only_what_it_reads():
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {name: {opt for a in sp._actions if a.dest != "help"
                       for opt in a.option_strings}
                for name, sp in sub.choices.items()}
    assert declared == {name: {"--poly", "--field", "--m"} | flags
                        for name, flags in DECLARED.items()}
    assert sum(len(opts) for opts in declared.values()) == 50


@pytest.mark.parametrize("argv", [
    ("order", "--poly", "x1*x2-x2*x1", "--seed", "3"),
    ("classify", "--poly", "x1", "--n", "2", "--retries", "4"),
    ("classify", "--poly", "x1", "--n", "2", "--max-n", "3"),
    ("coeffs", "--poly", "x1*x2-x2*x1", "--leading", "1",
     "--monomial-budget", "9"),
    ("order", "--poly", "x1", "--tolerance", "1e-6"),
    ("eval", "--poly", "x1", "--matrices", "m.json", "--route", "paths"),
    ("verify", "--poly", "x1", "--witness", "w.json", "--monomial-budget", "9"),
    ("solve", "--poly", "x1", "--n", "1", "--target", "t.json", "--max-n", "3"),
    ("hit", "--poly", "x1*x2-x2*x1", "--n", "2", "--open-set", "y[1,2]",
     "--max-n", "3"),
    ("solve", "--poly", "x1", "--n", "1", "--target", "t.json",
     "--monomial-budget", "5"),
    ("hit", "--poly", "x1*x2-x2*x1", "--n", "2", "--open-set", "y[1,2]",
     "--monomial-budget", "5"),
    ("eval", "--poly", "x1*x2", "--generic", "--n", "2", "--monomial-budget", "9"),
])
def test_undeclared_option_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "utpoly" in err and "error:" in err


def test_a_c_root_past_the_float_range_is_no_convergence(tmp_path, capsys):
    """x1^150 = 2 over C: every root iteration overflows and ends without
    roots, so solve exits 3 (NonConvergence), not with a non-finite
    witness.  The roots exist; finding them takes another iteration."""
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": 1, "entries": [{"j": 1, "k": 1, "value": "2"}]}))
    code, out, err = run(capsys, "solve", "--poly", "x1^150", "--field", "C",
                         "--n", "1", "--target", str(tf))
    assert (code, out, err) == (3, "", "utpoly: NonConvergence: root iteration did not converge\n")


def test_complex_tolerance_is_the_field_eps(tmp_path, capsys):
    """C:<tol> is the one tolerance: the target check of verify reads it."""
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps([{"n": 1, "entries": [
        {"j": 1, "k": 1, "value": "1.000001"}]}]))
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": 1, "entries": [
        {"j": 1, "k": 1, "value": "1"}]}))
    met = {}
    for field in ("C", "C:1e-3"):
        rep = run_json(capsys, "verify", "--poly", "x1", "--field", field,
                       "--witness", str(wf), "--target", str(tf))
        met[field] = rep["target_met"]
    assert met == {"C": False, "C:1e-3": True}


def _one_by_one(path, *values):
    """A file with one 1x1 matrix per value: a witness tuple, or a single
    matrix (a target) when one value is given."""
    mats = [{"n": 1, "entries": [{"j": 1, "k": 1, "value": v}]}
            for v in values]
    path.write_text(json.dumps(mats if len(mats) > 1 else mats[0]))
    return str(path)


def test_non_finite_complex_literal_is_a_parse_error(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--poly", "x1", "--field", "C",
                         "--witness", _one_by_one(tmp_path / "w.json", "nan"),
                         "--target", _one_by_one(tmp_path / "t.json", "1"))
    assert code == 1 and out == "" and "ParseError" in err


def test_nan_residual_fails_the_target(tmp_path, capsys):
    """x1*x2 - x2*x1 at 1e200, 1e200 is inf - inf = nan, and x1*x1 at
    1e200 is inf: the target is missed, not met with residual 0.0 as when
    max() dropped the NaN, and the residual reads null, since JSON has
    no NaN or Infinity."""
    for poly, witness in (("x1*x2-x2*x1", ("1e200", "1e200")),
                          ("x1*x1", ("1e200",))):
        code, out, err = run(capsys, "verify", "--poly", poly, "--field", "C",
                             "--witness",
                             _one_by_one(tmp_path / "w.json", *witness),
                             "--target", _one_by_one(tmp_path / "t.json", "1"))
        assert code == 0, err
        rep = json.loads(out, parse_constant=pytest.fail)
        assert rep["target_met"] is False, poly
        assert rep["target_residual"] is None, poly


@pytest.mark.parametrize("field", ["Q", "Fp:101", "C"])
def test_verify_refuses_a_target_of_another_size(tmp_path, capsys, field):
    """A 2x2 witness against a 3x3 target is a SizeMismatch on every
    field.  Over C verify once compared the two entry by entry within
    eps, and met this target, whose only entry is the witness's value."""
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(_PAIR))
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"n": 3, "entries": [
        {"j": 1, "k": 2, "value": "-2"}]}))
    code, out, err = run(capsys, "verify", "--poly", "x1*x2-x2*x1", "--field",
                         field, "--witness", str(witness), "--target", str(target))
    assert code == 2 and out == "", out
    assert err == "utpoly: SizeMismatch: sizes 2 and 3\n", err


@pytest.mark.parametrize("field", ["Q", "Fp:7", "C"])
def test_a_power_of_a_number_parses(tmp_path, capsys, field):
    """2^3*x1, once refused at its '^', prints the bytes of (2)^3*x1."""
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps([{"n": 2, "entries": [
        {"j": 1, "k": 1, "value": "3"}, {"j": 1, "k": 2, "value": "5"},
        {"j": 2, "k": 2, "value": "2"}]}] * 2))
    for argv in (["eval", "--matrices", str(mats)],
                 ["coeffs", "--slots", "1"], ["order"]):
        got, want = (run(capsys, *argv, "--field", field, "--poly",
                         f"{c}*x1*x2 - x2*x1 + 3*x1")
                     for c in ("2^3", "(2)^3"))
        assert got == want and got[0] == 0, argv


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < 4772,
    reason="needs Python's int-string limit below 4772 digits (default 4300)")


@needs_digit_limit
def test_a_value_past_the_digit_limit_exits_2(tmp_path, capsys):
    """x1^10000 at 1/3 is 1/3^10000, whose denominator has 4772 digits:
    past Python's int-string limit it is a ResourceLimit naming the
    limit, with no traceback and nothing on stdout, where it was a
    ValueError from deep inside the JSON output."""
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--poly", "x1^10000", "--matrices",
                         _one_by_one(tmp_path / "m.json", "1/3"))
    assert (code, out) == (2, "")
    assert err == (f"utpoly: ResourceLimit: a value with more than "
                   f"{DIGIT_LIMIT} digits, past Python's int-string "
                   f"conversion limit\n")
    assert time.perf_counter() - start < 1


@needs_digit_limit
@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_a_literal_past_the_digit_limit_exits_1(tmp_path, capsys, field):
    """A target literal of 5001 digits is a ParseError that names the
    limit, not a bare "bad literal"."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--poly", "x1", "--field", field,
                         "--witness", _one_by_one(tmp_path / "w.json", "2"),
                         "--target", _one_by_one(tmp_path / "t.json", "7" * 5001))
    assert (code, out) == (1, "")
    assert err == (f"utpoly: ParseError: bad literal: 5001 digits in a row, "
                   f"past Python's {DIGIT_LIMIT}-digit int-string conversion "
                   f"limit\n")
    assert time.perf_counter() - start < 1


@needs_digit_limit
@pytest.mark.parametrize("flag", ["--matrices", "--target", "--witness"])
def test_a_json_integer_past_the_digit_limit_exits_1(tmp_path, capsys, flag):
    """json.load refuses an integer of 5000 digits with a plain
    ValueError, not a JSONDecodeError: a ParseError naming the limit,
    where it was a traceback."""
    f = tmp_path / "m.json"
    f.write_text('{"n": ' + "1" * 5000 + ', "entries": []}')
    argv = {"--matrices": ("eval", "--matrices", str(f)),
            "--target": ("solve", "--n", "2", "--target", str(f)),
            "--witness": ("verify", "--witness", str(f), "--open-set", "1")}[flag]
    code, out, err = run(capsys, argv[0], "--poly", "x1", *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"utpoly: ParseError: bad JSON in {f}: ")
    assert f"limit ({DIGIT_LIMIT} digits)" in err and "Traceback" not in err


@pytest.mark.parametrize("poly", ["(x1+x2)^17", "x1^100000000"])
def test_a_product_past_the_parser_letter_limit_exits_2(tmp_path, capsys, poly):
    """(x1+x2)^17 expanded to 131,072 words and took 6.3 s and 60 MB in
    eval; x1^100000000 would build one word of 10^8 letters.  Each is a
    ResourceLimit naming the parser's letter limit, before any matrix is
    read.  Runtime budget: 0.5 s each."""
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--poly", poly, "--matrices",
                         _one_by_one(tmp_path / "m.json", "1", "2"))
    assert (code, out) == (2, "")
    assert err.startswith("utpoly: ResourceLimit: a product of ")
    assert err.endswith(f"past the parser's limit of {utpoly.parsing._MAX_LETTERS}\n")
    assert time.perf_counter() - start < 0.5


# order's stdout for 2^100000*x1, by field
_POWER_OF_TWO = {
    "Q": '{"max_n":2,"r":0,"witness":{"entry":[1,1],"n":1,'
         '"point":{"z[1,1]":"23/36"}}}\n',
    "Fp:101": '{"max_n":2,"r":0,"witness":{"entry":[1,1],"n":1,'
              '"point":{"z[1,1]":"49"}}}\n',
    "C": '{"max_n":2,"r":0,"witness":{"entry":[1,1],"n":1,'
         '"point":{"z[1,1]":"5.51074962440077+4.12727044704484j"}}}\n',
}


@pytest.mark.parametrize("field", ["Q", "Fp:101", "C"])
def test_a_power_of_a_number_is_bounded(capsys, field):
    """A number has no letters, so the letter limit does not bound its
    power.  Over F_p it is pow mod p, over Q an exact power whose bits are
    bounded beforehand, over C the left fold under a bound on the
    exponent; 2^100000 keeps its bytes on every field, and an exponent
    of 401 digits is refused, not overflowed.  Runtime budget: 1 s each."""
    start = time.perf_counter()
    assert run(capsys, "order", "--poly", "2^100000*x1", "--field", field) == (
        0, _POWER_OF_TWO[field], "")
    for e in ("100000000", "1" + "0" * 400):
        code, out, err = run(capsys, "order", "--poly", f"2^{e}*x1",
                             "--field", field)
        if field == "Fp:101":
            # 2^100 = 1 mod 101, and 100 divides both exponents
            assert (code, out, err) == (0, _POWER_OF_TWO[field], "")
        else:
            assert (code, out) == (2, ""), err
            bound = (utpoly.fields._MAX_POWER_BITS if field == "Q"
                     else utpoly.fields._MAX_POWER_FOLD)
            assert err.startswith("utpoly: ResourceLimit: a coefficient's power of ")
            assert err.endswith(f"past the parser's limit of {bound}\n")
    assert time.perf_counter() - start < 1


def test_a_power_of_zero_or_one_is_exact_over_q(capsys):
    """Over Q, 0, 1 and -1 keep their size under any power, so no bound
    refuses them, even at an exponent of 401 digits."""
    huge = "1" + "0" * 400
    x1 = run(capsys, "order", "--poly", "x1")
    assert x1[0] == 0
    for text in (f"1^{huge}*x1", f"(-1)^{huge}*x1", f"x1 + 0^{huge}*x2"):
        assert run(capsys, "order", "--poly", text) == x1, text


# the open-set parser's guarded texts, and their exit code by field
_OPEN_SET_POWERS = [
    ("y[1,2]^100000000", {"Q": 2, "Fp:101": 2, "C": 2}),
    ("(y[1,2]+1)^100000000", {"Q": 2, "Fp:101": 2, "C": 2}),
    ("2^100000000*y[1,2]", {"Q": 2, "Fp:101": 0, "C": 2}),
]


@pytest.mark.parametrize("text,field,code", [
    (text, field, codes[field]) for text, codes in _OPEN_SET_POWERS
    for field in ("Q", "Fp:101", "C")])
def test_an_open_set_power_is_bounded(capsys, text, field, code):
    """--open-set texts take the free parser's guards: a power of one
    monomial multiplies its exponents, so y[1,2]^100000000 is refused by
    the letter limit at once, a sum's power stops at the limit in the
    fold, and a number's power is FieldDescriptor.power, which over F_p
    is pow mod p (2^100 = 1 mod 101, so the text is y[1,2]).  Runtime
    budget: 1 s each."""
    start = time.perf_counter()
    argv = ("hit", "--poly", "x1*x2-x2*x1", "--field", field, "--n", "3")
    got = run(capsys, *argv, "--open-set", text)
    if code == 0:
        assert got == run(capsys, *argv, "--open-set", "y[1,2]")
    else:
        assert got[:2] == (2, ""), got
        assert got[2].startswith("utpoly: ResourceLimit: a ")
        assert "past the parser's limit of " in got[2]
    assert time.perf_counter() - start < 1


# -- long words and powers past the float range ------------------------------------

# diagonal 1, so over Q u^400 = 1 has the roots solve needs
_LONG_WORD_MATRIX = {"n": 4, "entries": [
    {"j": j, "k": k, "value": "1" if j == k else str(j + 2 * k)}
    for j in range(1, 5) for k in range(j, 5)]}
_LONG_WORD_REFUSED = ("utpoly: ResourceLimit: the live-slot index at k = 2 would "
                      "visit 31920000 letters of placements, past the limit of "
                      "10000000\n")


def _timed_process(*argv) -> tuple:
    """(exit code, stdout, stderr, seconds) of the CLI run as a process,
    its start-up included."""
    src = os.path.dirname(os.path.dirname(utpoly.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "utpoly.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - t0


@pytest.mark.parametrize("command,field", [
    *((command, field) for command in ("eval", "verify")
      for field in ("Q", "Fp:101", "C")), ("solve", "Q")])
def test_a_long_word_is_refused_before_its_placements(tmp_path, command, field):
    """x1^400 on a 4x4 matrix: the structured route (eval --route
    structured, and the replay of verify and solve) needs the live-slot
    index at k = 2, C(400, 2) = 79,800 placements of 400 letters each,
    31.9 M letters and about 6 s.  The guard refuses it before the
    enumeration starts.  Timed as a process, start-up included: 0.5 s.
    solve over Fp:101 ends earlier, with exit 3 at entry (1, 2), and
    over C the generic evaluation's monomial budget refuses it first
    (the test below), so neither is checked here.  The work is
    the same on every run, so the fastest of up to three runs is timed:
    on a busy shared machine solve's 0.3 s (root finding on its retries,
    then the guard) has taken 0.55 s."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps(_LONG_WORD_MATRIX if command == "solve"
                            else {"matrices": [_LONG_WORD_MATRIX]}))
    flag = {"eval": ("--matrices", str(f), "--route", "structured"),
            "verify": ("--witness", str(f)),
            "solve": ("--n", "4", "--target", str(f))}[command]
    for _ in range(3):
        code, out, err, seconds = _timed_process(command, "--poly", "x1^400",
                                                 "--field", field, *flag)
        assert (code, out, err) == (2, "", _LONG_WORD_REFUSED)
        if seconds < 0.5:
            break
    assert seconds < 0.5, seconds


@pytest.mark.parametrize("command,field", [
    ("eval", "Q"), ("eval", "Fp:101"), ("eval", "C"), ("solve", "C")])
def test_an_oversized_generic_fold_is_refused_before_it_starts(tmp_path, command, field):
    """x1^400 at n = 4: the generic evaluation (eval --generic, and the
    C sweep of solve) would hold C(404, 3) = 10,908,404 monomials in its
    last product, past the budget of 10^6.  The budget is read from p's
    words and n before the fold, where it once stopped the fold after
    5-8 s.  Timed as a process, start-up included, the fastest of up to
    three runs: 0.5 s."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps(_LONG_WORD_MATRIX))
    flag = {"eval": ("--generic",), "solve": ("--target", str(f))}[command]
    for _ in range(3):
        code, out, err, seconds = _timed_process(command, "--poly", "x1^400", "--field",
                                                 field, "--n", "4", *flag)
        assert (code, out, err) == (2, "", "utpoly: ResourceLimit: symbolic matrix grew "
                                           "past 1000000 monomials\n")
        if seconds < 0.5:
            break
    assert seconds < 0.5, seconds


_FLOAT_RANGE = "utpoly: ResourceLimit: a power over C is past the float range\n"


def test_a_power_past_the_float_range_is_a_resource_limit(tmp_path, capsys):
    """Over C, v ** e raises OverflowError past the float range, where a
    product gives inf or nan instead.  Both places that raise a value to
    a power, the structured walk and eval_full (here through the open-set
    check of hit), exit 2 with one stderr line, not a traceback.  The
    direct route's nan output is left as it is."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": 2, "entries": [
        {"j": 1, "k": 1, "value": "1e200"}, {"j": 1, "k": 2, "value": "1"},
        {"j": 2, "k": 2, "value": "3"}]}))
    argv = ("eval", "--poly", "x1^3", "--field", "C", "--matrices", str(f))
    assert run(capsys, *argv, "--route", "structured") == (2, "", _FLOAT_RANGE)
    assert run(capsys, *argv) == (0, (
        '{"result":{"entries":[{"j":1,"k":1,"value":"nan+nanj"},'
        '{"j":1,"k":2,"value":"nan+nanj"},{"j":2,"k":2,"value":"27+0j"}],'
        '"n":2,"ring":"field"}}\n'), "")
    assert run(capsys, "hit", "--poly", "x1*x2-x2*x1", "--field", "C", "--n", "3",
               "--open-set", "y[1,2]^400") == (2, "", _FLOAT_RANGE)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_solve_large_n_pinned(tmp_path, capsys):
    """The order-3 product of three commutators at n = 8, solved for a
    fixed band-2 target; stdout pinned to the byte.  Runtime budget: 8 s."""
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": 8, "ring": "field", "entries": [
        {"j": 1, "k": 4, "value": "1"}, {"j": 2, "k": 6, "value": "-2/3"},
        {"j": 3, "k": 8, "value": "5"}, {"j": 1, "k": 8, "value": "7/2"}]}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "solve", "--poly",
                         "(x1*x2-x2*x1)*(x3*x4-x4*x3)*(x5*x6-x6*x5)",
                         "--field", "Q", "--n", "8", "--target", str(tf))
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b786aa7df08319fb63602433ad802a5cffe6fbd13f1ade16a7a031740d669b7d"
    assert elapsed < 8.0, elapsed


def test_solve_large_n12_pinned(tmp_path, capsys):
    """The same order-3 product at n = 12, solved for a fixed band-2
    target; stdout pinned to the byte.  Runtime budget: 15 s."""
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": 12, "ring": "field", "entries": [
        {"j": 1, "k": 4, "value": "1"}, {"j": 2, "k": 6, "value": "-2/3"},
        {"j": 3, "k": 8, "value": "5"}, {"j": 1, "k": 8, "value": "7/2"},
        {"j": 5, "k": 12, "value": "-4"}, {"j": 1, "k": 12, "value": "1/5"}]}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "solve", "--poly",
                         "(x1*x2-x2*x1)*(x3*x4-x4*x3)*(x5*x6-x6*x5)",
                         "--field", "Q", "--n", "12", "--target", str(tf))
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "4de9cea9bcfcabef782e00e2c40b8a3a05e982e66ab5461055261941d0886972"
    assert elapsed < 15.0, elapsed


def test_solve_dense_band2_n14_pinned(tmp_path, capsys):
    """The same order-3 product at n = 14, solved for the dense band-2
    target whose entries (j, k), k - j >= 3, read 1, 2, 3, 4, 5, 1, ...
    in row order; stdout pinned to the byte.  On a shared 2-vCPU VM
    (Python 3.11) the command took about 7.2 s with a Fraction per term
    of the path walk and 2.1 s with the walk's sums on integers.  Runtime
    budget: 6 s."""
    n = 14
    cells = [(j, k) for j in range(1, n + 1) for k in range(j + 3, n + 1)]
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": n, "ring": "field", "entries": [
        {"j": j, "k": k, "value": str(1 + idx % 5)}
        for idx, (j, k) in enumerate(cells)]}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "solve", "--poly",
                         "(x1*x2-x2*x1)*(x3*x4-x4*x3)*(x5*x6-x6*x5)",
                         "--field", "Q", "--n", str(n), "--target", str(tf))
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ab01c44994d890de83382d197c43699d4d8dceefc72d4e7e90aea5bf2dbb46ac"
    assert elapsed < 6.0, elapsed


# -- matrix size below 1 ----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("solve", "--poly", "x1^2", "--n", "0"),
    ("solve", "--poly", "x1*x2-x2*x1", "--n", "-1"),
    ("hit", "--poly", "x1*x2-x2*x1", "--n", "0", "--open-set", "y[1,2]"),
    ("oracle-enum", "--poly", "x1*x2-x2*x1", "--field", "Fp:2", "--n", "0"),
    ("eval", "--poly", "x1*x2-x2*x1", "--generic", "--n", "0"),
])
def test_size_below_one_is_refused(tmp_path, capsys, argv):
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps({"n": int(argv[argv.index("--n") + 1]),
                              "entries": []}))
    extra = ("--target", str(tf)) if argv[0] == "solve" else ()
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2 and out == ""
    assert "ZeroInput: n must be at least 1" in err


@pytest.mark.parametrize("n", [0, -1])
def test_matrix_file_size_below_one_is_a_parse_error(tmp_path, capsys, n):
    f = tmp_path / "mats.json"
    f.write_text(json.dumps([{"n": n, "entries": []}]))
    code, out, err = run(capsys, "eval", "--poly", "x1", "--matrices", str(f))
    assert code == 1 and out == "" and "ParseError" in err


# -- malformed matrix files --------------------------------------------------------

_BAD_MATRICES = {
    "n not an integer": {"n": "two", "entries": []},
    "n infinite": {"n": float("inf"), "entries": []},
    "j not an integer": {"n": 2, "entries": [{"j": "a", "k": 2, "value": "3"}]},
    "k not an integer": {"n": 2, "entries": [{"j": 1, "k": "b", "value": "3"}]},
    # int() would truncate these and read true as 1
    "n not integral": {"n": 2.9, "entries": []},
    "k not integral": {"n": 2, "entries": [{"j": 1, "k": 2.6, "value": "3"}]},
    "j a boolean": {"n": 2, "entries": [{"j": True, "k": 2, "value": "3"}]},
    # a JSON string is not a JSON number, though int() would read these
    # as 10, 1, 2 and 2
    "n with an underscore": {"n": "1_0", "entries": []},
    "j padded with spaces": {"n": 2, "entries": [{"j": " 1 ", "k": 2, "value": "3"}]},
    "k a non-ASCII digit": {"n": 2, "entries": [{"j": 1, "k": "\u0662", "value": "3"}]},
    "n a digit string": {"n": "2", "entries": []},
    "entries not a list": {"n": 2, "entries": 5},
    "value not a string": {"n": 2, "entries": [{"j": 1, "k": 2, "value": 3}]},
    # a poly file is refused by its ring before its entries are parsed
    "poly value not a string": {"n": 2, "ring": "poly",
                                "entries": [{"j": 1, "k": 2, "value": 3}]},
}


@pytest.mark.parametrize("command,case", [
    *((command, case) for command in ("eval", "verify", "solve")
      for case in _BAD_MATRICES),
    ("eval", "matrices not a list"), ("verify", "matrices not a list")])
def test_malformed_matrix_file_is_a_parse_error(tmp_path, capsys, command, case):
    """A matrix tuple (eval --matrices, verify --witness) or a target
    (solve --target) the reader cannot take is refused with exit 1."""
    f = tmp_path / "m.json"
    if case == "matrices not a list":
        f.write_text(json.dumps({"matrices": 5}))
    elif command == "solve":
        f.write_text(json.dumps(_BAD_MATRICES[case]))
    else:
        f.write_text(json.dumps({"matrices": [_BAD_MATRICES[case]]}))
    argv = {"eval": ("eval", "--poly", "x1", "--matrices", str(f)),
            "verify": ("verify", "--poly", "x1", "--witness", str(f)),
            "solve": ("solve", "--poly", "x1*x2-x2*x1", "--n", "2",
                      "--target", str(f))}[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "", err
    assert "utpoly: ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("order", "--poly", "x\u00b2"),
    ("order", "--poly", "x\u0663"),
    ("hit", "--poly", "x1*x2-x2*x1", "--n", "3", "--open-set", "y[1,\u0663]"),
    ("order", "--poly", "x1", "--field", "Fp:\u00b2"),
    ("order", "--poly", "x1", "--field", "Fp:\u0663"),
    # psi_12 passed the primality test's old bases 2..37; psi_13 passes
    # every base it tries now
    ("classify", "--poly", "x1*x2-x2*x1", "--n", "3",
     "--field", "Fp:318665857834031151167461"),
    ("classify", "--poly", "x1*x2-x2*x1", "--n", "3",
     "--field", "Fp:3317044064679887385961981"),
    # past Python's int-string limit: refused by its length before int()
    ("order", "--poly", "x1", "--field", "Fp:" + "1" * 5000)])
def test_non_ascii_digits_and_uncertified_moduli_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "", err
    assert "utpoly: ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    # 399165290221 divides psi_12, so it has no inverse there: this
    # ended in a ValueError traceback while psi_12 passed as prime
    ("Fp:318665857834031151167461", "1/399165290221"),
    ("Fp:101", "\u0663")])
def test_unreadable_matrix_value_exits_1(tmp_path, capsys, field, value):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": 1, "entries": [
        {"j": 1, "k": 1, "value": value}]}))
    code, out, err = run(capsys, "eval", "--poly", "x1", "--field", field,
                         "--matrices", str(f))
    assert code == 1 and out == "", err
    assert "utpoly: ParseError" in err and "Traceback" not in err


# -- integer flags take ASCII digits ---------------------------------------------

@pytest.mark.parametrize("argv", [
    ("classify", "--poly", "x1*x2-x2*x1", "--n", "1_0"),
    ("classify", "--poly", "x1*x2-x2*x1", "--n", " 7 "),
    ("order", "--poly", "x1*x2-x2*x1", "--max-n", "\uff13"),
    ("coeffs", "--poly", "x1*x2-x2*x1", "--slots", "\u0662"),
    ("coeffs", "--poly", "x1*x2-x2*x1", "--slots", "1, 2"),
    ("coeffs", "--poly", "x1*x2-x2*x1", "--leading", "\u0661"),
    ("order", "--poly", "x1*x2-x2*x1", "--height", "2_56"),
    ("order", "--poly", "x1*x2-x2*x1", "--m", "\u0662"),
    ("eval", "--poly", "x1", "--generic", "--n", "\u0662"),
    ("oracle-enum", "--poly", "x1", "--field", "Fp:2", "--n", "+\u0662"),
    ("solve", "--poly", "x1", "--n", "1", "--target", "t.json",
     "--seed", "\u0663"),
    ("solve", "--poly", "x1", "--n", "1", "--target", "t.json",
     "--retries", " 4"),
    ("solve", "--poly", "x1", "--n", "1", "--target", "t.json",
     "--diag-budget", "2_00"),
    ("eval", "--poly", "x1", "--generic", "--n", "1_000"),
    ("hit", "--poly", "x1*x2-x2*x1", "--n", "2", "--open-set", "y[1,2]",
     "--nonzero-budget", "1_0")])
def test_integer_flags_need_ascii_digits(capsys, argv):
    """int() read these as 10, 7, 3, 2, (1, 2), ...: classify --n 1_0 ran
    at n = 10 and coeffs --slots \u0662 printed slot 2."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "", err
    assert "invalid integer value" in err and "Traceback" not in err


def test_integer_flags_keep_their_sign(tmp_path, capsys):
    target = _one_by_one(tmp_path / "t.json", "4")
    outs = {seed: run_json(capsys, "solve", "--poly", "x1^2", "--n", "1",
                           "--target", target, "--seed", seed)
            for seed in ("-4", "+4", "4")}
    assert outs["-4"]["diagnostics"]["seed"] == -4
    assert outs["+4"] == outs["4"]


# -- rational roots in time polynomial in bit size -------------------------------

def test_rootless_17_digit_quadratic_exits_fast(tmp_path, capsys):
    """u^2 = 10^16 + 61 has no rational root.  The old divisor search
    took about 50 s per retry on a 2-vCPU VM, some 13 minutes at the
    default retries."""
    target = _one_by_one(tmp_path / "t.json", str(10 ** 16 + 61))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "solve", "--poly", "x1^2", "--n", "1",
                         "--target", target)
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == "" and "NoRootInField" in err
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("poly,root", [
    ("x1^2", 10 ** 40 + 7),
    ("x1^3-2*x1", 3 * 10 ** 30 + 12345678901)])
def test_large_rational_roots_are_found(tmp_path, capsys, poly, root):
    """Targets of 81 and 92 digits, far beyond any divisor search."""
    value = root ** 2 if poly == "x1^2" else root ** 3 - 2 * root
    target = _one_by_one(tmp_path / "t.json", str(value))
    t0 = time.perf_counter()
    data = run_json(capsys, "solve", "--poly", poly, "--n", "1",
                    "--target", target)
    assert time.perf_counter() - t0 < 1.0
    u = int(data["matrices"][0]["entries"][0]["value"])
    assert u == root or (poly == "x1^2" and u == -root)
    assert data["verify"]["target_met"] is True


# -- matrix files hold field matrices only -------------------------------------------

_POLY_MATRIX = {"n": 2, "ring": "poly",
                "entries": [{"j": 1, "k": 2, "value": "x[1,2,1]"}]}
_FIELD_MATRIX = {"n": 2, "entries": [{"j": 1, "k": 2, "value": "1"}]}
_POLY_REFUSED = ("utpoly: ParseError: matrix ring 'poly' is not read: a matrix "
                 "file holds field matrices (\"ring\": \"field\")\n")


@pytest.mark.parametrize("field", ["Q", "Fp:7", "C"])
def test_solve_refuses_a_symbolic_target(tmp_path, capsys, field):
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(_POLY_MATRIX))
    code, out, err = run(capsys, "solve", "--poly", "x1*x2-x2*x1", "--field",
                         field, "--n", "2", "--target", str(tf))
    assert (code, out, err) == (1, "", _POLY_REFUSED)


@pytest.mark.parametrize("witness,target", [(_POLY_MATRIX, None),
                                            (_FIELD_MATRIX, _POLY_MATRIX)])
def test_verify_refuses_symbolic_matrices(tmp_path, capsys, witness, target):
    wf = tmp_path / "w.json"
    wf.write_text(json.dumps({"matrices": [witness]}))
    argv = ["verify", "--poly", "x1", "--witness", str(wf)]
    if target is not None:
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(target))
        argv += ["--target", str(tf)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", _POLY_REFUSED)


@pytest.mark.parametrize("command", ["eval", "verify", "solve"])
@pytest.mark.parametrize("value", ["x[1,2,1]^100000000", 3])
def test_a_poly_matrix_file_is_refused_before_its_entries_are_parsed(
        tmp_path, capsys, monkeypatch, command, value):
    """A "ring": "poly" file is refused by its ring before any entry is
    read: an entry past the parser's letter limit, or one that is not a
    string, is never looked at, and nothing is evaluated.  Runtime
    budget: 0.5 s."""
    f = tmp_path / "m.json"
    poly = {"n": 2, "ring": "poly", "entries": [{"j": 1, "k": 2, "value": value}]}
    f.write_text(json.dumps(poly if command == "solve" else [poly]))
    # both evaluation routes start with _check_tuple
    monkeypatch.setattr(utpoly.triangular, "_check_tuple", _forbidden)
    argv = {"eval": ("eval", "--poly", "x1", "--matrices", str(f)),
            "verify": ("verify", "--poly", "x1", "--witness", str(f)),
            "solve": ("solve", "--poly", "x1*x2-x2*x1", "--n", "2",
                      "--target", str(f))}[command]
    start = time.perf_counter()
    assert run(capsys, *argv) == (1, "", _POLY_REFUSED)
    assert time.perf_counter() - start < 0.5


# -- integer bounds ----------------------------------------------------------------

_MISSING = "/nonexistent/utpoly-test.json"
_BOUNDED = ("--n", "--max-n", "--height", "--retries", "--diag-budget",
            "--nonzero-budget")
# what each subcommand needs besides --poly; file flags name a missing file
_BOUND_BASE = {
    "order": {},
    "classify": {"--n": "3"},
    "eval": {"--matrices": _MISSING},
    "solve": {"--n": "2", "--target": _MISSING},
    "hit": {"--n": "3", "--open-set": "y[1,2]"},
    "oracle-enum": {"--field": "Fp:2", "--n": "2"},
}


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, declared in sorted(DECLARED.items())
    for flag in _BOUNDED if flag in declared])
def test_bounded_flag_below_one_is_refused_first(capsys, command, flag, value):
    """Every bounded flag a subcommand declares is refused below 1 before
    any file is read: the file flags name a missing file."""
    flags = {**_BOUND_BASE[command], flag: value}
    argv = [command, "--poly", "x1*x2-x2*x1"]
    for name, text in flags.items():
        argv += [name, text]
    code, out, err = run(capsys, *argv)
    dest = flag[2:].replace("-", "_")
    assert code == 2 and out == "", err
    assert f"ZeroInput: {dest} must be at least 1" in err


# -- sampling height below 1 --------------------------------------------------------

@pytest.mark.parametrize("height", ["0", "-1"])
@pytest.mark.parametrize("command", ["order", "solve", "hit"])
def test_height_below_one_is_refused(tmp_path, capsys, command, height):
    """Over Q these ended in randrange's ValueError inside sampling."""
    tf = tmp_path / "t.json"
    tf.write_text(json.dumps(_FIELD_MATRIX))
    extra = {"order": (),
             "solve": ("--n", "2", "--target", str(tf)),
             "hit": ("--n", "2", "--open-set", "y[1,2]")}[command]
    code, out, err = run(capsys, command, "--poly", "x1*x2-x2*x1",
                         "--height", height, *extra)
    assert code == 2 and out == ""
    assert "ZeroInput: height must be at least 1" in err


# -- hit's random-tuple fallback ----------------------------------------------------

def test_hit_random_fallback_pinned(capsys):
    """Over F_2 no sweep yields a witness for y[1,2], so hit falls back
    to random tuples.  attempts counts retries (16) plus the 6 failed sweeps,
    which counts those sweeps twice; the output is pinned as it stands."""
    code, out, err = run(capsys, "hit", "--poly", "x1*x2-x2*x1", "--field",
                         "Fp:2", "--n", "3", "--open-set", "y[1,2]")
    assert code == 0, err
    data = json.loads(out)
    assert data["diagnostics"]["fallback"] == "random"
    assert data["diagnostics"]["attempts"] == 22
    assert data["verify"]["open_set_met"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d4195995b7f54509d3ebfb12bc51a08a1296fe12b1cb3686313efaa1b4dde86d"
