"""Tests of the benchmark's own machinery: the dense oracle, the tail
percentile rule, the outside-in tracer and seeded request generation."""

import contextlib
import io
import random
import sys
from fractions import Fraction

import pytest

import oracle as O
from run import tail_percentile
from tracer import TARGETS, Tracer
from workloads import WORKLOADS

Q = O.Field("Q")
F7 = O.Field("Fp:7")


def upper(F, rows):
    return [[F.of(v) for v in row] for row in rows]


def test_dense_commutator_by_hand():
    # [A,B] on T_2: entry (1,2) is (a11 - a22) b12 - (b11 - b22) a12
    a = [[1, 2], [0, 3]]
    b = [[4, 5], [0, 6]]
    comm = O.commutator(Q, 1, 2)
    assert O.evaluate(Q, comm, [upper(Q, a), upper(Q, b)]) == \
        [[0, Fraction(-6)], [0, 0]]
    assert O.evaluate(F7, O.commutator(F7, 1, 2), [upper(F7, a), upper(F7, b)]) == \
        [[0, 1], [0, 0]]                          # -6 = 1 mod 7


def test_dense_commutator_product_by_hand():
    # [x1,x2][x3,x4] at (A, B, A, B) on T_3 with [A,B] = -E12 - E23:
    # the product is E13
    a = [[1, 1, 0], [0, 2, 1], [0, 0, 3]]
    b = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    for F in (Q, F7):
        p = O.nc_mul(F, O.commutator(F, 1, 2), O.commutator(F, 3, 4))
        mats = [upper(F, a), upper(F, b)] * 2
        assert O.evaluate(F, O.commutator(F, 1, 2), mats[:2]) == \
            upper(F, [[0, -1, 0], [0, 0, -1], [0, 0, 0]])
        assert O.evaluate(F, p, mats) == upper(F, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_dense_scalars_and_mod_p():
    p = {(1, 1): Fraction(1, 2), (2,): Fraction(-3)}          # x1^2/2 - 3 x2
    assert O.evaluate(Q, p, [[[Fraction(4)]], [[Fraction(1, 3)]]]) == [[Fraction(7)]]
    p7 = {w: F7.of(c) for w, c in p.items()}
    assert O.evaluate(F7, p7, [[[4]], [[F7.of(Fraction(1, 3))]]]) == [[0]]


@pytest.mark.parametrize("F", [Q, F7])
def test_chain_coefficient_matches_dense_entry(F):
    rng = random.Random(5)
    p = O.nc_add(F, O.nc_mul(F, O.commutator(F, 1, 2), O.commutator(F, 2, 3)),
                 {(1, 3, 2): F.of(2), (3, 3): F.of(5)})
    for slots in [(1, 2), (2, 3), (3, 1), (2, 2)]:
        diags = [tuple(F.sample(rng) for _ in range(3)) for _ in range(3)]
        mats = [O.zeros(F, 3) for _ in range(3)]
        for row in range(3):
            for i in range(3):
                mats[i][row][row] = diags[row][i]
        for w, i in enumerate(slots):
            mats[i - 1][w][w + 1] = F.one()
        assert O.chain_coefficient(F, p, slots, diags) == O.evaluate(F, p, mats)[0][2]


def test_parse_commutative_reads_utpoly_rendering():
    from utpoly.cpoly import CPolynomial
    from utpoly.fields import FieldDescriptor
    for spec in ("Q", "Fp:101"):
        text = "-3/2*z[1,2] + x[1,2,1]*z[2,2]^2 - 7 + 5*x[1,3,2]"
        if spec != "Q":
            text = text.replace("3/2", "3")
        rendered = CPolynomial.parse(text, FieldDescriptor.parse(spec)).render()
        F = O.Field(spec)
        point = {("z", 1, 2): F.of(2), ("x", 1, 2, 1): F.of(3),
                 ("z", 2, 2): F.of(-1), ("x", 1, 3, 2): F.of(4)}
        want = F.norm((-3 if spec != "Q" else Fraction(-3, 2)) * 2 + 3 - 7 + 20)
        assert O.eval_commutative(F, O.parse_commutative(F, rendered), point) == want


def test_classification_table():
    assert O.expected_classification(0, 4)["case"] == "dense_full"
    assert O.expected_classification(1, 2) == {
        "r": 1, "n": 2, "case": "equals_band", "band": 0, "affine_dim": 1}
    assert O.expected_classification(2, 5)["case"] == "dense_in_band"
    assert O.expected_classification(3, 4)["band"] == 2
    assert O.expected_classification(4, 4)["affine_dim"] == 0


def test_tail_percentile_ten_beyond_rule():
    xs = list(range(1, 101))
    assert tail_percentile(xs, 0.9) == 90          # ten samples beyond it
    assert tail_percentile(xs, 0.5) == 50
    with pytest.raises(ValueError):
        tail_percentile(xs[:99], 0.9)              # only nine beyond
    assert tail_percentile(xs[:20], 0.5) == 10
    with pytest.raises(ValueError):
        tail_percentile(xs[:19], 0.5)


def _bindings():
    """Every attribute of every utpoly module and traced class."""
    import utpoly.cli  # noqa: F401  (loads every submodule)
    out = {}
    for name, mod in sys.modules.items():
        if name == "utpoly" or name.startswith("utpoly."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for modname, path, _, _ in TARGETS:
        if "." in path:
            cls = getattr(sys.modules[modname], path.split(".")[0])
            out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def _cli(argv):
    import utpoly.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = utpoly.cli.main(argv)
    return code, out.getvalue()


def test_tracer_wraps_every_binding_and_restores_them():
    import utpoly.analysis as analysis
    import utpoly.solver as solver
    before = _bindings()
    original_coeff = analysis.coeff_poly
    tracer = Tracer()
    tracer.install()
    try:
        # copies made by `from .x import f` are wrapped too
        assert analysis.coeff_poly is not original_coeff
        assert solver.coeff_poly is analysis.coeff_poly
        assert solver.verify.__wrapped__ is before[("utpoly.solver", "verify")]
        tracer.begin_request(0, "solve")
        traced = _cli(["order", "--poly=(x1*x2-x2*x1)*(x3*x4-x4*x3)"])
    finally:
        tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert analysis.coeff_poly is original_coeff
    assert analysis.coeff_poly.cache_info().maxsize == original_coeff.cache_info().maxsize
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["analysis.order"].calls == 1
    assert tracer.stats["triangular.generic_evaluate"].calls >= 3
    assert traced == _cli(["order", "--poly=(x1*x2-x2*x1)*(x3*x4-x4*x3)"])


def test_tracer_self_time_excludes_traced_callees():
    tracer = Tracer()
    tracer.install()
    try:
        _cli(["classify", "--poly=x1*x2-x2*x1", "--n", "3"])
    finally:
        tracer.uninstall()
    main = tracer.stats["cli.main"]
    assert 0 < main.self_s < main.incl_s
    assert tracer.stats["analysis.classify"].incl_s <= main.incl_s


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_streams_are_seeded(name):
    def first(seed, count=6):
        out = []
        for req in next(WORKLOADS[name](seed).rounds()):
            out.append((req.argv, req.files, req.expect_exit))
            if len(out) == count:
                return out
        return out
    assert first(3) == first(3)
    assert first(3) != first(4)
