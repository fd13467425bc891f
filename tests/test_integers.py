"""Integer parameters and integer arrays: every size, count, color and
length a public entry takes is read by ``errors._integer``, so a float or a
string is refused with the entry's own package error, never truncated, and
so is a value below the entry's least."""
import numpy as np
import pytest

from hjlab import (
    ApResidueColoring,
    FiniteSemigroup,
    HypergraphSolver,
    LineHypergraph,
    ModSumColoring,
    PrincipalUltrafilter,
    SubsetQuery,
    TableColoring,
    WordSemigroup,
    ap_edges,
    check_agreement_equivalence,
    check_tensor_assoc,
    cyclic_semigroup,
    enumerate_endomorphisms,
    find_ap_via_words,
    flag_semigroup,
    generate_corpus,
    hj_check,
    hj_number,
    hj_symmetry,
    image,
    substitution_family,
    tensor_power_failures,
    vdw_check,
    vdw_symmetry,
    verify_proper_coloring,
    word_witness_search,
)
from hjlab.errors import CarrierMismatch, InvalidColoring, InvalidInstance, InvalidStructure

# (id, the call with the value in place, a valid value, the least, the error);
# check_tensor_assoc reads a factor size as a carrier (CarrierMismatch) and
# refuses an empty factor as bad input (InvalidInstance)
SITES = [
    ("carrier-size", lambda x: SubsetQuery(x, 0), 3, 0, CarrierMismatch),
    ("subset-mask", lambda x: SubsetQuery(3, x), 1, 0, InvalidStructure),
    ("cyclic-m", cyclic_semigroup, 2, 1, InvalidStructure),
    ("flag-m", flag_semigroup, 1, 0, InvalidStructure),
    ("corpus-max-order", lambda x: generate_corpus(count=1, max_order=x, seed=0), 2, 1,
     InvalidInstance),
    ("endomorphisms-most", lambda x: enumerate_endomorphisms(flag_semigroup(1)[0], x), 30, 0,
     InvalidInstance),
    ("mod-r", ModSumColoring, 2, 1, InvalidColoring),
    ("apres-r", ApResidueColoring, 2, 1, InvalidColoring),
    ("table-r", lambda x: TableColoring({"0": 0}, r=x), 2, 1, InvalidColoring),
    ("table-color", lambda x: TableColoring({"0": x}), 1, 0, InvalidColoring),
    ("alphabet-size", WordSemigroup, 2, 1, InvalidInstance),
    ("lines-n", lambda x: LineHypergraph.build(x, 2), 2, 2, InvalidInstance),
    ("lines-N", lambda x: LineHypergraph.build(2, x), 2, 1, InvalidInstance),
    ("ap-k", lambda x: ap_edges(x, 9), 3, 2, InvalidInstance),
    ("ap-M", lambda x: ap_edges(3, x), 9, 1, InvalidInstance),
    ("hj-symmetry-n", lambda x: hj_symmetry(x, 2, 2, [0]), 2, 2, InvalidInstance),
    ("hj-symmetry-N", lambda x: hj_symmetry(2, x, 2, [0]), 2, 1, InvalidInstance),
    ("color-perms-r", lambda x: vdw_symmetry(9, x, [0]), 2, 1, InvalidInstance),
    ("vdw-symmetry-M", lambda x: vdw_symmetry(x, 2, [0]), 9, 1, InvalidInstance),
    ("solver-V", lambda x: HypergraphSolver(x, [], 2).solve(), 3, 0, InvalidInstance),
    ("solver-r", lambda x: HypergraphSolver(3, [], x).solve(), 2, 1, InvalidInstance),
    ("instance-k", lambda x: vdw_check(x, 2, 9), 3, 2, InvalidInstance),
    ("instance-M", lambda x: vdw_check(3, 2, x), 9, 1, InvalidInstance),
    ("instance-r", lambda x: vdw_check(3, x, 9), 2, 1, InvalidInstance),
    ("word-max-len", lambda x: word_witness_search(
        substitution_family(WordSemigroup(2)), ModSumColoring(2), max_len=x), 2, 1,
     InvalidInstance),
    ("via-words-k", lambda x: find_ap_via_words(x, ApResidueColoring(2)), 3, 2, InvalidInstance),
    ("agreement-r", lambda x: check_agreement_equivalence(*flag_semigroup(1)[::2], x), 2, 1,
     InvalidInstance),
    ("tensor-dims", lambda x: check_tensor_assoc((2, x, 2), (0, 0, 0)), 2, 1,
     (CarrierMismatch, InvalidInstance)),
]


def _cases():
    """A whole float and a string of a valid value, then the value below the least."""
    for name, call, valid, least, error in SITES:
        read_error, low_error = error if isinstance(error, tuple) else (error, error)
        for kind, value in (("float", float(valid)), ("string", str(valid))):
            yield pytest.param(call, value, read_error, "must be an integer", id=f"{name}-{kind}")
        yield pytest.param(call, least - 1, low_error, f">= {least}, not ", id=f"{name}-below")


@pytest.mark.parametrize("call,value,error,match", _cases())
def test_each_integer_parameter_is_read_not_cast(call, value, error, match):
    with pytest.raises(error, match=match):
        call(value)


def test_a_numpy_integer_reads_as_its_value():
    for _, call, valid, _, _ in SITES:
        call(np.int64(valid))


@pytest.mark.parametrize("call,error", [
    # the cell read as 0, the owner as semigroup 0
    (lambda: hj_symmetry(3, 2, 2, [0.5]), InvalidInstance),
    (lambda: tensor_power_failures(cyclic_semigroup(2), [[0, 1]], 2, owner=[0.7]),
     CarrierMismatch),
    # ragged rows: numpy's bare ValueError
    (lambda: FiniteSemigroup([[0, 1], [0]]), InvalidStructure),
    (lambda: image([[0], [0, 1]], PrincipalUltrafilter(2, 0), 2), CarrierMismatch),
], ids=["cells", "owner", "ragged-table", "ragged-map"])
def test_integer_arrays_are_refused_not_cast(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("coloring", [[0, 1, 0.5], [0, [1], 0], [0, "1", 0]],
                         ids=["float", "list", "string"])
def test_a_non_integer_color_is_no_proper_coloring(coloring):
    # 0.5 was truncated to 0, so the edge read as colored 0, 1, 0: proper;
    # [1] ended in a bare TypeError
    assert verify_proper_coloring([(0, 1, 2)], coloring) is False


@pytest.mark.parametrize("budgets", [{"budget_seconds": "1"}, {"budget_nodes": None}],
                         ids=["string-seconds", "none-nodes"])
def test_a_budget_is_a_real_number(budgets):
    # each ended in a bare TypeError from the comparison with 0
    with pytest.raises(InvalidInstance, match="budgets are numbers"):
        hj_check(2, 2, 2, **budgets)
    with pytest.raises(InvalidInstance, match="budgets are numbers"):
        hj_number(2, 2, 3, **budgets)
