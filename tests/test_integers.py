"""Integer parameters and integer arrays: every size, count, color and
length a public entry takes is read by ``errors._integer``, so a float or a
string is refused with the entry's own package error, never truncated, and
so is a value below the entry's least; every integer array it takes is read
by ``errors._integers``, so ragged rows, another shape, a float dtype and an
entry outside the entry's range are refused with that error too."""
import numpy as np
import pytest

from hjlab import (
    ApResidueColoring,
    FiniteSemigroup,
    HypergraphSolver,
    LineHypergraph,
    ModSumColoring,
    PrincipalUltrafilter,
    RetractionFamily,
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
    ("hj-instance-n", lambda x: hj_check(x, 2, 2), 2, 2, InvalidInstance),
    ("hj-instance-N", lambda x: hj_check(2, 2, x), 2, 1, InvalidInstance),
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


# (id, the call with the array in place, a valid array, the bound its
# entries lie below, the error); a Cayley table's bound is its order
ARRAY_SITES = [
    ("table", FiniteSemigroup, [[0, 0], [0, 0]], 2, InvalidStructure),
    ("hj-cells", lambda x: hj_symmetry(2, 2, 2, x), [0, 3], 4, InvalidInstance),
    ("vdw-cells", lambda x: vdw_symmetry(5, 2, x), [0, 4], 5, InvalidInstance),
    ("solver-edges", lambda x: HypergraphSolver(3, x, 2).solve(), [[0, 1], [1, 2]], 3,
     InvalidInstance),
    ("verify-edges", lambda x: verify_proper_coloring(x, [0, 1, 0]), [[0, 1], [1, 2]], 3,
     InvalidInstance),
    ("image-map", lambda x: image(x, PrincipalUltrafilter(2, 0), 2), [0, 1], 2, CarrierMismatch),
    ("tensor-maps", lambda x: tensor_power_failures(cyclic_semigroup(2), x, 2), [[0, 1]], 2,
     CarrierMismatch),
    ("owner", lambda x: tensor_power_failures([cyclic_semigroup(2)] * 2, [[0, 1], [0, 1]], 2,
                                              owner=x), [0, 1], 2, CarrierMismatch),
    ("retractions", lambda x: RetractionFamily(flag_semigroup(1)[1], x),
     [[0, 0, 2, 2], [0, 2, 2, 2]], 4, InvalidStructure),
]


def _last_entry(valid, value):
    """``valid`` with its last entry set to ``value``."""
    array = np.array(valid)
    array.flat[-1] = value
    return array.tolist()


def _array_cases():
    """Ragged rows, a float dtype, one axis too many (2-D cells were an
    IndexError in hj_symmetry and a (2, 1, 2) table in vdw_symmetry), then
    an entry of -1 and one equal to the bound, each named by its value."""
    for name, call, valid, below, error in ARRAY_SITES:
        *head, last = valid
        bad = [
            ("ragged", [*head, last[:-1] if np.ndim(last) else [last]], "has shape"),
            ("float", np.array(valid, dtype=float), "must hold integers"),
            ("ndim", [valid], "has shape"),
            ("negative", _last_entry(valid, -1), r"\] = -1 is outside"),
            ("bound", _last_entry(valid, below), rf"\] = {below} is outside"),
        ]
        for kind, value, match in bad:
            yield pytest.param(call, value, error, match, id=f"{name}-{kind}")


@pytest.mark.parametrize("call,value,error,match", _array_cases())
def test_each_integer_array_is_read_not_cast(call, value, error, match):
    with pytest.raises(error, match=match):
        call(value)


def test_a_valid_array_reads_as_a_list_or_an_integer_array():
    for _, call, valid, _, _ in ARRAY_SITES:
        call(valid)
        call(np.array(valid, dtype=np.int32))


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
