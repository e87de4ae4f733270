"""The mutation table of tests/support.py against the check records.

Each named mutant changes one library formula by a monkeypatch.  On each of
the fixed cases support.MUTATION_CASES every mutant must fail at least one
record, either in the run_checks report of the case's scenario or on a pair
of the scenario's model whose first extension is not the reference
(support.failing_records).  scripts/mutation_matrix.py prints the whole
record x mutant matrix.
"""

import pytest

import support


def test_no_record_fails_unmutated():
    assert support.failing_records(support.MUTATION_CASES) == {}


@pytest.mark.parametrize("name", list(support.MUTANTS))
def test_each_mutant_fails_a_record(name):
    # on every case, not only on one of them
    with support.mutant(name):
        missed = [case for case in support.MUTATION_CASES
                  if not support.failing_records([case])]
    assert missed == []


def test_a_wrong_first_extension_shows_only_on_pairs_without_the_reference():
    # every report takes ext1 = model.reference, so an angle operator that
    # reads the reference's Cayley transform for ext1's computes the same
    # angle there; only the pairs with v1 != I see it
    with support.mutant("angle_operator reads the reference's Cayley transform"):
        failing = support.failing_records(support.MUTATION_CASES)
    assert set(failing) == {"angle_tan_inversion", "krein_vs_direct",
                            "lft_angle_vs_direct", "p_inverse_via_weyl"}
    assert all(kinds == {"pair"} for kinds in failing.values())


def test_a_shifted_eigenvalue_of_the_battery_shape_shows_only_in_range_constancy():
    # on (64, 3, 3) an eigenvalue of each built extension moved by 1e-9 in its
    # cached frame fails p_range_constancy, in the report and on the pair,
    # and no other record
    with support.mutant("built extension: eigenvalue nearest 0 + 1e-9 in its frame"):
        failing = support.failing_records([(64, 3, 3)])
    assert failing == {"p_range_constancy": {"report", "pair"}}
