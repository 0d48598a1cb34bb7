from pathlib import Path

import pytest

from poset_secretary.errors import GeneratorSpecError, TooLargeError
from poset_secretary.families import (
    FAMILIES,
    GeneratorSpec,
    antichain,
    boolean_lattice,
    chain,
    forest_of_chains,
    parse_generator_spec,
    random_poset,
    wedge,
)
from poset_secretary.posets import transitive_reduction


def test_chain_relations():
    p = chain(4)
    assert p.n == 4
    assert all(p.lt[i, j] for i in range(4) for j in range(4) if i < j)
    assert p.maximal == {3}


def test_chain_of_one():
    assert chain(1).n == 1


def test_chain_rejects_nonpositive():
    with pytest.raises(ValueError):
        chain(0)


def test_antichain_has_no_relations():
    p = antichain(5)
    assert not p.lt.any()
    assert p.maximal == set(range(5))


def test_wedge_shape():
    p = wedge()
    assert p.n == 3
    assert p.lt[0, 1] and p.lt[0, 2]
    assert not p.lt[1, 2] and not p.lt[2, 1]
    assert p.maximal == {1, 2}


def test_boolean_lattice_is_subset_order():
    p = boolean_lattice(3)
    assert p.n == 8
    for a in range(8):
        for b in range(8):
            expect = a != b and (a & b) == a  # proper submask
            assert p.lt[a, b] == expect
    assert p.maximal == {7}


def test_boolean_lattice_bounds():
    with pytest.raises(ValueError):
        boolean_lattice(0)
    # every k with 2^k <= 64 builds; past it is refused without computing 2^k
    assert boolean_lattice(5).n == 32
    assert [len(part) for part in boolean_lattice(6).series_parts] == [1, 62, 1]
    for k in (7, 10**10):
        with pytest.raises(TooLargeError, match="cap"):
            boolean_lattice(k)


def test_forest_of_chains():
    p = forest_of_chains([2, 3])
    assert p.n == 5
    # first chain on 0..1, second on 2..4, no cross relations
    assert p.lt[0, 1] and p.lt[2, 3] and p.lt[2, 4] and p.lt[3, 4]
    assert not p.lt[1, 2] and not p.lt[0, 4]
    assert p.maximal == {1, 4}


def test_forest_rejects_bad_lengths():
    with pytest.raises(ValueError):
        forest_of_chains([])
    with pytest.raises(ValueError):
        forest_of_chains([2, 0])


def test_random_poset_is_valid_and_seeded():
    a = random_poset(8, 0.3, seed=42)
    b = random_poset(8, 0.3, seed=42)
    c = random_poset(8, 0.3, seed=43)
    assert a == b
    assert a != c  # astronomically unlikely to collide
    assert a.n == 8


def test_random_poset_density_extremes():
    assert not random_poset(6, 0.0, seed=1).lt.any()
    p = random_poset(6, 1.0, seed=1)
    assert all(p.lt[i, j] for i in range(6) for j in range(6) if i < j)


def test_random_poset_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_poset(4, -0.1, seed=0)
    with pytest.raises(ValueError):
        random_poset(4, 1.5, seed=0)


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,n",
        [
            ("chain:7", 7),
            ("antichain:4", 4),
            ("wedge", 3),
            ("boolean:2", 4),
            ("forest:2,3,4", 9),
            ("random:8:0.3:42", 8),
        ],
    )
    def test_parses_and_builds(self, text, n):
        spec = parse_generator_spec(text)
        assert spec.n == spec.build().n == n

    def test_round_trips_through_str(self):
        for text in ["chain:7", "antichain:4", "wedge", "boolean:2", "forest:2,3",
                     "random:8:0.3:42"]:
            spec = parse_generator_spec(text)
            assert parse_generator_spec(str(spec)) == spec

    def test_spec_equals_direct_construction(self):
        assert parse_generator_spec("chain:5").build() == chain(5)
        assert parse_generator_spec("random:6:0.4:3").build() == random_poset(6, 0.4, seed=3)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "chain",            # missing size
            "chain:abc",
            "chain:5:9",        # extra param
            "wedge:3",
            "boolean",
            "forest:",
            "forest:2,,3",
            "random:8:0.3",     # missing seed
            "random:8",
            "spiral:4",
            "random:8:zz:1",
        ],
    )
    def test_malformed_specs(self, text):
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec(text)

    def test_out_of_range_values_are_value_errors(self):
        # grammar is fine, the parameter itself is not
        with pytest.raises(ValueError):
            parse_generator_spec("chain:0").build()
        with pytest.raises(ValueError):
            parse_generator_spec("boolean:0").build()
        with pytest.raises(ValueError):
            parse_generator_spec("random:8:1.7:1").build()

    def test_spec_is_hashable_value(self):
        a = GeneratorSpec("chain", (5,))
        b = parse_generator_spec("chain:5")
        assert a == b and hash(a) == hash(b)


def test_readme_grammar_line_is_the_family_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith("chain:N ")]
    assert len(lines) == 1
    assert lines[0].split() == [f.grammar for f in FAMILIES.values()]


def test_families_produce_expected_covers():
    assert transitive_reduction(chain(3)) == [(0, 1), (1, 2)]
    assert transitive_reduction(wedge()) == [(0, 1), (0, 2)]
    assert len(transitive_reduction(boolean_lattice(3))) == 12  # 3 * 2^2 edges
