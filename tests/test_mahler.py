import hashlib
import json
import os
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    BoxSumRows,
    chu_vandermonde_identity,
    filiform,
    heisenberg_bch_oracle,
    heisenberg_second_kind_oracle,
    verify_convolution,
)
from padicdist import (
    FieldSpec,
    LGroupSpec,
    StructureConstants,
    abelian,
    heisenberg,
    heisenberg2,
    o_additive,
)
from padicdist.errors import CounterexampleFound, DegreeOverflow, PadicError
from padicdist.groups import SecondKindLaw, _LawPoly
from padicdist.indices import iter_multi_indices, unit_index
from padicdist.radii import vp_rational


def test_abelian_rows_are_vandermonde():
    table = StructureConstants(abelian(1, p=3), 6)
    for i in range(7):
        for j in range(7):
            assert chu_vandermonde_identity(table, (i,), (j,))


def integral_valued_planted_law():
    """heisenberg(3) with the planted law (x0, y1, x2 + y2 + x0 (x0 - 1)
    (x0 - 2) y1 / 3): 3 divides a denominator of its monomial
    coefficients, but the cross term is 2 binom(x0, 3) y1, an int at
    every int point, so the build must accept it."""
    x0, x2, y1, y2 = (_LawPoly({((v, 1),): Fraction(1)}) for v in (0, 2, 4, 5))
    lattice = heisenberg(3)
    cross = x0 * (x0 - 1) * (x0 - 2) * y1 * Fraction(1, 3)
    lattice.second_kind_law = SecondKindLaw(3, [x0, y1, x2 + y2 + cross], 2 * lattice.d)
    assert lattice.second_kind_law.denoms == [1, 1, 3]
    return lattice


@pytest.mark.parametrize("group", [
    "abelian(2)", "heisenberg", "heisenberg2", "o-additive(1)", "o-additive(2)",
    "filiform(3)", "filiform(2)", "heisenberg(o_L)", "integral-valued planted",
])
def test_rows_match_box_sum_oracle(group, k3u2):
    # the class-3 filiform lattices have two nonlinear coordinates; the
    # Heisenberg group over o_L, L = Q_9, restricts to a non-abelian d = 6
    # lattice over Z_3
    lattice, N = {
        "abelian(2)": lambda: (abelian(2, p=3), 4),
        "heisenberg": lambda: (heisenberg(3), 4),
        "heisenberg2": lambda: (heisenberg2(), 4),
        "o-additive(1)": lambda: (o_additive(k3u2, 1).restrict(), 4),
        "o-additive(2)": lambda: (o_additive(k3u2, 2).restrict(), 4),
        "filiform(3)": lambda: (filiform(3), 3),
        "filiform(2)": lambda: (filiform(2), 3),
        "heisenberg(o_L)": lambda: (LGroupSpec(k3u2, [k3u2.one(), k3u2.unram_gen()], 3, {
            (1, 2): ((0, 0), (0, 0), (3, 0))}).restrict(), 3),
        "integral-valued planted": lambda: (integral_valued_planted_law(), 4),
    }[group]()
    table = StructureConstants(lattice, N)
    oracle = BoxSumRows(table)
    for alpha in oracle.gammas:
        for beta in oracle.gammas:
            assert table.row(alpha, beta) == oracle.row(alpha, beta), (alpha, beta)


def test_unit_row(heis_alg):
    table = heis_alg.table
    z = (0, 0, 0)
    beta = (1, 2, 0)
    assert table.row(z, beta) == {beta: Fraction(1)}
    assert table.row(beta, z) == {beta: Fraction(1)}


def test_commutator_structure_constant(heis_alg):
    """The b_3 coefficient of b_2 b_1 - b_1 b_2, against the matrix oracle."""
    table = heis_alg.table
    e1, e2, e3 = (unit_index(3, k) for k in range(3))
    got = table.row(e2, e1).get(e3, Fraction(0)) - table.row(e1, e2).get(e3, Fraction(0))
    # oracle: h2 h1 = h1^a h2^b h3^c exactly, so delta-expansion has binom(c,1) at b3
    prod = heisenberg_bch_oracle((0, 1, 0), (1, 0, 0), 3)
    a, b, c = heisenberg_second_kind_oracle(prod, 3)
    assert (a, b) == (1, 1)
    assert got == c  # binom(c, 1) - binom(0, 1)


def test_convolution_identity(heis_alg):
    rng = random.Random(21)
    table = heis_alg.table
    for _ in range(6):
        x = tuple(rng.randrange(0, 3) for _ in range(3))
        y = tuple(rng.randrange(0, 3) for _ in range(3))
        assert verify_convolution(table, x, y)


def test_delta_convolution_50_pairs(q3, heis_alg):
    """delta_{h^x} delta_{h^y} = delta_{h^{F(x,y)}} up to degree N."""
    from padicdist import DistAlgebra

    rng = random.Random(23)
    ab3 = DistAlgebra(abelian(3, p=3), q3, 6)
    for _ in range(50):
        g = ab3.lattice.element_second(tuple(rng.randrange(0, 10) for _ in range(3)))
        h = ab3.lattice.element_second(tuple(rng.randrange(0, 10) for _ in range(3)))
        assert ab3.mul(ab3.delta(g), ab3.delta(h)).coeffs == ab3.delta(g * h).coeffs
    for _ in range(8):
        g = heis_alg.lattice.element_second(tuple(rng.randrange(0, 10) for _ in range(3)))
        h = heis_alg.lattice.element_second(tuple(rng.randrange(0, 10) for _ in range(3)))
        assert heis_alg.mul(heis_alg.delta(g), heis_alg.delta(h)).coeffs == \
            heis_alg.delta(g * h).coeffs


def test_filtration_bound_sampled(heis_alg):
    table = heis_alg.table
    rng = random.Random(22)
    kappa = 1
    gammas = list(iter_multi_indices(3, 6))
    for _ in range(40):
        alpha, beta = rng.choice(gammas), rng.choice(gammas)
        for gamma, c in table.row(alpha, beta).items():
            assert vp_rational(c, 3) >= kappa * (sum(alpha) + sum(beta) - sum(gamma))


def test_filtration_bound_names_a_planted_violation():
    """An entry below the bound, planted in a built heisenberg table, is
    refused with the witness (alpha, beta, gamma, c): gamma the multi-index
    itself, not its position in the table."""
    table = StructureConstants(heisenberg(3), 3)
    alpha, beta, gamma = (0, 1, 0), (1, 0, 0), (0, 0, 1)
    row = table.rows_from(alpha)[beta]  # builds the table; the held row itself
    at = 2 * row[::2].index(table._position[gamma]) + 1
    assert row[at] == -3  # the commutator term, of valuation kappa = 1
    row[at] = table.den
    with pytest.raises(CounterexampleFound, match="valuation bound fails") as info:
        table.check_filtration_bound()
    assert info.value.witness == (alpha, beta, gamma, Fraction(1))


def test_filtration_bound_refuses_an_entry_off_the_p_integers():
    """c = 1/3 at gamma = (1, 1, 2) in the b_1 b_2 row of heisenberg N = 4
    meets v_p(c) >= kappa (|alpha| + |beta| - |gamma|) = -2, the bound at
    r = 1/p, but not p-integrality, the bound as r -> 1, and is refused
    with its witness.  The table is put over den = 3 first, every
    numerator tripled, and passes so."""
    table = StructureConstants(heisenberg(3), 4)
    alpha, beta, gamma = (1, 0, 0), (0, 1, 0), (1, 1, 2)
    table.rows_from(alpha)  # builds the table
    for rows in table._rows.values():
        for row in rows.values():
            row[1::2] = [3 * n for n in row[1::2]]
    table._den = 3
    assert table.check_filtration_bound() == 583
    table._rows[alpha][beta] += [table._position[gamma], 1]
    with pytest.raises(CounterexampleFound, match="valuation bound fails") as info:
        table.check_filtration_bound()
    assert info.value.witness == (alpha, beta, gamma, Fraction(1, 3))


@pytest.mark.parametrize("lattice", [heisenberg(3), abelian(3, p=3)], ids=["heisenberg", "abelian"])
@pytest.mark.parametrize("alpha", [(True, 0, 0), (Fraction(1), 0, 0), (1.0, 0, 0)],
                         ids=["bool", "fraction", "float"])
def test_rows_from_checks_an_index_whose_rows_are_held(lattice, alpha):
    """An index equal to (1, 0, 0) as a dict key but not a multi-index in
    N_0^3 is refused with a PadicError naming it, also once the rows of
    (1, 0, 0) are held (built whole for heisenberg, made on first use for
    the abelian table)."""
    table = StructureConstants(lattice, 6)
    assert len(table.rows_from((1, 0, 0))) == 56
    with pytest.raises(PadicError, match=re.escape(str(alpha))) as info:
        table.rows_from(alpha)
    assert not isinstance(info.value, DegreeOverflow)


def test_row_degree_guard(heis_alg):
    with pytest.raises(DegreeOverflow):
        heis_alg.table.row((7, 0, 0), (0, 0, 0))


def test_cache_roundtrip(tmp_path, q3):
    lat = heisenberg(3)
    t1 = StructureConstants(lat, 3, cache_dir=tmp_path)
    r = t1.row((1, 0, 0), (0, 2, 0))
    t1.save()
    t2 = StructureConstants(lat, 3, cache_dir=tmp_path)
    assert (0, 2, 0) in t2._rows[(1, 0, 0)]  # loaded, not rebuilt
    assert t2.row((1, 0, 0), (0, 2, 0)) == r
    # key mismatch is ignored, not an error
    t3 = StructureConstants(lat, 2, cache_dir=tmp_path)
    assert (1, 0, 0) not in t3._rows


def test_cache_roundtrip_nonabelian(tmp_path):
    lat = heisenberg(3)
    gammas = list(iter_multi_indices(3, 3))
    t1 = StructureConstants(lat, 3, cache_dir=tmp_path)
    rows = {(a, b): t1.row(a, b) for a in gammas for b in gammas}
    t1.save()
    t2 = StructureConstants(lat, 3, cache_dir=tmp_path)

    def no_build():
        raise AssertionError("table built although the cache holds every row")

    t2._build = no_build
    assert {(a, b): t2.row(a, b) for a in gammas for b in gammas} == rows


def test_cache_key_ignores_precision(tmp_path):
    # the key holds the lattice's structure and N only, so a table saved by
    # one instance serves an equal lattice built again
    gammas = list(iter_multi_indices(3, 3))
    t1 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    rows = {(a, b): t1.row(a, b) for a in gammas for b in gammas}
    t1.save()
    t2 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    assert t2._cache_path == t1._cache_path
    calls = []
    t2._build = lambda: calls.append("build")
    assert {(a, b): t2.row(a, b) for a in gammas for b in gammas} == rows
    assert calls == []


@pytest.mark.parametrize("lattice", [abelian(3, p=3),
                                     heisenberg(3)],
                         ids=["abelian3", "heisenberg"])
@pytest.mark.parametrize("alpha, beta, bad", [
    ((1, 0), (0, 0, 0), (1, 0)),
    ((-1, 0, 0), (1, 0, 0), (-1, 0, 0)),
    ((0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1)),
])
def test_row_refuses_bad_indices(lattice, alpha, beta, bad):
    table = StructureConstants(lattice, 3)
    with pytest.raises(PadicError, match=re.escape(str(bad))):
        table.row(alpha, beta)


@pytest.mark.parametrize("bad", [(0.5, 0, 0), (Fraction(1, 2), 0, 0), (True, 0, 0)],
                         ids=["float", "fraction", "bool"])
def test_row_refuses_a_non_int_entry(bad):
    """An entry that is not an int is refused as the negative one is, on
    either side of a row lookup, also once the table holds the rows of the
    int index that the entry equals (True == 1)."""
    table = StructureConstants(heisenberg(3), 3)
    table.row((1, 0, 0), (0, 0, 0))
    for alpha, beta in ((bad, (0, 0, 0)), ((0, 0, 0), bad)):
        with pytest.raises(PadicError, match=re.escape(str(bad))):
            table.row(alpha, beta)


def test_cache_save_is_atomic(tmp_path, monkeypatch):
    lat = heisenberg(3)
    t1 = StructureConstants(lat, 3, cache_dir=tmp_path)
    r = t1.row((1, 0, 0), (0, 2, 0))
    t1.save()
    saved = t1._cache_path.read_bytes()
    written = []

    def failing_write(path, text, encoding=None):
        written.append(path)
        path.write_bytes(text[:len(text) // 2].encode())
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", failing_write)
    with pytest.raises(OSError, match="disk full"):
        t1.save()
    monkeypatch.undo()
    # the half-written file was the temp file beside the cache file
    assert [(w.parent, w.suffix) for w in written] == [(tmp_path, ".tmp")]
    assert [f.name for f in tmp_path.iterdir()] == [t1._cache_path.name]
    assert t1._cache_path.read_bytes() == saved
    t2 = StructureConstants(lat, 3, cache_dir=tmp_path)
    assert t2._rows
    assert t2.row((1, 0, 0), (0, 2, 0)) == r


def _first_row(doc, edit):
    """The saved document with its first row replaced by ``edit(row)``."""
    doc["rows"][0] = edit(list(doc["rows"][0]))
    return doc


def _set(row, at, value):
    row[at] = value
    return row


def _swap_entries(doc):
    """The saved document with the first two entries of its first row of
    several entries swapped."""
    row = next(row for row in doc["rows"] if len(row) >= 6)
    row[2:6] = row[4:6] + row[2:4]
    return doc


def _without_alpha(doc):
    """The saved document less the rows of its last alpha."""
    last = doc["rows"][-1][0]
    doc["rows"] = [row for row in doc["rows"] if row[0] != last]
    return doc


@pytest.mark.parametrize("corrupt", [
    lambda doc: list(doc),
    lambda doc: {**doc, "den": 0},
    lambda doc: {**doc, "den": -doc["den"]},
    lambda doc: {**doc, "den": float(doc["den"])},
    lambda doc: {**doc, "version": 4.0},
    lambda doc: {**doc, "N": True},
    lambda doc: {**doc, "extra": 1},
    lambda doc: _first_row(doc, lambda row: row[:-1]),
    lambda doc: _first_row(doc, lambda row: row[:2]),
    lambda doc: _first_row(doc, lambda row: _set(row, 3, float(row[3]))),
    lambda doc: _first_row(doc, lambda row: _set(row, 3, True)),
    lambda doc: _first_row(doc, lambda row: _set(row, 3, str(row[3]))),
    lambda doc: _first_row(doc, lambda row: _set(row, 3, None)),
    lambda doc: _first_row(doc, lambda row: _set(row, 3, 0)),
    lambda doc: _first_row(doc, lambda row: _set(row, 2, -1)),
    lambda doc: _first_row(doc, lambda row: _set(row, 2, 20)),
    lambda doc: _first_row(doc, lambda row: _set(row, 1, 20)),
    lambda doc: _first_row(doc, lambda row: row + row[2:4]),
    _swap_entries,
    lambda doc: {**doc, "rows": doc["rows"][1::-1] + doc["rows"][2:]},
    lambda doc: {**doc, "rows": doc["rows"][:1] + doc["rows"]},
    lambda doc: {**doc, "rows": []},
    _without_alpha,
], ids=["list", "zero-denominator", "negative-denominator", "float-denominator",
        "float-version", "bool-N", "extra-key", "not-a-pair", "no-entry", "float", "bool",
        "string", "null", "zero-entry", "negative-position", "position-out-of-range",
        "beta-out-of-range", "gamma-repeated", "gammas-out-of-order", "rows-out-of-order",
        "row-repeated", "no-rows", "alpha-without-rows"])
def test_malformed_cache_is_a_miss(tmp_path, corrupt):
    """A cache file whose JSON is anything ``save`` cannot have written is
    ignored and the table rebuilt: another document shape, a ``den`` that
    is not an int >= 1, a number that is not an int (a bool included), a
    row of odd length or with no entry, a zero entry, a position outside
    the 20 multi-indices of the degree-3 table, a gamma repeated or out of
    order within a row, rows out of order or repeated, or an alpha with no
    rows.  A repeated gamma would count its entry twice in a product: the
    first row, b^0 b^0 = b^0, read with its entry twice gives 2 b^0."""
    gammas = list(iter_multi_indices(3, 3))
    assert len(gammas) == 20
    t1 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    rows = {(a, b): t1.row(a, b) for a in gammas for b in gammas}
    t1.save()
    doc = json.loads(t1._cache_path.read_bytes())
    t1._cache_path.write_text(json.dumps(corrupt(doc)))
    t2 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    assert not t2._rows
    assert {(a, b): t2.row(a, b) for a in gammas for b in gammas} == rows


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:len(raw) // 2],
    lambda raw: b"\xff\xfe" + raw,
    lambda raw: raw.replace(b'"den":', b'"den":' + b"1" * 5000, 1),
    lambda raw: b"[" * 100_000,
    lambda raw: b"",
], ids=["truncated", "not-utf-8", "over-long-int", "nested-too-deep", "empty"])
def test_unreadable_cache_is_a_miss(tmp_path, corrupt):
    """A cache file that does not decode as JSON is a miss, not an error."""
    t1 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    den = t1.den
    t1.save()
    t1._cache_path.write_bytes(corrupt(t1._cache_path.read_bytes()))
    t2 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    assert not t2._rows
    assert t2.den == den and t2._built


class _Mkdir:
    """Unpickles by creating the directory ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (str(self.path),)


def test_pickle_at_the_cache_path_is_never_loaded(tmp_path):
    """Loading a cache file runs no code: a pickle at the cache path, which
    would create a marker directory if it were unpickled, is a miss and the
    marker never appears."""
    marker = tmp_path / "marker"
    payload = pickle.dumps(_Mkdir(marker), protocol=4)
    pickle.loads(payload)  # the payload does what it says
    assert marker.is_dir()
    marker.rmdir()
    cache = tmp_path / "cache"
    t1 = StructureConstants(heisenberg(3), 3, cache_dir=cache)
    den = t1.den
    cache.mkdir()
    t1._cache_path.write_bytes(payload)
    t2 = StructureConstants(heisenberg(3), 3, cache_dir=cache)
    assert not t2._rows and not marker.exists()
    assert (t2.den, t2._rows) == (den, t1._rows)


def _table_text(table):
    """The table's contents as text: ``den``, then one line "alpha beta
    gamma n" per entry, rows and entries in ``_gammas`` order."""
    lines = [str(table.den)]
    for alpha in table._gammas:
        for beta in table._gammas:
            for gamma, n in table.int_row(alpha, beta):
                lines.append(" ".join([*(",".join(map(str, i)) for i in (alpha, beta, gamma)), str(n)]))
    return "\n".join(lines) + "\n"


def _heisenberg_over_o_l():
    """The d = 6 Heisenberg group over o_L, L = Q_9, as a lattice over Z_3."""
    field = FieldSpec.unramified(3, 2)
    return LGroupSpec(field, [field.one(), field.unram_gen()], 3, {
        (1, 2): ((0, 0), (0, 0), (3, 0))}).restrict()


@pytest.mark.parametrize("lattice, N, digest", [
    (heisenberg(3), 6, "b9814536afd76b7ecc1f12e9d80625f4e970724b6c3c16a81e70f159e38e52d5"),
    (heisenberg2(), 6, "e2854032992a212479b9a6bebaddf088902d7e7414e7bef5be4ab14138807524"),
    (filiform(3), 5, "e56803c07acaa4d9054b7c50b4fd1c14492c544915264e80013bba2e4c1f8247"),
    (heisenberg(3), 8, "eeb967e96d8832d3661795a9ec4e7bbe4f917012d3f826ae146ea454f5b4191a"),
    (_heisenberg_over_o_l(), 4, "45ece58227dd65224a089fe0fca97aee0d7054747124cb70c925070e12303589"),
], ids=["heisenberg-N6", "heisenberg2-N6", "filiform3-N5", "heisenberg-N8", "heisenberg(o_L)-N4"])
def test_table_contents_are_pinned(lattice, N, digest):
    """The whole table, den and every entry: the N <= 6 tables as recorded
    from the build of ``Fraction`` laws and per-gamma integer vectors, the
    heisenberg N = 8 one from the build with one slot width for every
    gamma, and the d = 6 Heisenberg group over o_L (L = Q_9), whose last
    two coordinates are not additive, from the build in the binomial basis
    with one tail-memoized product of rungs per gamma."""
    table = StructureConstants(lattice, N)
    assert hashlib.sha256(_table_text(table).encode()).hexdigest() == digest


def test_den_is_built_when_read_first():
    """Reading ``den`` before any row builds a non-abelian table; an
    abelian table's rows are over 1."""
    table = StructureConstants(filiform(3), 3)
    assert table.den == 16
    assert list(table._rows) == table._gammas
    assert StructureConstants(abelian(2, p=3), 3).den == 1


def test_cache_holds_den_and_the_int_rows(tmp_path):
    """The file is one JSON object; each nonempty row is a flat list of
    ints, alpha, beta and each gamma written as its position in the grid,
    rows in (alpha, beta) order and every alpha present."""
    gammas = list(iter_multi_indices(3, 3))
    t1 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    den = t1.den
    t1.save()
    doc = json.loads(t1._cache_path.read_bytes())
    assert doc["version"] == 4 and t1._cache_path.name.endswith("-v4.json")
    assert (doc["digest"], doc["N"], doc["den"]) == (t1.lattice.structure_digest(), 3, den)
    at = gammas.index
    expected = []
    for a in gammas:
        for b in gammas:
            entries = t1.int_row(a, b)
            if entries:
                expected.append([at(a), at(b), *(x for g, n in entries for x in (at(g), n))])
    assert doc["rows"] == expected
    assert sorted({row[0] for row in doc["rows"]}) == list(range(len(gammas)))


def test_loaded_table_equals_the_built_one(tmp_path):
    """A loaded table has the built one's rows, den and peak; its keys are
    the tuples of ``_gammas`` themselves, each alpha's betas are in grid
    order, and every entry's gamma is an int position in ``_gammas``,
    rising along the row."""
    t1 = StructureConstants(filiform(3), 4, cache_dir=tmp_path)
    t1.save()
    t2 = StructureConstants(filiform(3), 4, cache_dir=tmp_path)
    assert not t2._built
    assert (t2._rows, t2._den, t2._peak) == (t1._rows, t1._den, t1._peak)
    grid = {id(g) for g in t2._gammas}
    order = {g: i for i, g in enumerate(t2._gammas)}
    positions = range(len(t2._gammas))
    for alpha, rows in t2._rows.items():
        assert id(alpha) in grid
        assert [order[b] for b in rows] == sorted(order[b] for b in rows)
        for b, row in rows.items():
            assert id(b) in grid
            at = row[::2]
            assert all(type(g) is int and g in positions for g in at)
            assert at == sorted(set(at))


def test_held_rows_are_the_cache_file_rows(tmp_path):
    """A table holds each row as the cache file does: for the built table
    and for its reloaded copy, every held row prefixed by its (alpha, beta)
    positions is the matching row of the saved file."""
    t1 = StructureConstants(filiform(3), 4, cache_dir=tmp_path)
    t1.save()
    saved = json.loads(t1._cache_path.read_bytes())["rows"]
    t2 = StructureConstants(filiform(3), 4, cache_dir=tmp_path)
    assert not t2._built
    for table in (t1, t2):
        at = table._position
        held = [[at[alpha], at[beta]] + row
                for alpha, rows in table._rows.items() for beta, row in rows.items()]
        assert held == saved


def test_save_before_any_row_writes_the_whole_table(tmp_path, monkeypatch):
    """A non-abelian table saved before any row was read builds itself
    first, so the file holds every row and reloads whole, with no build."""
    t1 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    t1.save()

    def no_build(self):
        raise AssertionError("table built although the cache holds every row")

    monkeypatch.setattr(StructureConstants, "_build", no_build)
    t2 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    assert list(t2._rows) == t2._gammas
    assert (t2.den, t2._rows) == (t1.den, t1._rows)


def test_peak_is_the_largest_entry_built_or_loaded(tmp_path):
    """``_peak``, the max |n| that ``DistAlgebra.mul`` sizes its packed
    slots by, is read off the rows as built and as loaded; an abelian
    table, never cached, has den and every entry 1."""
    t1 = StructureConstants(filiform(3), 3, cache_dir=tmp_path)
    peak = max(abs(n) for a in t1._gammas for b in t1._gammas for _, n in t1.int_row(a, b))
    assert peak > 1 and t1._peak == peak
    t1.save()
    assert StructureConstants(filiform(3), 3, cache_dir=tmp_path)._peak == peak
    ab = StructureConstants(abelian(2, p=3), 3, cache_dir=tmp_path)
    assert ab.int_row((1, 0), (0, 1)) == (((1, 1), 1),)
    assert ab.den == ab._peak == 1 and ab._cache_path is None


def test_version_1_file_is_neither_loaded_nor_an_error(tmp_path):
    """Files of the previous formats, pickles all, are a miss both under
    their own names and at the current path: rows of reduced (n, d) pairs
    per gamma (version 1), every (alpha, beta) row over one den (version
    2) and the nonempty rows as alpha -> {beta: row} (version 3)."""
    gammas = list(iter_multi_indices(3, 3))
    t1 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
    rows = {(a, b): t1.row(a, b) for a in gammas for b in gammas}
    digest = t1.lattice.structure_digest()
    v1 = {
        "version": 1, "digest": digest, "N": 3,
        "rows": {key: {g: (c.numerator, c.denominator) for g, c in row.items()}
                 for key, row in rows.items()},
    }
    v2 = {
        "version": 2, "digest": digest, "N": 3, "den": t1.den,
        "rows": {(a, b): t1.int_row(a, b) for a in gammas for b in gammas},
    }
    v3 = {"version": 3, "digest": digest, "N": 3, "den": t1.den, "rows": t1._rows}
    for old in (v1, v2, v3):
        old_path = t1._cache_path.with_name(
            t1._cache_path.name.replace("-v4.json", f"-v{old['version']}.bin"))
        for path in (old_path, t1._cache_path):
            path.write_bytes(pickle.dumps(old, protocol=4))
            t2 = StructureConstants(heisenberg(3), 3, cache_dir=tmp_path)
            assert not t2._rows
            assert {(a, b): t2.row(a, b) for a in gammas for b in gammas} == rows
            path.unlink()


def test_build_refuses_a_law_leaving_z_p():
    """A law with p in a coordinate denominator is refused at the first
    point, in (x, y) order of positions, where it leaves Z_p, with the
    witness of ``group_law`` there.  The second planted law also leaves
    Z_p in its second coordinate, first at a later point with the same x
    (y = (0, 0, 1)), so the refusal still names the earliest point.  The
    third, (x0^2 - x0) y1 / 3 = 2 binom(x0, 2) y1 / 3, first leaves Z_p
    at x = (2, 0, 0), where its only failing binomial coefficient sits."""
    x0, x2, y1, y2 = (_LawPoly({((v, 1),): Fraction(1)}) for v in (0, 2, 4, 5))
    third = Fraction(1, 3)
    gammas = list(iter_multi_indices(3, 3))
    x, y = next((x, y) for x in gammas for y in gammas if x[0] * y[1] % 3)
    assert (x, y) == ((1, 0, 0), (0, 1, 0))
    assert gammas.index((0, 1, 0)) < gammas.index((0, 0, 1))
    planted = [
        (y1, x0 * y1 * third, (x, y, (Fraction(1), Fraction(1), Fraction(1, 3)))),
        (y1 + x0 * y2 * third, x0 * y1 * third, (x, y, (Fraction(1), Fraction(1), Fraction(1, 3)))),
        (y1, (x0 * x0 - x0) * y1 * third,
         ((2, 0, 0), (0, 1, 0), (Fraction(2), Fraction(1), Fraction(2, 3)))),
    ]
    for second, cross, witness in planted:
        lat = heisenberg(3)
        lat.second_kind_law = SecondKindLaw(3, [x0, second, x2 + y2 + cross], 2 * lat.d)
        table = StructureConstants(lat, 3)
        with pytest.raises(CounterexampleFound, match="group law left Z_p") as info:
            table.row((0, 0, 0), (0, 0, 0))
        assert info.value.witness == witness


def test_a_list_index_is_refused_with_a_padic_error():
    """An index given as a list is not a multi-index: ``rows_from`` and
    ``row`` refuse it with a PadicError naming it, where a bare
    TypeError (unhashable type: 'list') came out."""
    table = StructureConstants(heisenberg(3), 4)
    for lookup in (lambda: table.rows_from([1, 0, 0]), lambda: table.row((0, 0, 0), [1, 0, 0])):
        with pytest.raises(PadicError, match=re.escape("index [1, 0, 0] is not a multi-index")):
            lookup()
