"""Tag code / family codec tests."""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vttag import codes
from vttag.codes import (
    TagCode,
    TagFamily,
    decode_code,
    generate_family,
    hamming,
    identity_space_size,
    rotate90,
    _BATCH,
    _GREEDY_CHUNK,
    _TABU_BATCHES,
    _candidate_stream,
    _clear_codes,
    _feistel_batch,
    _feistel_inverse,
    _max_self_distance,
    _rotate_packed,
    _rotation_tables,
    _stream_keys,
)
from vttag.errors import GenerationExhausted


def random_code(rng, n=5) -> TagCode:
    return TagCode(n, tuple(bool(b) for b in rng.integers(0, 2, n * n)))


class TestTagCode:
    def test_string_round_trip(self):
        s = "10" * 8  # n = 4
        code = TagCode.from_string(4, s)
        assert code.to_string() == s

    def test_int_round_trip(self):
        code = TagCode.from_int(5, 0x12E3D4A)
        assert TagCode.from_int(5, code.to_int()) == code
        assert code.to_int() == 0x12E3D4A

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        code = random_code(rng)
        assert TagCode.from_array(code.to_array()) == code

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            TagCode(3, (True,) * 8)
        with pytest.raises(ValueError):
            TagCode.from_string(3, "111")

    def test_bad_chars_raise(self):
        with pytest.raises(ValueError):
            TagCode.from_string(2, "10x1")

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            TagCode(1, (True,))


class TestRotate90:
    def test_moves_bit_as_documented(self):
        # single set bit at (r, c) = (0, 1) must land at (c, n-1-r) = (1, 2)
        n = 3
        grid = np.zeros((n, n), dtype=bool)
        grid[0, 1] = True
        rot = rotate90(TagCode.from_array(grid)).to_array()
        assert rot[1, 2]
        assert rot.sum() == 1

    @given(st.integers(0, 2**25 - 1))
    @settings(max_examples=50, deadline=None)
    def test_four_rotations_identity(self, value):
        code = TagCode.from_int(5, value)
        out = code
        for _ in range(4):
            out = rotate90(out)
        assert out == code


    @given(st.lists(st.integers(0, 2**25 - 1), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_packed_rotation_matches(self, values):
        packed = _rotate_packed(np.array(values, dtype=np.uint64), _rotation_tables(5))
        assert packed.tolist() == [rotate90(TagCode.from_int(5, v)).to_int() for v in values]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_packed_rotation_matches_for_every_chunk_count(self, n):
        # n = 2 ... 8 packs into 1 ... 5 lookup chunks; the all-ones code and
        # one with only the top bit set reach the last chunk's highest entry
        nbits = n * n
        rng = np.random.default_rng(n)
        values = [(1 << nbits) - 1, 1 << (nbits - 1)]
        values += rng.integers(0, 1 << nbits, 20, dtype=np.uint64).tolist()
        expected = [rotate90(TagCode.from_int(n, v)).to_int() for v in values]
        shared = _rotation_tables(n)  # built once per n and shared, so read-only
        assert shared is _rotation_tables(n) and not shared.flags.writeable
        assert len(shared) == -(-nbits // 13)
        dtypes = [np.uint32, np.uint64] if nbits <= 32 else [np.uint64]
        for dtype in dtypes:
            tables = shared.astype(dtype)
            packed = _rotate_packed(np.array(values, dtype=dtype), tables)
            assert packed.dtype == dtype
            assert packed.tolist() == expected


class TestHamming:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        a = random_code(rng)
        assert hamming(a, a) == 0

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_popcount(self, x, y):
        a, b = TagCode.from_int(4, x), TagCode.from_int(4, y)
        assert hamming(a, b) == hamming(b, a) == bin(x ^ y).count("1")

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming(TagCode.from_int(4, 0), TagCode.from_int(5, 0))


def check_family_separation(family: TagFamily) -> int:
    """Independent exhaustive separation check; returns the observed minimum.

    Uses only string twiddling (no library rotation helpers) on purpose.
    """

    def rot_str(s: str, n: int) -> str:
        # clockwise quarter turn: reverse the rows, then transpose
        g = [list(s[i * n : (i + 1) * n]) for i in range(n)]
        return "".join("".join(row) for row in zip(*g[::-1]))

    n = family.n
    strings = [c.to_string() for c in family.codes]
    best = n * n + 1
    for i, si in enumerate(strings):
        variants = []
        s = si
        for _ in range(4):
            s = rot_str(s, n)
            variants.append(s)
        # self-separation: nontrivial rotations of i vs i
        for v in variants[:3]:
            d = sum(a != b for a, b in zip(si, v))
            best = min(best, d)
        for j, sj in enumerate(strings):
            if j <= i:
                continue
            for v in [si] + variants:
                d = sum(a != b for a, b in zip(sj, v))
                best = min(best, d)
    return best


class TestGenerateFamily:
    def test_deterministic(self):
        f1 = generate_family(4, 6, 8, seed=7)
        f2 = generate_family(4, 6, 8, seed=7)
        assert f1 == f2

    def test_seed_changes_output(self):
        assert generate_family(4, 6, 8, seed=7) != generate_family(4, 6, 8, seed=8)

    def test_separation_holds(self):
        fam = generate_family(4, 6, 10, seed=3)
        assert len(fam) == 10
        assert check_family_separation(fam) >= 6

    def test_swap_phase_extends_maximal_greedy_family(self):
        # one sweep of all 2**16 codes is the greedy pass alone: it ends
        # maximal at 13 codes, so the 14th needs the swap phase
        greedy = generate_family(4, 6, 14, seed=0, budget=identity_space_size(4))
        assert len(greedy) == 13
        fam = generate_family(4, 6, 14, seed=0, budget=200_000)
        assert len(fam) == 14
        assert check_family_separation(fam) >= 6
        assert fam == generate_family(4, 6, 14, seed=0, budget=200_000)

    def test_impossible_distance_exhausts(self):
        with pytest.raises(GenerationExhausted):
            generate_family(2, 5, 1, seed=0, budget=32)

    def test_json_round_trip(self, tmp_path):
        fam = generate_family(4, 6, 5, seed=11)
        path = tmp_path / "fam.json"
        fam.save(path)
        assert TagFamily.load(path) == fam

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            generate_family(4, 6, 10, seed=0, budget=5)


def _reference_generate_family(n, d_min, max_codes, seed, budget=2_000_000):
    """generate_family's codes as one loop over _BATCH-index batches, for both phases.

    Every batch builds the full conflict matrix of its admissible candidates
    against the accepted codes, and the batch counter runs through both
    phases. generate_family must return the same codes.
    """
    dtype = np.uint32 if n * n <= 32 else np.uint64
    tables = _rotation_tables(n).astype(dtype)

    def rotations(value):
        out = [np.array([value], dtype=dtype)]
        for _ in range(3):
            out.append(_rotate_packed(out[-1], tables))
        return np.stack(out)

    def conflicts(values, rots):
        hit = np.zeros((values.size, rots.shape[1]), dtype=bool)
        for q in range(4):
            hit |= np.bitwise_count(values[:, None] ^ rots[q][None, :]) < d_min
        return hit

    accepted = []
    accepted_rots = np.empty((4, 0), dtype=dtype)
    entered = []
    examined = batch_no = sweep = 0
    while len(accepted) < max_codes and examined < budget:
        if sweep > 0 and not accepted:
            break
        for vals in _candidate_stream(n, seed, sweep):
            vals = vals[: budget - examined].astype(dtype)
            if vals.size == 0:
                break
            examined += vals.size
            r90 = _rotate_packed(vals, tables)
            r180 = _rotate_packed(r90, tables)
            vals = vals[
                (np.bitwise_count(vals ^ r90) >= d_min)
                & (np.bitwise_count(vals ^ r180) >= d_min)
            ]
            hit = conflicts(vals, accepted_rots)
            pos = 0
            while len(accepted) < max_codes:
                count = np.count_nonzero(hit[pos:], axis=1)
                ok = count == 0
                if sweep > 0:
                    tabu = [i for i, b in enumerate(entered) if b > batch_no - _TABU_BATCHES]
                    ok |= (count == 1) & ~hit[pos:, tabu].any(axis=1)
                hits = np.nonzero(ok)[0]
                if hits.size == 0:
                    break
                p = pos + int(hits[0])
                swap = count[p - pos] == 1
                pos = p + 1
                value = int(vals[p])
                if not swap:
                    slot = len(accepted)
                    accepted.append(value)
                    entered.append(-_TABU_BATCHES)
                    accepted_rots = np.hstack([accepted_rots, rotations(value)])
                    hit = np.hstack([hit, np.zeros((vals.size, 1), dtype=bool)])
                else:
                    slot = int(np.argmax(hit[p]))
                    if value in accepted_rots[:, slot]:
                        continue
                    accepted[slot] = value
                    entered[slot] = batch_no
                    accepted_rots[:, slot] = rotations(value)[:, 0]
                hit[pos:, slot] = conflicts(vals[pos:], accepted_rots[:, slot : slot + 1])[:, 0]
            batch_no += 1
            if len(accepted) == max_codes or examined >= budget:
                break
        sweep += 1
    if not accepted:
        raise GenerationExhausted(examined)
    return [TagCode.from_int(n, v) for v in accepted]


# (n, d_min, max_codes, seed, budget): greedy-only, budget cuts inside the
# greedy pass, and swap-phase runs; the last one ends the greedy pass of
# 2**25 codes with the finish
ORACLE_CASES = [
    (3, 3, 5, 0, 1000),
    (4, 5, 20, 1, 2_000_000),
    (4, 6, 14, 0, 65536),
    (4, 6, 14, 0, 200_000),
    (4, 6, 15, 0, 2_000_000),
    (4, 7, 8, 0, 2_000_000),
    (5, 9, 30, 42, 2_000_000),
    (5, 9, 30, 42, 150_001),
    (5, 10, 22, 0, 2**25 + 300_000),
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=str)
def test_generate_family_matches_reference(case):
    n, d_min, count, seed, budget = case
    fam = generate_family(n, d_min, count, seed=seed, budget=budget)
    assert list(fam.codes) == _reference_generate_family(n, d_min, count, seed, budget)


def test_oracle_budget_cut_lands_inside_a_greedy_chunk():
    # the last budget above must cut mid-chunk and mid-batch, before the
    # family is complete
    chunks = itertools.islice(_candidate_stream(5, 42, batch=_GREEDY_CHUNK), 8)
    ends = np.cumsum([v.size for v in chunks])
    assert 150_001 % _BATCH and 150_001 not in ends and ends[-1] > 150_001
    assert len(generate_family(5, 9, 30, seed=42, budget=150_001)) < 30


@pytest.mark.parametrize("n, indices", [(3, None), (4, None), (5, 1 << 20)])
def test_candidate_stream_is_independent_of_batch(n, indices):
    def stream(batch):
        arrays = _candidate_stream(n, seed=5, batch=batch)
        if indices is not None:
            arrays = itertools.islice(arrays, indices // batch)
        return np.concatenate(list(arrays))

    np.testing.assert_array_equal(stream(_BATCH), stream(_GREEDY_CHUNK))


@pytest.mark.parametrize("sweep", [0, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_feistel_inverse_undoes_the_permutation(n, sweep):
    half = (n * n + 1) // 2
    keys = _stream_keys(5, sweep)
    idx = np.random.default_rng(n).integers(0, 1 << (2 * half), 1 << 14, dtype=np.uint64)
    np.testing.assert_array_equal(_feistel_inverse(_feistel_batch(idx, half, keys), half, keys), idx)
    # every in-range value, in slices small enough to stay in cache
    for lo in range(0, 1 << (n * n), _GREEDY_CHUNK):
        vals = np.arange(lo, min(lo + _GREEDY_CHUNK, 1 << (n * n)), dtype=np.uint64)
        assert (_feistel_batch(_feistel_inverse(vals, half, keys), half, keys) == vals).all()


@pytest.mark.parametrize(
    "case, finishes",
    [((5, 10, 22, 0, 2**25 + 300_000), 1), ((5, 9, 30, 42, 2_000_000), 0)],
    ids=str,
)
def test_greedy_finish_runs_once_past_the_walked_prefix(monkeypatch, case, finishes):
    # the finish runs only when the budget covers every code, at most once
    # per call, and takes only codes the walk has not passed
    n, d_min, count, seed, budget = case
    survivor_index = []
    walked = []  # the chunks of the greedy walk

    def inverse(vals, half_bits, keys):
        assert not survivor_index, "the finish ran twice"
        survivor_index.append(_feistel_inverse(vals, half_bits, keys))
        return survivor_index[-1]

    def stream(n, seed, sweep=0, batch=_BATCH):
        for vals in _candidate_stream(n, seed, sweep, batch):
            if sweep == 0:
                walked.append(vals)
            yield vals

    monkeypatch.setattr(codes, "_feistel_inverse", inverse)
    monkeypatch.setattr(codes, "_candidate_stream", stream)
    generate_family(n, d_min, count, seed=seed, budget=budget)
    assert len(survivor_index) == finishes
    if finishes:
        # the walk stops at the end of the chunk it last drew
        half = (n * n + 1) // 2
        last = int(_feistel_inverse(walked[-1].astype(np.uint64), half, _stream_keys(seed, 0)).max())
        prefix_end = (last // _GREEDY_CHUNK + 1) * _GREEDY_CHUNK
        assert survivor_index[0].size and survivor_index[0].min() >= prefix_end


def test_greedy_finish_needs_an_accepted_code(monkeypatch):
    # no n = 4 code lies 11 from its own rotations, so the only chunk screens
    # out with nothing accepted; a finish would find every code clear
    def screen(*args):
        pytest.fail("the finish ran with no code accepted")

    monkeypatch.setattr(codes, "_clear_codes", screen)
    with pytest.raises(GenerationExhausted):
        generate_family(4, 11, 1, seed=0, budget=2**17)


def test_greedy_finish_waits_for_a_first_acceptance(monkeypatch):
    # admissible codes exist at n = 4, d_min 10, but none lies in the first
    # 64-index chunk of seed 4's walk; that chunk screens out with nothing
    # accepted, so the pass must walk on and finish only once it holds a code
    monkeypatch.setattr(codes, "_GREEDY_CHUNK", 64)
    n, d_min, seed = 4, 10, 4
    first = next(_candidate_stream(n, seed, batch=64))
    assert (_self_distance(n, first) < d_min).all()
    finishes = []

    def screen(nbits, d_min, centres):
        assert centres.size, "the finish ran with no code accepted"
        finishes.append(centres.size)
        return _clear_codes(nbits, d_min, centres)

    monkeypatch.setattr(codes, "_clear_codes", screen)
    fam = generate_family(n, d_min, 30, seed=seed, budget=2**16)
    assert len(finishes) == 1
    assert list(fam.codes) == _reference_generate_family(n, d_min, 30, seed, 2**16)


def _self_distance(n, values):
    """min(d(v, r90 v), d(v, r180 v), d(v, r270 v)) of each value."""
    tables = _rotation_tables(n).astype(values.dtype)
    turns = [values]
    for _ in range(3):
        turns.append(_rotate_packed(turns[-1], tables))
    return np.min([np.bitwise_count(values ^ r) for r in turns[1:]], axis=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_max_self_distance_matches_brute_force(n):
    codes_ = np.arange(1 << (n * n), dtype=np.uint32)
    assert _max_self_distance(n) == int(_self_distance(n, codes_).max())


def test_max_self_distance_of_5x5():
    # no 5x5 code lies farther than 16 from its own rotations
    assert _max_self_distance(5) == 16


@pytest.mark.parametrize("budget", [2**25, 1000])
def test_no_admissible_code_exhausts_at_once(budget):
    # the walk would examine min(budget, 2^25) candidates and accept none;
    # it took over 7 s before this exit
    t0 = time.perf_counter()
    with pytest.raises(GenerationExhausted) as err:
        generate_family(5, 17, 1, seed=0, budget=budget)
    assert time.perf_counter() - t0 < 1.0
    assert err.value.examined == min(budget, 2**25)


def _clear_of_chain(values, d_min, centres):
    """The brute-force screen: the values at least d_min from each centre in turn."""
    for c in centres:
        values = values[np.bitwise_count(values ^ c) >= d_min]
    return values


def _with_rotations(n, codes_):
    """The four quarter turns of each code, as one array of centres."""
    tables = _rotation_tables(n).astype(codes_.dtype)
    turns = [codes_]
    for _ in range(3):
        turns.append(_rotate_packed(turns[-1], tables))
    return np.concatenate(turns)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_clear_codes_matches_brute_force(n):
    # every code; d_min = n*n + 1 leaves every row empty and nothing clear;
    # n = 2 and 3 pad their rows to a word
    every = np.arange(1 << (n * n), dtype=np.uint32)
    rng = np.random.default_rng(n)
    for d_min in range(1, n * n + 2):
        for count in (0, 1, 3):
            centres = _with_rotations(n, rng.integers(0, 1 << (n * n), count).astype(np.uint32))
            got = _clear_codes(n * n, d_min, centres)
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, _clear_of_chain(every, d_min, centres))


def test_clear_codes_matches_chunked_screen_n5():
    # the greedy finish's former screen: 2**16-code chunks in natural order
    centres = _with_rotations(5, np.random.default_rng(5).integers(0, 1 << 25, 15).astype(np.uint32))
    chunks = [np.arange(lo, lo + (1 << 16), dtype=np.uint32) for lo in range(0, 1 << 25, 1 << 16)]
    expected = np.concatenate([_clear_of_chain(chunk, 10, centres) for chunk in chunks])
    assert expected.size
    np.testing.assert_array_equal(_clear_codes(25, 10, centres), expected)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_clear_codes_ends_land_in_place(n):
    # the lowest and highest codes come out first and last, so the bit
    # order of the packed rows matches the code values
    top = (1 << (n * n)) - 1
    one_centre = np.array([0], dtype=np.uint32)
    both_ends = np.array([0, top], dtype=np.uint32)
    got = _clear_codes(n * n, 1, one_centre)
    assert (got[0], got[-1], got.size) == (1, top, top)
    got = _clear_codes(n * n, 2, both_ends)
    assert (got[0], got[-1]) == (0b11, top ^ 0b11)
    got = _clear_codes(n * n, 1, np.array([top], dtype=np.uint32))
    assert (got[0], got[-1], got.size) == (0, top - 1, top)


@pytest.fixture(scope="module")
def family():
    return generate_family(5, 9, 30, seed=42)


class TestDecode:
    def test_exact_codes_decode(self, family):
        for i, code in enumerate(family.codes):
            res = decode_code(code, family)
            assert res is not None
            assert (res.index, res.rotation, res.distance) == (i, 0, 0)

    def test_rotated_codes_decode(self, family):
        code = family.codes[3]
        rotated = rotate90(rotate90(code))
        res = decode_code(rotated, family)
        assert (res.index, res.rotation) == (3, 2)
        assert res.rotation_deg == 180

    def test_correctable_flips(self, family):
        rng = np.random.default_rng(99)
        t_max = family.correction_budget
        for _ in range(200):
            idx = int(rng.integers(len(family)))
            rot = int(rng.integers(4))
            nflips = int(rng.integers(0, t_max + 1))
            code = family.codes[idx]
            for _ in range(rot):
                code = rotate90(code)
            bits = list(code.bits)
            for p in rng.choice(25, size=nflips, replace=False):
                bits[p] = not bits[p]
            res = decode_code(TagCode(5, tuple(bits)), family)
            assert res is not None
            assert (res.index, res.rotation) == (idx, rot)
            assert res.distance == nflips

    def test_budget_is_the_family_radius(self, family):
        # one flip past the unique-decoding radius never decodes beyond it
        code = family.codes[0]
        bits = list(code.bits)
        for p in range(family.correction_budget + 1):
            bits[p] = not bits[p]
        res = decode_code(TagCode(5, tuple(bits)), family)
        assert res is None or res.distance <= family.correction_budget

    def test_size_mismatch(self, family):
        with pytest.raises(ValueError):
            decode_code(TagCode.from_int(4, 0), family)


def test_identity_space_size_n6():
    assert identity_space_size(6) == 68719476736


def test_identity_space_size_small():
    assert identity_space_size(2) == 16
    assert identity_space_size(3) == 512
