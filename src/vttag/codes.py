"""Square bit-grid tag identities with guaranteed mutual Hamming separation.

Codes are n x n boolean grids (payload only, borders are a rendering
concern), stored row-major from the top-left cell, True = white cell.
A family is a set of codes whose pairwise Hamming distance under all
four quarter-turn rotations stays at or above a floor d_min, so that a
corrupted observation still decodes to a unique (code, rotation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import GenerationExhausted

__all__ = [
    "TagCode",
    "TagFamily",
    "DecodeResult",
    "rotate90",
    "hamming",
    "generate_family",
    "decode_code",
    "identity_space_size",
]


def identity_space_size(n: int) -> int:
    """Number of raw n x n identities before any distance filtering (2**(n*n))."""
    return 2 ** (n * n)


_MAX_N = 8  # a family's codes pack into uint64 words, so n * n <= 64


@dataclass(frozen=True)
class TagCode:
    """Payload bit grid of a square tag: n cells per side, row-major, True = white."""

    n: int
    bits: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if len(self.bits) != self.n * self.n:
            raise ValueError(f"expected {self.n * self.n} bits, got {len(self.bits)}")
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @classmethod
    def from_string(cls, n: int, s: str) -> "TagCode":
        if len(s) != n * n or set(s) - {"0", "1"}:
            raise ValueError(f"code string must be {n * n} chars of 0/1")
        return cls(n, tuple(c == "1" for c in s))

    @classmethod
    def from_int(cls, n: int, value: int) -> "TagCode":
        """Unpack from an integer where bit k (LSB first) is cell k in row-major order."""
        return cls(n, tuple(bool((value >> k) & 1) for k in range(n * n)))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def to_int(self) -> int:
        v = 0
        for k, b in enumerate(self.bits):
            if b:
                v |= 1 << k
        return v

    def to_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=bool).reshape(self.n, self.n)

    @classmethod
    def from_array(cls, grid: np.ndarray) -> "TagCode":
        grid = np.asarray(grid, dtype=bool)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("grid must be square")
        return cls(grid.shape[0], tuple(grid.reshape(-1).tolist()))


def rotate90(code: TagCode) -> TagCode:
    """Quarter-turn rotation: the bit at (r, c) moves to (c, n-1-r)."""
    # new[c, n-1-r] = old[r, c]  <=>  clockwise rotation of the grid
    return TagCode.from_array(np.rot90(code.to_array(), k=-1))


def hamming(a: TagCode, b: TagCode) -> int:
    """Number of differing cells between two equal-size codes."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return int((a.to_int() ^ b.to_int()).bit_count())


# Bits per lookup of _rotate_packed: a 25-bit code takes two, a 64-bit one five.
_CHUNK_BITS = 13


@lru_cache(maxsize=8)
def _rotation_tables(n: int) -> np.ndarray:
    """Per-chunk lookup tables for one quarter turn of a packed n x n code.

    Row k maps the value of bits 13k ... 13k + 12 of a code to those bits
    moved to their rotated positions, so a rotation is an OR of one lookup
    per 13-bit chunk. Each row is built by doubling: the entries with bit b
    set are those below 2^b plus bit b's rotated position. Built once per n
    in uint64; the array is shared, so it is read-only.
    """
    nbits = n * n
    tables = np.zeros((-(-nbits // _CHUNK_BITS), 1 << _CHUNK_BITS), dtype=np.uint64)
    for old in range(nbits):
        k, b = divmod(old, _CHUNK_BITS)
        r, c = divmod(old, n)
        tables[k, 1 << b : 2 << b] = tables[k, : 1 << b] | np.uint64(1 << (c * n + n - 1 - r))
    tables.flags.writeable = False
    return tables


def _rotate_packed(values: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Quarter-turn a batch of packed codes (see _rotation_tables)."""
    mask = values.dtype.type((1 << _CHUNK_BITS) - 1)
    out = tables[0][values & mask]
    for k in range(1, len(tables)):
        out |= tables[k][(values >> values.dtype.type(_CHUNK_BITS * k)) & mask]
    return out


@dataclass(frozen=True)
class TagFamily:
    """Ordered, rotation-disambiguated code set with minimum mutual distance d_min."""

    n: int
    d_min: int
    seed: int
    codes: tuple

    def __post_init__(self):
        if not 2 <= self.n <= _MAX_N:
            raise ValueError(f"n must be in 2..{_MAX_N}, got {self.n}")
        object.__setattr__(self, "codes", tuple(self.codes))
        for c in self.codes:
            if c.n != self.n:
                raise ValueError("all codes must have the family cell count")

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def correction_budget(self) -> int:
        """Unique-decoding radius floor((d_min - 1) / 2)."""
        return (self.d_min - 1) // 2

    @cached_property
    def _rotation_table(self) -> np.ndarray:
        """Packed codes under all four rotations, shape (len, 4)."""
        table = np.empty((len(self.codes), 4), dtype=np.uint64)
        for i, code in enumerate(self.codes):
            c = code
            for q in range(4):
                table[i, q] = c.to_int()
                c = rotate90(c)
        return table

    @cached_property
    def _cell_grids(self) -> np.ndarray:
        """Gray cell grids of the tags as drawn, shape (len, n+4, n+4), read-only.

        Each is a white outer ring, a black ring and the payload (white
        cells 255, black 0). The renderer reads them here, built once per
        family.
        """
        n = self.n
        grids = np.full((len(self.codes), n + 4, n + 4), 255, dtype=np.uint8)
        grids[:, 1:-1, 1:-1] = 0
        for grid, code in zip(grids, self.codes):
            grid[2:-2, 2:-2][code.to_array()] = 255
        grids.flags.writeable = False
        return grids

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d_min": self.d_min,
            "seed": self.seed,
            "codes": [c.to_string() for c in self.codes],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TagFamily":
        n = int(d["n"])
        return cls(
            n=n,
            d_min=int(d["d_min"]),
            seed=int(d["seed"]),
            codes=tuple(TagCode.from_string(n, s) for s in d["codes"]),
        )


def _feistel_round(part: np.ndarray, key, mask: np.uint64) -> np.ndarray:
    """The round function of _feistel_batch: a keyed mix of one half, cut to mask."""
    x = (part ^ np.uint64(key)) * np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(29)
    return x & mask


def _feistel_batch(idx: np.ndarray, half_bits: int, keys: np.ndarray) -> np.ndarray:
    """Four-round Feistel network: a keyed pseudo-random permutation of 2*half_bits-bit ints."""
    hb = np.uint64(half_bits)
    mask = np.uint64((1 << half_bits) - 1)
    left = (idx >> hb) & mask
    right = idx & mask
    for k in keys:
        left, right = right, left ^ _feistel_round(right, k, mask)
    return (left << hb) | right


def _feistel_inverse(vals: np.ndarray, half_bits: int, keys: np.ndarray) -> np.ndarray:
    """The index that _feistel_batch maps to each value: its rounds run backwards."""
    hb = np.uint64(half_bits)
    mask = np.uint64((1 << half_bits) - 1)
    left = (vals >> hb) & mask
    right = vals & mask
    for k in keys[::-1]:
        left, right = right ^ _feistel_round(left, k, mask), left
    return (left << hb) | right


# Indices per Feistel evaluation, and per batch of the swap phase, whose
# tabu clock counts batches.
_BATCH = 8192
# Indices per chunk of the greedy pass.
_GREEDY_CHUNK = 1 << 16


def _stream_keys(seed: int, sweep: int) -> np.ndarray:
    """The four Feistel round keys of one seed and sweep."""
    entropy = [seed, 0xFE157E1] + ([sweep] if sweep else [])
    return np.random.SeedSequence(entropy).generate_state(4, np.uint64)


def _candidate_stream(n: int, seed: int, sweep: int = 0, batch: int = _BATCH):
    """Yield packed candidate codes in a seeded pseudo-random permutation order.

    A Feistel permutation over a power-of-two superset of the n*n-bit space,
    with out-of-range values discarded, visits every candidate exactly once.
    Each sweep number keys an independent permutation of the same space.

    Each yielded array holds the in-range values of the next `batch` indices
    of the permutation, in order; empty arrays are skipped. So `batch` only
    sets where the stream is cut, never its values or their order. The
    permutation itself is evaluated _BATCH indices at a time, which keeps
    its temporaries small whatever the batch.
    """
    nbits = n * n
    half = (nbits + 1) // 2
    domain = 1 << (2 * half)
    limit = 1 << nbits
    keys = _stream_keys(seed, sweep)
    for start in range(0, domain, batch):
        stop = min(start + batch, domain)
        blocks = []
        for lo in range(start, stop, _BATCH):
            vals = _feistel_batch(np.arange(lo, min(lo + _BATCH, stop), dtype=np.uint64), half, keys)
            blocks.append(vals[vals < limit])
        vals = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        if vals.size:
            yield vals


# High halves per block of _clear_codes: its two working bitmaps hold this
# many packed rows, not the whole code space.
_SCREEN_BLOCK = 256


def _clear_codes(nbits: int, d_min: int, centres: np.ndarray) -> np.ndarray:
    """Every nbits-bit code at least d_min from each of centres, in increasing order.

    A code v splits into a low half of nbits // 2 bits and a high half, and
    its distance to a centre c is the sum of the halves' distances. So v is
    clear of c iff popcount(lo(v) ^ lo(c)) >= d_min - k, where k is
    popcount(hi(v) ^ hi(c)). Each centre gets one packed bit row over all
    low halves per k in 0 ... high bits: the low halves at least d_min - k
    from its own. Each high half takes the row of its k for every centre,
    and the AND of those rows marks its clear codes. Returns them in the
    dtype of centres.
    """
    dtype = centres.dtype.type
    lo_bits = nbits // 2
    hi_bits = nbits - lo_bits
    span = 1 << lo_bits
    lows = np.arange(max(span, 64))  # row bits: every low half, padded to a whole word
    words = lows.size // 64
    # rows[i, k]: the low halves at least d_min - k from the low half of centre i
    rows = np.empty((centres.size, hi_bits + 1, words), dtype=np.uint64)
    wanted = d_min - np.arange(hi_bits + 1)[:, None]
    for row, c in zip(rows, (centres & dtype(span - 1)).astype(np.intp)):
        far = np.bitwise_count(lows ^ c) >= wanted
        row.view(np.uint8)[:] = np.packbits(far, axis=1, bitorder="little")
    centre_his = centres >> dtype(lo_bits)
    every_low = np.packbits(lows < span, bitorder="little").view(np.uint64)  # zero padding
    bitmaps = np.empty((2, min(_SCREEN_BLOCK, 1 << hi_bits), words), dtype=np.uint64)
    out = []
    for start in range(0, 1 << hi_bits, _SCREEN_BLOCK):
        his = np.arange(start, min(start + _SCREEN_BLOCK, 1 << hi_bits), dtype=dtype)
        acc, picked = bitmaps[:, : his.size]
        acc[:] = every_low
        for row, k in zip(rows, np.bitwise_count(centre_his[:, None] ^ his)):
            # k is always in range; mode="raise" would copy through a buffer
            acc &= np.take(row, k, axis=0, out=picked, mode="clip")
        # read the set bits off the nonzero words only
        flat = acc.reshape(-1)
        hit = np.flatnonzero(flat)
        bits = np.unpackbits(flat[hit].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        word, bit = np.nonzero(bits)
        at = hit[word]
        out.append((his[at // words] << dtype(lo_bits)) | (at % words * 64 + bit).astype(dtype))
    return np.concatenate(out)


# Batches for which a code swapped into the family cannot be swapped out again.
_TABU_BATCHES = 32


def _max_self_distance(n: int) -> int:
    """The largest min(d(v, r90 v), d(v, r180 v)) over all n x n codes v.

    A quarter turn splits the cells into m = n*n // 4 four-cycles, plus the
    centre when n is odd, which every turn fixes. On one cycle, v adds (0, 0),
    (2, 2), (2, 4) or (4, 0) to that pair of distances: all four cells
    alike, one odd cell out, two adjacent cells alike, or alternating cells.
    (2, 4) dominates the first two, so the best code takes x alternating
    cycles and m - x adjacent pairs. d(v, r270 v) equals d(v, r90 v).
    """
    m = n * n // 4
    return max(min(2 * m + 2 * x, 4 * m - 4 * x) for x in range(m + 1))


def generate_family(
    n: int,
    d_min: int,
    max_codes: int,
    seed: int,
    budget: int = 2_000_000,
) -> TagFamily:
    """Greedy lexicode over a seeded permutation of all n x n codes, then one-swap search.

    Two codes conflict when some rotation of one lies closer than d_min to
    the other. A candidate is admissible iff it also lies at least d_min
    from each of its own nontrivial rotations.

    Greedy pass: walk a seeded pseudo-random permutation of every n x n code
    and accept each admissible candidate that conflicts with no accepted
    code. The family only grows here, so a candidate that conflicts with an
    accepted code is out for good. The pass walks the permutation in
    _GREEDY_CHUNK-index chunks. It screens each chunk against the accepted
    codes one code at a time, tests only the survivors for admissibility,
    then accepts the first survivor and re-screens the rest against it.

    Finish: once a chunk screens out entirely, some code has been accepted
    and budget covers all 2^(n*n) codes, the pass screens every code in
    natural order instead, sorts the survivors by their index in the
    permutation (_feistel_inverse) and accepts them as above; it then
    counts all 2^(n*n) codes as examined. This is exact. The family only
    grows, so a survivor was also clear when the walk passed it and would
    have been accepted: every survivor lies beyond the walked prefix.
    Every code the walk could still accept is a survivor, so taking them
    in permutation order, with the re-screen, is the rest of the walk.
    With that budget the walk cannot be cut, and it would have examined
    every code. The finish saves the Feistel evaluation of the rest of the
    permutation and the discard of its out-of-range half, and it runs at
    most once, since the pass ends after it. Its screen (_clear_codes)
    splits each code into a low and a high half. The distance to a
    rotation of an accepted code is the sum of the halves' distances, so
    for each high half the codes clear of that rotation are one packed row
    over the low halves, picked by the high halves' distance. That is an
    integer identity, so the screen keeps exactly the codes a chain of
    clear_of calls keeps. With no code accepted every code would be clear,
    so the pass walks on instead.

    Swap phase: if the greedy pass walks the whole permutation without
    reaching max_codes, the family is maximal, so the search walks further
    seeded permutations. An admissible candidate that conflicts with no
    accepted code is added. One that conflicts with exactly one accepted
    code replaces it, unless that code entered by a swap within the last
    _TABU_BATCHES batches. Swaps keep the family's size and walk it across
    maximal families until an addition opens up. This phase keeps
    _BATCH-index batches, since its tabu clock counts batches. Each batch
    screens its admissible candidates once, into one conflict row per
    accepted code over the whole batch, and sums those rows into a count
    per candidate. The candidates are then taken in order. After each
    change only the changed code's row is re-screened, over the rest of
    the batch, and the count there moves by the row's new values minus its
    old ones; an addition first appends an empty row.

    Stops after max_codes acceptances or budget candidates examined over
    both phases, so a family the greedy pass completes never reaches the
    swap phase. Deterministic given all arguments.

    Raises ValueError unless 2 <= n <= 8, d_min >= 1,
    1 <= max_codes <= budget and seed >= 0; its messages call max_codes
    the count, as the CLI and scenario files do. Raises GenerationExhausted
    if the search ends with zero acceptances.
    """
    if not 2 <= n <= _MAX_N:
        raise ValueError(f"n must be in 2..{_MAX_N}, got {n}")
    if d_min < 1:
        raise ValueError("d_min must be >= 1")
    if max_codes < 1:
        raise ValueError("count must be >= 1")
    if budget < max_codes:
        raise ValueError(f"count {max_codes} exceeds the budget of {budget} candidates")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if d_min > _max_self_distance(n):
        # no code is admissible: the walk would examine every candidate the
        # budget allows and accept none
        raise GenerationExhausted(min(budget, 1 << (n * n)))

    # codes of up to 32 bits fit uint32, halving the distance matrices' memory traffic
    dtype = np.uint32 if n * n <= 32 else np.uint64
    tables = _rotation_tables(n).astype(dtype, copy=False)

    def rotations(value: int) -> np.ndarray:
        """The four quarter turns of one code, shape (4,)."""
        out = [np.array([value], dtype=dtype)]
        for _ in range(3):
            out.append(_rotate_packed(out[-1], tables))
        return np.concatenate(out)

    def admissible(values: np.ndarray) -> np.ndarray:
        """Mask of values at least d_min from their own rotations; d(v, r270 v) == d(r90 v, v)."""
        r90 = _rotate_packed(values, tables)
        r180 = _rotate_packed(r90, tables)
        return (np.bitwise_count(values ^ r90) >= d_min) & (np.bitwise_count(values ^ r180) >= d_min)

    def clear_of(values: np.ndarray, rots: np.ndarray) -> np.ndarray:
        """The values, in order, that conflict with none of the four rotations rots of one code."""
        keep = np.bitwise_count(values ^ rots[0]) >= d_min
        for r in rots[1:]:
            keep &= np.bitwise_count(values ^ r) >= d_min
        return values[keep]

    def conflicts(values: np.ndarray, rots: np.ndarray) -> np.ndarray:
        """(codes, len(values)) mask: row i is True where a value conflicts with code i.

        rots holds code i's four quarter turns in column i; each pass runs
        along the contiguous values axis.
        """
        hit = np.bitwise_count(rots[0][:, None] ^ values) < d_min
        for r in rots[1:]:
            hit |= np.bitwise_count(r[:, None] ^ values) < d_min
        return hit

    accepted: list[int] = []
    greedy_rots: list[np.ndarray] = []  # rotations(code) of each accepted code

    def screen(values: np.ndarray) -> np.ndarray:
        """The values, in order, that the greedy pass could still accept."""
        for rots in greedy_rots:
            values = clear_of(values, rots)
        return values[admissible(values)]

    def accept_in_order(values: np.ndarray) -> None:
        """Accept screened values in order, re-screening the rest after each acceptance."""
        while values.size and len(accepted) < max_codes:
            value = int(values[0])
            accepted.append(value)
            greedy_rots.append(rotations(value))
            values = clear_of(values[1:], greedy_rots[-1])

    space = 1 << (n * n)
    examined = 0
    for vals in _candidate_stream(n, seed, batch=_GREEDY_CHUNK):
        vals = vals[: budget - examined].astype(dtype)
        examined += vals.size
        vals = screen(vals)
        if vals.size == 0 and budget >= space and accepted:
            # finish: the walk can no longer be cut, and only codes still
            # clear now can be accepted later, so take those in walk order
            survivors = _clear_codes(n * n, d_min, np.array(greedy_rots, dtype=dtype).reshape(-1))
            survivors = survivors[admissible(survivors)]
            index = _feistel_inverse(survivors.astype(np.uint64), (n * n + 1) // 2, _stream_keys(seed, 0))
            accept_in_order(survivors[np.argsort(index, kind="stable")])
            examined = space
            break
        accept_in_order(vals)
        if len(accepted) == max_codes or examined >= budget:
            break

    # column i: rotations of code i; rows are contiguous, as conflicts() reads them whole
    accepted_rots = np.array(greedy_rots, dtype=dtype).reshape(-1, 4).T.copy()
    count_type = np.min_scalar_type(max_codes)  # no candidate conflicts with more codes than that
    entered = [-_TABU_BATCHES] * len(accepted)  # swap-phase batch at which each code was swapped in
    batch_no = 0
    sweep = 1
    while accepted and len(accepted) < max_codes and examined < budget:
        for vals in _candidate_stream(n, seed, sweep):
            vals = vals[: budget - examined].astype(dtype)
            examined += vals.size
            vals = vals[admissible(vals)]
            hit = conflicts(vals, accepted_rots)
            count = hit.sum(axis=0, dtype=count_type)  # each candidate's conflicts, kept current from pos on

            pos = 0
            while len(accepted) < max_codes:
                tabu = [i for i, b in enumerate(entered) if b > batch_no - _TABU_BATCHES]
                rest = count[pos:]
                ok = (rest == 0) | ((rest == 1) & ~hit[tabu, pos:].any(axis=0))
                hits = np.flatnonzero(ok)
                if hits.size == 0:
                    break
                p = pos + int(hits[0])
                swap = count[p] == 1
                pos = p + 1
                value = int(vals[p])
                if not swap:
                    slot = len(accepted)
                    accepted.append(value)
                    entered.append(-_TABU_BATCHES)
                    accepted_rots = np.column_stack([accepted_rots, rotations(value)])
                    hit = np.vstack([hit, np.zeros((1, vals.size), dtype=bool)])
                else:
                    slot = int(np.argmax(hit[:, p]))
                    if value in accepted_rots[:, slot]:
                        continue  # a rotation of the code it would replace
                    accepted[slot] = value
                    entered[slot] = batch_no
                    accepted_rots[:, slot] = rotations(value)
                # re-screen the rest of the batch against the changed code
                row = conflicts(vals[pos:], accepted_rots[:, slot : slot + 1])[0]
                count[pos:] += row
                count[pos:] -= hit[slot, pos:]
                hit[slot, pos:] = row
            batch_no += 1
            if len(accepted) == max_codes or examined >= budget:
                break
        sweep += 1

    if not accepted:
        raise GenerationExhausted(examined)
    return TagFamily(
        n=n,
        d_min=d_min,
        seed=seed,
        codes=tuple(TagCode.from_int(n, v) for v in accepted),
    )


@dataclass(frozen=True)
class DecodeResult:
    """Best-match decode: observed ~ rotate90^rotation(family.codes[index])."""

    index: int
    rotation: int  # quarter turns, 0..3
    distance: int


def decode_code(observed: TagCode, family: TagFamily) -> Optional[DecodeResult]:
    """Decode an observed grid against a family, correcting bit errors within its radius.

    The radius is the family's correction_budget, the unique-decoding
    radius floor((d_min-1)/2). Returns None when no (code, rotation) lies
    within it.
    """
    if observed.n != family.n:
        raise ValueError(f"size mismatch: observed n={observed.n}, family n={family.n}")
    dists = np.bitwise_count(family._rotation_table ^ np.uint64(observed.to_int()))
    flat = int(np.argmin(dists))
    best = int(dists.reshape(-1)[flat])
    if best > family.correction_budget:
        return None
    return DecodeResult(index=flat // 4, rotation=flat % 4, distance=best)
