"""The cipher under study: a Feistel network whose mixing map is a
bricklayer of S-boxes followed by a rotation.

A parameter set is (n, m, delta, r) with n = delta*m.  A state is a
pair of n-bit words (x1, x2).  The maps, all in postfix order (leftmost
applied first) when composed:

* gamma: brick j (j = 1..delta) is the m-bit slice at bit positions
  [(j-1)*m, j*m); brick 1 sits in the least significant bits.  Each
  brick is pushed through its own S-box table in place.
* S = gamma followed by rotation by r (words.rotate_left).
* sigma: (x1, x2) -> (x2, x1 ^ (x2 S)), the key-free Feistel swap.
* rho(k): the modular translation (x1 + k1, x2 + k2) mod 2**n.
* gost_round(k): (x1, x2) -> (x2, x1 ^ ((x2 + k mod 2**n) S)); equals
  rho((0, k)) then sigma then rho((-k, 0)).
* generalized_round(k, h) = rho(k) then sigma then rho(h), for two
  unrelated key pairs; gost_round and sigma and rho are all instances.

The parameter set r = 11, n = 32, m = 4, delta = 8 is the layout of the
GOST block cipher's round function.  No published S-box tables are
bundled here: shipped fixtures use identity or seeded random tables.

Non-conforming rotations (outside m <= r <= (delta-1)*m) and
non-bijective tables are accepted with flags, not rejected: degenerate
parameter sets are the negative controls for everything downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import words

# The real cipher's parameter frame (not its secret tables).
GOST_PARAMS = (32, 4, 8, 11)


@dataclass(frozen=True)
class CipherSpec:
    """Immutable parameter set: widths, rotation extent, S-box tables.

    sboxes[j] is the table for brick j+1 (brick numbering starts at 1
    in the least significant position); it must have 2**m entries in
    [0, 2**m).  Bijectivity is NOT required here; it is a flag below.
    """

    n: int
    m: int
    delta: int
    r: int
    sboxes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        words.check_width(self.n)
        if self.m < 1 or self.delta < 1:
            raise ValueError("m and delta must be positive")
        if self.n != self.delta * self.m:
            raise ValueError(f"n = {self.n} != delta*m = {self.delta * self.m}")
        if not 0 <= self.r < self.n:
            raise ValueError(f"rotation extent {self.r} out of [0, {self.n})")
        if len(self.sboxes) != self.delta:
            raise ValueError(f"need {self.delta} S-box tables, got {len(self.sboxes)}")
        size = 1 << self.m
        for j, table in enumerate(self.sboxes):
            if len(table) != size:
                raise ValueError(f"table {j}: {len(table)} entries, need {size}")
            for v in table:
                if not 0 <= v < size:
                    raise ValueError(f"table {j}: entry {v} out of range")

    @property
    def degree(self) -> int:
        """Number of states = 2**(2n)."""
        return 1 << (2 * self.n)

    @property
    def conforming(self) -> bool:
        return self.m <= self.r <= (self.delta - 1) * self.m

    @property
    def bijective(self) -> bool:
        size = 1 << self.m
        return all(sorted(t) == list(range(size)) for t in self.sboxes)

    @property
    def theorem_scope(self) -> bool:
        """Where the full result chain (scan and eliminations) applies."""
        return (self.conforming and self.bijective and self.delta >= 4
                and self.m >= 2)

    @property
    def gost_parameters(self) -> bool:
        return (self.n, self.m, self.delta, self.r) == GOST_PARAMS

    @property
    def notes(self) -> tuple[str, ...]:
        """Why a flag above is off, and whether the frame is GOST's."""
        notes = []
        if not self.conforming:
            notes.append(f"rotation extent {self.r} outside conforming "
                         f"range [{self.m}, {(self.delta - 1) * self.m}]")
        if not self.bijective:
            notes.append("at least one S-box table is not a permutation")
        if self.delta < 4:
            notes.append("delta < 4: outside the certified parameter scope")
        if self.m < 2:
            notes.append("m < 2: outside the certified parameter scope")
        if self.gost_parameters:
            notes.append("parameter frame matches the real GOST round "
                         "(n=32, m=4, delta=8, r=11)")
        return tuple(notes)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "delta": self.delta,
            "r": self.r,
            "sboxes": [list(t) for t in self.sboxes],
        }

    def digest(self) -> str:
        """sha256 of the canonical serialized form; report header id."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _parse_entry(j: int, v) -> int:
    # tables may mix decimal ints and hex strings like "0x1f"; a JSON
    # boolean is not a number here, though Python counts it as an int
    if type(v) is int:
        return v
    if isinstance(v, str):
        try:
            return int(v, 0)
        except ValueError:
            pass
    raise ValueError(f"table {j}: entry {v!r} is not a number")


def spec_from_dict(data: dict) -> CipherSpec:
    """The four fields must be JSON integers and each table a JSON list:
    a float, string or boolean would otherwise load as some other spec
    under the same digest."""
    try:
        fields = [data[key] for key in ("n", "m", "delta", "r")]
        if any(type(v) is not int for v in fields) or \
                not isinstance(data["sboxes"], list) or \
                any(not isinstance(t, list) for t in data["sboxes"]):
            raise TypeError
        tables = tuple(tuple(_parse_entry(j, v) for v in table)
                       for j, table in enumerate(data["sboxes"]))
    except KeyError as e:
        raise ValueError(f"spec file missing field {e.args[0]!r}") from None
    except TypeError:
        raise ValueError("spec fields n, m, delta and r must be integers "
                         "and sboxes a list of tables") from None
    return CipherSpec(*fields, tables)


def load_spec(path) -> CipherSpec:
    """Read a spec file; it is JSON, hence UTF-8 (RFC 8259)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}: line {line}: byte 0x{raw[e.start]:02x} "
                         "is not UTF-8") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno}: {e.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: spec file must contain one object")
    return spec_from_dict(data)


def save_spec(spec: CipherSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh, indent=1)
        fh.write("\n")


def identity_sboxes(delta: int, m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(1 << m)) for _ in range(delta))


def random_sboxes(delta: int, m: int, rng: np.random.Generator,
                  bijective: bool = True) -> tuple[tuple[int, ...], ...]:
    size = 1 << m
    out = []
    for _ in range(delta):
        if bijective:
            out.append(tuple(int(v) for v in rng.permutation(size)))
        else:
            out.append(tuple(int(v) for v in rng.integers(0, size, size)))
    return tuple(out)


def random_spec(m: int, delta: int, r: int, rng: np.random.Generator,
                bijective: bool = True) -> CipherSpec:
    return CipherSpec(delta * m, m, delta, r,
                      random_sboxes(delta, m, rng, bijective))


# ---------------------------------------------------------------------------
# the maps, one word / one state at a time


def apply_gamma(spec: CipherSpec, x: int) -> int:
    out = 0
    brick = (1 << spec.m) - 1
    for j in range(spec.delta):
        shift = j * spec.m
        out |= spec.sboxes[j][(x >> shift) & brick] << shift
    return out


def apply_s(spec: CipherSpec, x: int) -> int:
    return words.rotate_left(apply_gamma(spec, x), spec.r, spec.n)


State = tuple[int, int]


def sigma_apply(spec: CipherSpec, st: State) -> State:
    x1, x2 = st
    return (x2, x1 ^ apply_s(spec, x2))


def sigma_inverse_apply(spec: CipherSpec, st: State) -> State:
    y1, y2 = st
    return (y2 ^ apply_s(spec, y1), y1)


def rho_apply(k: State, st: State, n: int) -> State:
    return (words.add_mod(st[0], k[0], n), words.add_mod(st[1], k[1], n))


def gost_round(spec: CipherSpec, k: int, st: State) -> State:
    x1, x2 = st
    return (x2, x1 ^ apply_s(spec, words.add_mod(x2, k, spec.n)))


def generalized_round(spec: CipherSpec, k: State, h: State, st: State) -> State:
    st = rho_apply(k, st, spec.n)
    st = sigma_apply(spec, st)
    return rho_apply(h, st, spec.n)


# ---------------------------------------------------------------------------
# vectorized table forms, for the dense-permutation machinery


def s_table(spec: CipherSpec) -> np.ndarray:
    """x -> S(x) as an int64 array over all 2**n words.  Rotation is a
    bit permutation, so it distributes over the OR of the shifted
    S-box tables: S is their outer OR after rotating each 2**m-entry
    table, highest brick first (brick 1 last)."""
    words.check_cap("table", 1 << spec.n)
    out = np.zeros(1, dtype=np.int64)
    for j in reversed(range(spec.delta)):
        table = np.asarray(spec.sboxes[j], dtype=np.int64) << (j * spec.m)
        out = (out[:, None]
               | words.rotate_left(table, spec.r, spec.n)).ravel()
    return out


def swap(table: np.ndarray, left, right):
    """sigma(left, right) = (right, left ^ S(right)) as halves, for the
    S table `table`, elementwise over arrays: the one vectorized swap
    map.  The gather is fresh, so the xor runs in place."""
    mixed = table[right]
    mixed ^= left
    return right, mixed
