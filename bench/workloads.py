"""Seeded job generators for the three benchmark workloads.

A job is a CLI argument list plus the JSON input files it names and the
facts the output checks need.  Each job is drawn from a random.Random
seeded by (workload, seed, stream, index), so the same seed writes
byte-identical files.  Within a run no job's inputs repeat (warm-up jobs
included), so the value-keyed caches in homkit see only the hits a single job makes itself.

Generation imports homkit (randgen builds the complexes and chain maps,
and phantom maps are combinations of `phantom_subgroup` generators), so it
runs in its own process: the caches it fills must not reach the timed jobs.

Usage: python3 bench/workloads.py WORKLOAD SEED STREAM START COUNT RUNDIR
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import oracle

WHY = {
    "uct-ladder": "uct, hoclasses and kappa on sums of 2-3 random complexes: Smith-form "
                  "time dominates and most SNF calls refactor a matrix already factored "
                  "in the same job",
    "ring-modules": "Ext/Tor over Z[t]/(t^n-1) by greedy resolutions plus Laurent, HH and "
                    "PV jobs: SNF on growing spans, coefficient growth sets the tail",
    "small-jobs": "every CLI command except selftest on tiny inputs: argparse, parsing "
                  "and emit dominate, so CLI overhead and per-call linear-algebra cost show",
}
WORKLOADS = tuple(WHY)


def _mat(rows: list[list[int]], ncols: int) -> dict:
    return {"rows": len(rows), "cols": ncols, "data": [[str(x) for x in r] for r in rows]}


def _imat(m) -> dict:
    return _mat([list(r) for r in m.data], m.cols)


def _complex(x) -> dict:
    return {"even_rank": x.even_rank, "odd_rank": x.odd_rank, "d": _imat(x.d), "e": _imat(x.e)}


def _map_doc(f) -> dict:
    return {"f_even": _imat(f.f0), "f_odd": _imat(f.f1)}


def _group(g) -> dict:
    rank, torsion = g.canonical
    return {"rank": rank, "torsion": [str(d) for d in torsion]}


def _rows(m) -> list[list[int]]:
    return [list(r) for r in m.data]


class Generator:
    """Draws the jobs of one workload stream.

    Job `index` depends only on (workload, seed, stream, index) and on the
    jobs already written to the same run directory, whose keys are kept in
    its `keys` file: a draw that repeats an earlier job is redrawn.
    """

    def __init__(self, workload: str, seed: int, stream: str, rundir: str):
        self.workload, self.seed, self.stream = workload, seed, stream
        self.kinds = KINDS[workload]
        self.keys_path = os.path.join(rundir, "keys")
        self.seen: set[str] = set()
        self.new_keys: list[str] = []
        if os.path.exists(self.keys_path):
            with open(self.keys_path, encoding="utf-8") as fh:
                self.seen = set(fh.read().split())

    def job(self, index: int) -> dict:
        cycle, pos = divmod(index, len(self.kinds))
        kind = self.kinds[pos]
        # How many earlier jobs of this stream share the kind: makers that
        # stratify deal their strata by it.
        slot = cycle * self.kinds.count(kind) + self.kinds[:pos].count(kind)
        attempt = 0
        while True:
            tag = f"{self.workload}/{self.seed}/{self.stream}/{index}/{attempt}"
            rng = random.Random(int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big"))
            job = MAKERS[kind](rng, slot)
            key = hashlib.sha256(json.dumps([job["argv"], job["files"]], sort_keys=True)
                                 .encode()).hexdigest()
            if key not in self.seen:
                self.seen.add(key)
                self.new_keys.append(key)
                return job
            attempt += 1

    def save(self) -> None:
        with open(self.keys_path, "a", encoding="utf-8") as fh:
            fh.write("".join(k + "\n" for k in self.new_keys))
        self.new_keys.clear()


def _spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order (skipping values >= n when n is not a
    power of two), so that every stretch of a cycle samples the strata
    evenly."""
    bits = max(1, (n - 1).bit_length())
    order = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [i for i in order if i < n]


# --- complexes ---------------------------------------------------------------

def _summands(rng, parts: int) -> list:
    from homkit.randgen import random_complex

    return [random_complex(rng, max_rank=3, bound=3) for _ in range(parts)]


def _summed_complex(summands):
    """Direct sum of criterion-1 complexes, with its oracle homology."""
    from homkit.percomplex import direct_sum

    total, h0, h1 = None, [], []
    for x in summands:
        e0, e1 = oracle.complex_homology(x.even_rank, x.odd_rank, _rows(x.d), _rows(x.e))
        h0.append(e0)
        h1.append(e1)
        total = x if total is None else direct_sum(total, x)
    return total, [oracle.direct_sum(*h0), oracle.direct_sum(*h1)]


def kron_cells(a0: int, a1: int, b0: int, b1: int) -> int:
    """Entries of the constraint matrix HomotopyClasses builds for [A, B]."""
    return (a0 * b1 + a1 * b0) * (a0 * b0 + a1 * b1)


# Thirty-two equally likely strata of kron_cells for pairs of sums of 2-3
# criterion-1 complexes, cut at the quantiles of 40,000 draws.  uct-ladder
# deals them in _spread_order, so every run has the same size mix and the
# run-to-run spread comes only from variation inside a stratum.
LADDER_STRATA = (0, 25, 60, 96, 128, 144, 195, 225, 256, 306, 324, 399, 437, 483, 560, 576, 624,
                 729, 780, 884, 972, 1020, 1089, 1271, 1296, 1521, 1640, 1936, 2070, 2496, 3025,
                 3969, 1 << 62)
_LADDER_ORDER = _spread_order(len(LADDER_STRATA) - 1)


_MEMO: dict = {}


def _memo(fn, *args):
    """fn(*args), remembered for this generator process: small summands
    recur often, and these are the costly steps of generation."""
    key = (fn, *args)
    if key not in _MEMO:
        _MEMO[key] = fn(*args)
    return _MEMO[key]


def _phantom_generators(x, y):
    from homkit.relhom import phantom_subgroup

    return phantom_subgroup(x, y).generator_maps()


def _chain_map_lattice(a, b):
    from homkit.percomplex import homotopy_classes

    return homotopy_classes(a, b).chain_map_lattice()


def _phantom_map(rng, sa, sb, a, b):
    """A random phantom map between the direct sums a of sa and b of sb.

    [A, B] and its phantom subgroup split over pairs of summands, so each
    block is a random combination of the phantom-subgroup generators of one
    pair of summands; a random null-homotopic map E_B h + k D_A,
    D_B k + h E_A is added on top.
    """
    from homkit.intlinalg import IntMatrix
    from homkit.percomplex import ChainMap
    from homkit.randgen import random_matrix

    f0 = [[0] * a.even_rank for _ in range(b.even_rank)]
    f1 = [[0] * a.odd_rank for _ in range(b.odd_rank)]
    col0 = col1 = 0
    for x in sa:
        row0 = row1 = 0
        for y in sb:
            for g in _memo(_phantom_generators, x, y):
                c = rng.randint(-2, 2)
                for block, out, r0, c0 in ((g.f0, f0, row0, col0), (g.f1, f1, row1, col1)):
                    for i, row in enumerate(block.data):
                        for j, v in enumerate(row):
                            out[r0 + i][c0 + j] += c * v
            row0, row1 = row0 + y.even_rank, row1 + y.odd_rank
        col0, col1 = col0 + x.even_rank, col1 + x.odd_rank
    h = random_matrix(rng, b.odd_rank, a.even_rank, 1)
    k = random_matrix(rng, b.even_rank, a.odd_rank, 1)
    return ChainMap(a, b, IntMatrix.from_rows(f0, cols=a.even_rank) + b.e @ h + k @ a.d,
                    IntMatrix.from_rows(f1, cols=a.odd_rank) + b.d @ k + h @ a.e)


def _chain_map(rng, a, b):
    """Random integer combination of a basis of all chain maps a -> b, as in
    randgen.random_chain_map."""
    from homkit.intlinalg import unvec
    from homkit.percomplex import ChainMap

    basis = _memo(_chain_map_lattice, a, b)
    combo = basis.apply([rng.randint(-2, 2) for _ in range(basis.cols)])
    split = b.even_rank * a.even_rank
    return ChainMap(a, b, unvec(combo[:split], b.even_rank, a.even_rank),
                    unvec(combo[split:], b.odd_rank, a.odd_rank))


def _pair_job(command: str, rng, sides, extra=()) -> dict:
    sa, sb = sides
    (a, ha), (b, hb) = _summed_complex(sa), _summed_complex(sb)
    files = {"a": _complex(a), "b": _complex(b)}
    argv = [command, "@a", "@b", *extra]
    if command in ("kappa", "cone", "classify"):
        f = _phantom_map(rng, sa, sb, a, b) if command == "kappa" else _chain_map(rng, a, b)
        files["map"] = _map_doc(f)
        argv.insert(3, "@map")
    return {"argv": argv, "files": files, "facts": {"ha": ha, "hb": hb}}


def _ladder(command):
    def make(rng, slot: int) -> dict:
        """A pair from the stratum dealt to this slot: draw a pool of sides
        (sums of 2-3 complexes) and take a random ordered pair of distinct
        sides whose kron_cells fall in the stratum, growing the pool until
        one does.  Pairing within a pool saves most of the rejected draws."""
        stratum = _LADDER_ORDER[slot % len(_LADDER_ORDER)]
        lo, hi = LADDER_STRATA[stratum], LADDER_STRATA[stratum + 1]
        pool: list = []
        while True:
            for _ in range(4):
                side = _summands(rng, rng.randint(2, 3))
                pool.append((side, sum(x.even_rank for x in side), sum(x.odd_rank for x in side)))
            fits = [(sa, sb) for i, (sa, a0, a1) in enumerate(pool)
                    for j, (sb, b0, b1) in enumerate(pool)
                    if i != j and lo <= kron_cells(a0, a1, b0, b1) < hi]
            if fits:
                return _pair_job(command, rng, rng.choice(fits))
    return make


def _small_pair(command, extra=lambda rng: ()):
    return lambda rng, slot: _pair_job(command, rng, (_summands(rng, 1), _summands(rng, 1)),
                                       extra(rng))


def _small_homology(rng, slot) -> dict:
    x, h = _summed_complex(_summands(rng, 1))
    return {"argv": ["homology", "@complex"], "files": {"complex": _complex(x)},
            "facts": {"ha": h}}


def _small_resolve(rng, slot) -> dict:
    x, h = _summed_complex(_summands(rng, 1))
    return {"argv": ["resolve", "@a"], "files": {"a": _complex(x)}, "facts": {"ha": h}}


def _small_snf(rng, slot) -> dict:
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    return {"argv": ["snf", "@matrix"], "files": {"matrix": _mat(data, cols)},
            "facts": {"diagonal": oracle.smith_diagonal(data)}}


def _small_group_op(rng, slot) -> dict:
    from homkit.randgen import random_group

    a, b = random_group(rng), random_group(rng)
    op = rng.choice(["hom", "ext1", "tensor", "tor1", "is-isomorphic"])
    return {"argv": ["group-op", "--op", op, "@a", "@b"],
            "files": {"a": _group(a), "b": _group(b)},
            "facts": {"a": list(a.canonical), "b": list(b.canonical)}}


# --- ring modules ------------------------------------------------------------

def _cyclic_poly(n: int) -> list[str]:
    return ["-1"] + ["0"] * (n - 1) + ["1"]


def _compositions(parts) -> list[tuple[int, int, int]]:
    """(trivial Z, trivial Z/k, free) summand counts of every module with
    parts[0]..parts[1] summands."""
    return [(z, t, total - z - t) for total in range(parts[0], parts[1] + 1)
            for z in range(total + 1) for t in range(total + 1 - z)]


def _module(n: int, summands) -> dict:
    gens = sum(1 if s[0] == "trivial" else s[1] for s in summands)
    rel_cols: list[list[int]] = []
    t = [[0] * gens for _ in range(gens)]
    off = 0
    for kind, size in summands:
        if kind == "trivial":
            col = [0] * gens
            col[off] = size
            rel_cols.append(col)
            t[off][off] = 1
            off += 1
        else:
            for i in range(size):
                t[off + (i + 1) % size][off + i] = 1
            off += size
    relations = [[c[i] for c in rel_cols] for i in range(gens)]
    return {"ring": {"kind": "quotient", "poly": _cyclic_poly(n)}, "generators": gens,
            "relations": _mat(relations, len(rel_cols)), "t_action": _mat(t, gens)}


def _ring_job(command: str, rng, slot: int, pairs, parts) -> dict:
    """Ext/Tor over Z[t]/(t^n - 1).

    The (n, degree) pair and the make-up of M set the size of the
    resolution, so every combination of a pair with the summand counts of M
    (trivial Z, trivial Z/k, and the cyclic permutation module
    Z[t]/(t^n - 1) itself) is dealt in turn, in _spread_order, by slot.
    The pair takes the high digits of the combination's index, which the
    bit-reversed order varies fastest, so every stretch of slots as long as
    the list of pairs deals each pair about once.
    The k, the summand order and N are random; N has trivial Z and Z/k
    summands only, since a permutation summand in N would multiply every
    cochain matrix by n.
    """
    comps = _compositions(parts)
    order = _spread_order(len(pairs) * len(comps))
    cell = order[slot % len(order)]
    (n, degree), (z, t, r) = pairs[cell // len(comps)], comps[cell % len(comps)]
    m = [("perm", 1)] * z + [("trivial", rng.randint(2, 6)) for _ in range(t)] + [("perm", n)] * r
    rng.shuffle(m)
    nn = [("perm", 1) if rng.randrange(2) else ("trivial", rng.randint(2, 6))
          for _ in range(rng.randint(*parts))]
    return {"argv": [command, "@m", "@n", "--n", str(degree)],
            "files": {"m": _module(n, m), "n": _module(n, nn)},
            "facts": {"ring_n": n, "m": [list(s) for s in m], "n": [list(s) for s in nn],
                      "degree": degree}}


# (n, degree) for Z[t]/(t^n - 1).  Degree d resolves to length d + 1; over
# t^8 - 1 length 7 is already in the run-away regime (jobs beyond the
# per-job limit), so n = 8 stops at degree 5.
RING_PAIRS = [(4, 4), (4, 5), (4, 6), (6, 4), (6, 5), (6, 6), (8, 4), (8, 5)]
SMALL_RING_PAIRS = [(n, d) for n in (2, 3) for d in range(5)]


def _laurent_module(rng) -> tuple[dict, tuple]:
    from homkit.randgen import random_automorphism, random_group

    g = random_group(rng)
    t = random_automorphism(rng, g)
    doc = {"ring": {"kind": "laurent"}, "generators": g.ngens,
           "relations": _imat(g.presentation), "t_action": _imat(t)}
    return doc, g.canonical


def _laurent_job(command: str):
    def make(rng, slot) -> dict:
        m, _ = _laurent_module(rng)
        n, _ = _laurent_module(rng)
        degree = rng.randint(0, 2)
        return {"argv": [command, "@m", "@n", "--n", str(degree)],
                "files": {"m": m, "n": n}, "facts": {"degree": degree}}
    return make


def _hh(rng, slot) -> dict:
    from homkit.intlinalg import IntMatrix
    from homkit.randgen import random_automorphism, random_group

    g = random_group(rng)
    lam = random_automorphism(rng, g)
    which = rng.randrange(4)
    rho = [IntMatrix.identity(g.ngens), lam, lam @ lam,
           IntMatrix.identity(g.ngens).scale(-1)][which]
    degree = rng.randint(0, 3)
    variant = rng.choice(["homology", "cohomology"])
    doc = {"group": _group(g), "lambda": _imat(lam), "rho": _imat(rho)}
    return {"argv": ["hh", "@input", "--n", str(degree), "--variant", variant],
            "files": {"input": doc},
            "facts": {"group": list(g.canonical), "rho_is_lambda": which == 1,
                      "degree": degree}}


def _pv(rng, slot) -> dict:
    from homkit.randgen import random_graded_automorphism, random_graded_group

    k = random_graded_group(rng)
    ae, ao = random_graded_automorphism(rng, k)
    doc = {"even": _group(k.even), "odd": _group(k.odd),
           "alpha_even": _imat(ae), "alpha_odd": _imat(ao)}
    return {"argv": ["pv", "@input"], "files": {"input": doc}, "facts": {}}


MAKERS = {
    "ladder-uct": _ladder("uct"),
    "ladder-hoclasses": _ladder("hoclasses"),
    "ladder-kappa": _ladder("kappa"),
    "ring-ext": lambda rng, slot: _ring_job("ring-ext", rng, slot, RING_PAIRS, (2, 3)),
    "ring-tor": lambda rng, slot: _ring_job("ring-tor", rng, slot, RING_PAIRS, (2, 3)),
    "laurent-ext": _laurent_job("ring-ext"),
    "laurent-tor": _laurent_job("ring-tor"),
    "hh": _hh,
    "pv": _pv,
    "snf": _small_snf,
    "group-op": _small_group_op,
    "homology": _small_homology,
    "hoclasses": _small_pair("hoclasses"),
    "cone": _small_pair("cone"),
    "uct": _small_pair("uct"),
    "ext": _small_pair("ext", lambda rng: ("--n", str(rng.randint(0, 2)))),
    "resolve": _small_resolve,
    "classify": _small_pair("classify"),
    "kappa": _small_pair("kappa"),
    "small-ring-ext": lambda rng, slot: _ring_job("ring-ext", rng, slot, SMALL_RING_PAIRS, (1, 2)),
    "small-ring-tor": lambda rng, slot: _ring_job("ring-tor", rng, slot, SMALL_RING_PAIRS, (1, 2)),
    "kunneth-check": _small_pair("kunneth-check"),
}

# Kinds are dealt round-robin so every stretch of a run has the same mix.
KINDS = {
    "uct-ladder": ("ladder-uct", "ladder-hoclasses", "ladder-kappa"),
    "ring-modules": ("ring-ext", "ring-tor", "ring-ext", "ring-tor", "ring-ext", "ring-tor",
                     "laurent-ext", "laurent-tor", "hh", "pv"),
    "small-jobs": ("snf", "group-op", "homology", "hoclasses", "cone", "uct", "ext",
                   "resolve", "classify", "kappa", "small-ring-ext", "small-ring-tor",
                   "hh", "pv", "kunneth-check"),
}
# A run ends on a multiple of its workload's block, so that every run has
# the same make-up: one round of the kinds, and for uct-ladder eight slots
# of each kind, which the bit-reversed order spreads over every fourth
# stratum.
BLOCK = {"uct-ladder": 3 * 8, "ring-modules": len(KINDS["ring-modules"]),
         "small-jobs": len(KINDS["small-jobs"])}


def write_jobs(workload: str, seed: int, stream: str, start: int, count: int,
               rundir: str) -> None:
    """Write jobs start..start+count-1 of a stream into rundir/stream/.

    Job i's input files are <i>-<name>.json.  The chunk's manifest
    <start>.jsonl holds one line per job: the argv, with @name placeholders
    for the files, and the facts the checks need.  Files are flat because
    on some filesystems each directory and file costs most of a millisecond.
    """
    gen = Generator(workload, seed, stream, rundir)
    outdir = os.path.join(rundir, stream)
    os.makedirs(outdir, exist_ok=True)
    lines = []
    for index in range(start, start + count):
        job = gen.job(index)
        for name, doc in job["files"].items():
            with open(os.path.join(outdir, f"{index}-{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
        lines.append(json.dumps({"argv": job["argv"], "facts": job["facts"]}, sort_keys=True))
    with open(os.path.join(outdir, f"{start}.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    gen.save()


def main(argv: list[str]) -> int:
    workload, seed, stream, start, count, rundir = argv
    write_jobs(workload, int(seed), stream, int(start), int(count), rundir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
