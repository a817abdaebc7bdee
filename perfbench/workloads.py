"""Workloads of the ghznl benchmark: their inputs, why each was chosen, and
how the output of every certification is checked.

The seeded generator for `random-sets` uses only the standard library and
emits plain state-set documents, so the program under test receives nothing
but the generated inputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Construction:
    """A published set, built by `ghznl.constructions.build`."""

    id: str
    name: str
    d: Optional[int]
    reason: str


@dataclass(frozen=True)
class Shape:
    """A random partition of the d1 x d2 x d3 product basis into tuples."""

    id: str
    dims: tuple[int, int, int]
    weights: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    inputs: tuple
    largest: str
    smallest: str
    via_cli: bool = False


PAPER_FAMILIES = Workload(
    name="paper-families",
    why="the paper's published sets, all on the exact oracle path with "
    "positive verdicts; constraint build and elimination dominate",
    method="both",
    inputs=(
        Construction("c333", "c333", None,
                     "smallest published set: 650 rows per cut; the "
                     "fixed-overhead canary for smallest_s"),
        Construction("c345", "c345", None,
                     "unequal local dimensions, so the three cuts differ"),
        Construction("even4", "even", 4,
                     "the even d=4 anomaly: colliding kets violate the "
                     "hypotheses and 16 non-orthogonal pairs per cut are "
                     "skipped"),
        Construction("c444w4", "c444w4", None,
                     "the only weight-4 family: Theorem 2 and i-valued "
                     "exact coefficients"),
        Construction("odd5", "odd", 5,
                     "mid-size odd family: 9,506 rows per cut"),
        Construction("odd7", "odd", 7,
                     "largest input: 47,306 rows per cut, more than half "
                     "of the pass; odd d=9 (~11 s) is left out to keep "
                     "runs short"),
    ),
    largest="odd7",
    smallest="c333",
)

GRAPH_ROUTE = Workload(
    name="graph-route",
    why="large weight-2 families decided by Theorem 1 alone: the O(n^2) "
    "hypothesis checks dominate and the oracle never runs",
    method="graph",
    inputs=(
        Construction("odd11", "odd", 11,
                     "602 states: 181k orthogonality pairs"),
        Construction("odd13", "odd", 13,
                     "largest input: 866 states, 375k orthogonality pairs"),
        Construction("even8", "even", 8,
                     "smallest input: even family without the d=4 "
                     "collision, so Theorem 1 applies"),
        Construction("even10", "even", 10,
                     "490 states: a second even size"),
    ),
    largest="odd13",
    smallest="even8",
)

RANDOM_SETS = Workload(
    name="random-sets",
    why="seeded random product-basis partitions through the CLI: float "
    "and exact elimination, mixed verdicts, document parse and report",
    method="both",
    inputs=(
        Shape("3x3x12-w3", (3, 3, 12), (3,),
              "weight 3 only: the float eliminator on 108 states and "
              "11,556 rows per cut"),
        Shape("3x4x9-w23", (3, 4, 9), (2, 3),
              "weights 2 and 3 mixed: float path with tuples of "
              "different sizes"),
        Shape("4x4x6-w234", (4, 4, 6), (2, 3, 4),
              "weights 2, 3 and 4 mixed: float path, Theorem 2 with "
              "the most varied tuple sizes"),
        Shape("2x3x20-w2", (2, 3, 20), (2,),
              "largest input: exact path, 120 states, 3,600 unknowns "
              "on cut A and 14,280 rows per cut"),
        Shape("2x2x20-w2", (2, 2, 20), (2,),
              "many states, tiny dims: 16 unknowns but 6,320 rows on "
              "cut C, a row-heavy system with few unknowns"),
        Shape("2x2x4-w2", (2, 2, 4), (2,),
              "smallest input: CLI parse, report and fixed overhead "
              "dominate; the canary for smallest_s"),
    ),
    largest="2x3x20-w2",
    smallest="2x2x4-w2",
    via_cli=True,
)

WORKLOADS = {w.name: w for w in (PAPER_FAMILIES, GRAPH_ROUTE, RANDOM_SETS)}


# --- seeded generator for random-sets ------------------------------------

MIX_STEPS_PER_TUPLE = 20


def _compositions(n: int, parts: list[int]) -> list[tuple[int, ...]]:
    """Every ordered way of writing n as a sum of the given part sizes."""
    if n == 0:
        return [()]
    return [
        (p,) + rest
        for p in parts
        if p <= n
        for rest in _compositions(n - p, parts)
    ]


def _latin_rows(d: int, w: int, rng: random.Random) -> list[list[int]]:
    """w permutations of range(d) that differ at every position."""
    sigma = rng.sample(range(d), d)
    tau = rng.sample(range(d), d)
    shifts = rng.sample(range(d), w)
    return [[sigma[(tau[x] + c) % d] for x in range(d)] for c in shifts]


def _coordinately_different(kets: list[tuple[int, int, int]]) -> bool:
    return all(len({k[a] for k in kets}) == len(kets) for a in range(3))


def random_partition(
    dims: tuple[int, int, int], weights: tuple[int, ...], rng: random.Random
) -> list[list[tuple[int, int, int]]]:
    """A random partition of the product basis into coordinately different
    tuples whose weights lie in `weights`.

    A layered partition always exists: split one axis into groups of w
    layers and join the layers of a group through w permutations of each
    other axis that differ at every position.  Random swaps and moves of
    kets between tuples, kept only when both tuples stay coordinately
    different and of an allowed weight, then mix it.  A shape with weight 3
    keeps at least one weight-3 tuple, so it stays on the float path.
    """
    need3 = 3 in weights
    layouts = []
    for axis in range(3):
        others = [dims[a] for a in range(3) if a != axis]
        parts = [w for w in weights if w <= min(others)]
        layouts += [
            (axis, c) for c in _compositions(dims[axis], parts)
            if not need3 or 3 in c
        ]
    axis, comp = rng.choice(layouts)
    oa, ob = [a for a in range(3) if a != axis]
    layers = rng.sample(range(dims[axis]), dims[axis])
    tuples: list[list[tuple[int, int, int]]] = []
    pos = 0
    for w in comp:
        group, pos = layers[pos:pos + w], pos + w
        ra, rb = _latin_rows(dims[oa], w, rng), _latin_rows(dims[ob], w, rng)
        for x in range(dims[oa]):
            for y in range(dims[ob]):
                kets = []
                for m in range(w):
                    c = [0, 0, 0]
                    c[axis], c[oa], c[ob] = group[m], ra[m][x], rb[m][y]
                    kets.append(tuple(c))
                tuples.append(kets)
    allowed = set(weights)
    n3 = sum(len(t) == 3 for t in tuples)
    for _ in range(MIX_STEPS_PER_TUPLE * len(tuples)):
        t1, t2 = rng.randrange(len(tuples)), rng.randrange(len(tuples))
        if t1 == t2:
            continue
        a, b = list(tuples[t1]), list(tuples[t2])
        i = rng.randrange(len(a))
        if rng.random() < 0.5:
            j = rng.randrange(len(b))
            a[i], b[j] = b[j], a[i]
        else:
            b.append(a.pop(i))
        if len(a) not in allowed or len(b) not in allowed:
            continue
        new3 = n3 - (len(tuples[t1]) == 3) - (len(tuples[t2]) == 3) \
            + (len(a) == 3) + (len(b) == 3)
        if need3 and new3 == 0:
            continue
        if _coordinately_different(a) and _coordinately_different(b):
            tuples[t1], tuples[t2], n3 = a, b, new3
    rng.shuffle(tuples)
    return tuples


def random_documents(seed: int) -> dict[str, str]:
    """Input id -> state-set document text; the same seed gives the same
    documents."""
    rng = random.Random(seed)
    docs = {}
    for shape in RANDOM_SETS.inputs:
        tuples = random_partition(shape.dims, shape.weights, rng)
        doc = {
            "dims": list(shape.dims),
            "tuples": [
                {"weight": len(t), "kets": [list(k) for k in t]} for t in tuples
            ],
        }
        docs[shape.id] = json.dumps(doc, indent=2) + "\n"
    return docs


# --- items: one certification each ---------------------------------------


@dataclass
class Item:
    """One input: `call` is the timed certification, `record` turns its
    result into the checked record (untimed)."""

    id: str
    call: Callable[[], object]
    record: Callable[[object], dict]


def build_items(wl: Workload, seed: int, mods, workdir: Path) -> list[Item]:
    """Generate the workload's inputs and wrap each in an Item.

    Every call looks its functions up through the module at call time, so
    the traced run's wrappers are seen.  The seed orders the fixed sets and
    generates the random ones.
    """
    rng = random.Random(seed)
    items = []
    if wl.via_cli:
        workdir.mkdir(parents=True, exist_ok=True)
        docs = random_documents(seed)
        for shape in wl.inputs:
            doc = workdir / f"{shape.id}.json"
            doc.write_text(docs[shape.id], encoding="utf-8")
            report = workdir / f"{shape.id}.report.json"
            items.append(_cli_item(shape.id, mods, doc, report, wl.method))
    else:
        for c in wl.inputs:
            S = mods.constructions.build(c.name, c.d)
            items.append(_direct_item(c.id, mods, S, wl.method))
    rng.shuffle(items)
    return items


def _direct_item(iid: str, mods, S, method: str) -> Item:
    def call():
        report = mods.certifier.certify(S, method=method)
        return report, mods.certifier.report_to_dict(report)

    def record(result):
        report, doc = result
        skipped = sum(r.skipped_pairs for r in (report.oracle or {}).values())
        return record_of(doc, skipped, None)

    return Item(iid, call, record)


_SKIPPED_NOTE = re.compile(r"oracle skipped (\d+) non-orthogonal")


def _cli_item(iid: str, mods, doc: Path, report: Path, method: str) -> Item:
    argv = ["certify", "--input", str(doc), "--method", method,
            "--report", str(report)]

    def call():
        return mods.cli.main(argv)

    def record(code):
        out = json.loads(report.read_text(encoding="utf-8"))
        skipped = sum(
            int(m.group(1)) for n in out["notes"] for m in [_SKIPPED_NOTE.search(n)] if m
        )
        return record_of(out, skipped, code)

    return Item(iid, call, record)


# --- records and checks ---------------------------------------------------


def record_of(doc: dict, skipped: int, exit_code: Optional[int]) -> dict:
    """The checked facts of one certification, from its JSON report."""
    oracle = doc.get("oracle") or {}
    cuts = {}
    for cut, part in doc["partitions"].items():
        c = {
            "full_components": part["full_components"],
            "path_components": part["path_components"],
        }
        if cut in oracle:
            o = oracle[cut]
            c.update(
                dimension=o["dimension"],
                contains_identity=o["contains_identity"],
                trivial_only=o["trivial_only"],
                rows=o["rows"],
            )
        cuts[cut] = c
    return {
        "verdict": doc["verdict"],
        "graph_verdict": doc["graph_verdict"],
        "applied_theorem": doc["applied_theorem"],
        "agreement": doc.get("agreement"),
        "oracle_ran": bool(oracle),
        "skipped_pairs": skipped,
        "exit_code": exit_code,
        "cuts": cuts,
    }


# Row counts are recorded but not compared: an oracle that emits fewer,
# equivalent rows is still correct.
COMPARED = ("verdict", "graph_verdict", "skipped_pairs", "exit_code")
COMPARED_PER_CUT = (
    "dimension", "contains_identity", "full_components", "path_components",
)

_EXIT_CODES = {
    "StrongestNonlocal": 0,
    "NotStrongestNonlocal": 1,
    "Inconclusive": 2,
    "HypothesesViolated": 2,
}


def check(rec: dict, expected: Optional[dict]) -> list[str]:
    """Problems with one record: invariants always, and differences from
    the expected record when there is one."""
    problems = []
    cuts = rec["cuts"]
    if rec["oracle_ran"]:
        for cut, c in cuts.items():
            if c["contains_identity"] is not True:
                problems.append(f"cut {cut}: identity not in the nullspace")
            if c["trivial_only"] != (c["dimension"] == 1):
                problems.append(f"cut {cut}: trivial_only disagrees with dimension")
        all_trivial = all(c["trivial_only"] for c in cuts.values())
        want = "StrongestNonlocal" if all_trivial else "NotStrongestNonlocal"
        if rec["verdict"] != want:
            problems.append(f"verdict {rec['verdict']} but cuts say {want}")
        if rec["applied_theorem"] == 1 and rec["agreement"] is not True:
            problems.append("graph and oracle disagree under Theorem 1")
    elif rec["verdict"] != rec["graph_verdict"]:
        problems.append("verdict differs from the graph verdict without an oracle")
    if rec["exit_code"] is not None and rec["exit_code"] != _EXIT_CODES[rec["verdict"]]:
        problems.append(f"exit code {rec['exit_code']} for {rec['verdict']}")
    if expected is not None:
        for key in COMPARED:
            if rec[key] != expected[key]:
                problems.append(f"{key}: {rec[key]!r}, expected {expected[key]!r}")
        if set(cuts) != set(expected["cuts"]):
            problems.append(f"cuts {sorted(cuts)}, expected {sorted(expected['cuts'])}")
        for cut in set(cuts) & set(expected["cuts"]):
            for key in COMPARED_PER_CUT:
                got, want = cuts[cut].get(key), expected["cuts"][cut].get(key)
                if got != want:
                    problems.append(f"cut {cut} {key}: {got!r}, expected {want!r}")
    return problems


EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(wl: Workload, seed: int) -> dict[str, dict]:
    """Expected records for this workload and seed (empty: invariants only)."""
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[wl.name]
    if data["seed"] is not None and data["seed"] != seed:
        return {}
    return data["records"]
