"""`ghznl certify --input` on generated documents, well formed and not: every
run ends with a verdict (exit 0-2) or names the offending field (exit 3),
and none is an internal error (exit 4)."""

import contextlib
import io
import itertools
import json
import random
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ghznl import cli

# one value, and one list length, in RARITY is bad
RARITY = 24


def bad_value(rng):
    """A value that no field of a document should hold: a boolean, float or
    string where an integer or a list belongs, a number far beyond any
    index, an integer out of range, null, or a container of the wrong
    kind."""
    return rng.choice([
        lambda: rng.random() < 0.5,
        lambda: rng.choice([0.0, 1.0, 2.5, -1.0]),
        lambda: rng.choice(["", "1", "A", "[]"]),
        lambda: 10**20,
        lambda: rng.randint(-2, 6),
        lambda: None,
        lambda: [rng.randint(0, 2) for _ in range(rng.randint(0, 4))],
        lambda: {"a": 1} if rng.random() < 0.5 else {},
    ])()


@st.composite
def documents(draw):
    """A document of dims 2-5 and 0-7 tuples of weight 2-3, each of distinct
    kets in bounds.  Any value may be a bad_value instead, and any list one
    item short or long: a short or long ket, dims or kets list, or a
    repeated tuple.  Half the tuples have a label; now and then there is an
    unknown top-level key, or a top level that is not an object.  One drawn
    seed makes the whole document."""
    rng = random.Random(draw(st.integers(0, 2**64)))

    def bad():
        return rng.randrange(RARITY) == 0

    def value(good):
        return bad_value(rng) if bad() else good()

    def listed(item, n):
        items = [value(lambda: item(i)) for i in range(n)]
        if bad():
            items = items[:-1] if rng.random() < 0.5 else items + items[:1]
        return items

    dims = listed(lambda _: rng.randint(2, 5), 3)
    bounds = [d if type(d) is int and 2 <= d <= 5 else 2 for d in dims[:3]]
    cells = list(itertools.product(*map(range, bounds + [2] * (3 - len(bounds)))))

    def tuple_(_):
        w = rng.randint(2, 3)
        kets = rng.sample(cells, w)
        t = {
            "weight": value(lambda: w),
            "kets": value(lambda: listed(lambda m: listed(kets[m].__getitem__, 3), w)),
        }
        if rng.random() < 0.5:
            t["label"] = value(lambda: rng.choice(["S1", "B2", ""]))
        return t

    doc = {
        "dims": value(lambda: dims),
        "tuples": value(lambda: listed(tuple_, rng.randint(0, 7))),
    }
    if bad():
        doc["note"] = value(lambda: "unknown keys are accepted")
    return value(lambda: doc)


# the field an exit-3 message opens with
FIELD = re.compile(r"dims|tuples(?:\[(\d+)\](?:\.kets\[(\d+)\])?)?|top level")


def names_its_field(doc, message: str) -> bool:
    """The message opens with a field of doc: dims, the tuples list, a
    tuple (tuples[i]), a ket (tuples[i].kets[k]) or the top level; every
    index it gives exists in doc."""
    m = FIELD.match(message)
    if m is None:
        return False
    i, k = (int(g) if g is not None else None for g in m.groups())
    tuples = doc.get("tuples") if isinstance(doc, dict) else None
    if i is not None and (not isinstance(tuples, list) or i >= len(tuples)):
        return False
    if k is not None:
        kets = tuples[i].get("kets") if isinstance(tuples[i], dict) else None
        return isinstance(kets, list) and k < len(kets)
    return True


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(documents())
def test_certify_exits_0_to_3_and_names_the_field(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["certify", "--input", str(path)])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code == 3:
        prefix = f"error: {path}: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert names_its_field(doc, err[len(prefix):]), err
    else:
        assert json.loads(out.getvalue())["verdict"], err
