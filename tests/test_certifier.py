import copy
import gc
import hashlib
import json
import pickle
import sys
import tracemalloc

import pytest

import ghznl
import ghznl.cli
from ghznl.certifier import (
    CertReport,
    Verdict,
    certify,
    certify_via_graphs,
    check_hypotheses,
    report_to_dict,
)
from ghznl.constructions import c333, c345, c444_weight4, even_d, odd_d
from ghznl.graphs import build_graph, connected_components
from ghznl.oracle import build_constraints, build_systems, nullspace
from ghznl.state_model import (
    GhzTuple,
    Ket,
    Partition,
    StateSet,
    SystemDims,
    check_mutual_orthogonality,
)
from test_constructions import without_labels

D2 = SystemDims(2, 2, 2)

PAIR222 = StateSet(D2, (GhzTuple(2, (Ket(0, 0, 0), Ket(1, 1, 1))),))

# two weight-3 tuples whose first two kets differ on axis A only: the first
# is spread on axis A alone and all three of its rows are product states,
# the second is entangled on every cut
COLLAPSED_W3 = StateSet(
    SystemDims(3, 3, 3),
    (
        GhzTuple(3, (Ket(0, 0, 0), Ket(1, 0, 0), Ket(2, 0, 0))),
        GhzTuple(3, (Ket(0, 1, 1), Ket(1, 1, 1), Ket(2, 2, 2))),
    ),
)


def one_common_ket_fan(n):
    """n weight-2 tuples through the one common ket (0, 0, 0), in (n+1)x3x3."""
    return StateSet(
        SystemDims(n + 1, 3, 3),
        tuple(GhzTuple(2, (Ket(0, 0, 0), Ket(t + 1, 1, 1))) for t in range(n)),
    )


def nullspaces(S):
    """Each cut's NullspaceResult, from one build_systems call."""
    return {p: nullspace(cs) for p, cs in build_systems(S).items()}


def ghz_basis_222():
    """The eight-state GHZ basis of three qubits: four antipodal pairs."""
    pairs = [
        ((0, 0, 0), (1, 1, 1)),
        ((0, 0, 1), (1, 1, 0)),
        ((0, 1, 0), (1, 0, 1)),
        ((0, 1, 1), (1, 0, 0)),
    ]
    return StateSet(
        D2, tuple(GhzTuple(2, (Ket(*a), Ket(*b))) for a, b in pairs)
    )


# the weight-3 GHZ basis of 3x3x3: the nine tuples
# {(i, (i + a) % 3, (i + b) % 3) : i < 3} for a, b < 3
GHZ_BASIS_333_W3 = StateSet(
    SystemDims(3, 3, 3),
    tuple(
        GhzTuple(3, tuple(Ket(i, (i + a) % 3, (i + b) % 3) for i in range(3)))
        for a in range(3)
        for b in range(3)
    ),
)


# the 5x3x3 product basis in layers: layers 0-1 joined by nine weight-2
# tuples and layers 2-4 by nine weight-3 tuples, each along a diagonal
# (l + m, (x + m) % 3, (y + m) % 3)
MIXED_W23 = StateSet(
    SystemDims(5, 3, 3),
    tuple(
        GhzTuple(w, tuple(Ket(l + m, (x + m) % 3, (y + m) % 3) for m in range(w)))
        for l, w in ((0, 2), (2, 3))
        for x in range(3)
        for y in range(3)
    ),
)


class TestCheckHypotheses:
    def test_c333_all_pass(self):
        h = check_hypotheses(c333())
        assert h.theorems_apply
        assert h.is_oges
        assert h.plane_witness == (0, 0, 0)
        assert h.failed_checks() == []

    def test_even4_failures(self):
        h = check_hypotheses(even_d(4))
        assert not h.theorems_apply
        assert not h.is_oges
        assert h.special_set_offenders == [28]
        assert len(h.orthogonality_violations) == 8
        assert h.entanglement_failures == [56, 57]
        failed = h.failed_checks()
        assert len(failed) == 2  # special-set and orthogonality; plane holds
        assert h.plane_witness == (0, 0, 0)

    def test_single_pair_not_plane_containing(self):
        h = check_hypotheses(PAIR222)
        assert not h.theorems_apply
        assert h.is_oges
        assert h.failed_checks() == ["plane-containing (no witness)"]


class TestCertifyViaGraphs:
    def test_c333_theorem1_positive(self):
        r = certify_via_graphs(c333())
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert r.applied_theorem == 1
        assert all(n <= 1 for n in r.partitions.values())

    def test_ghz_basis_theorem1_negative(self):
        # the qubit GHZ basis fails: every cut graph splits into two parts
        r = certify_via_graphs(ghz_basis_222())
        assert r.verdict is Verdict.NOT_STRONGEST_NONLOCAL
        assert r.applied_theorem == 1
        assert all(n == 2 for n in r.partitions.values())

    def test_c444_theorem2_positive(self):
        r = certify_via_graphs(c444_weight4())
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert r.applied_theorem == 2
        assert all(n <= 1 for n in r.partitions.values())

    def test_disconnected_high_weight_inconclusive(self):
        # the weight-3 GHZ basis of 3x3x3 meets every hypothesis of Theorem
        # 2, but each cut splits into three components: the sufficient
        # criterion cannot decide, and the oracle finds the set not
        # strongest nonlocal
        r = certify_via_graphs(GHZ_BASIS_333_W3)
        assert r.verdict is r.graph_verdict is Verdict.INCONCLUSIVE
        assert r.applied_theorem == 2
        assert r.hypotheses.plane_witness == (0, 0, 0)
        assert r.hypotheses.failed_checks() == []
        assert all(n == 3 for n in r.partitions.values())
        assert r.notes == [
            "disconnected graph with high-weight tuples: the sufficient "
            "criterion does not decide the converse"
        ]
        r = certify(GHZ_BASIS_333_W3, method="both")
        assert r.graph_verdict is Verdict.INCONCLUSIVE
        assert r.verdict is r.oracle_verdict is Verdict.NOT_STRONGEST_NONLOCAL
        assert all(res.dimension == 3 for res in r.oracle.values())

    def test_mixed_weights_apply_theorem2(self):
        # one weight above 2 is enough: 45 states in 18 tuples, not 36
        r = certify_via_graphs(MIXED_W23)
        assert r.hypotheses.failed_checks() == []
        assert r.applied_theorem == 2
        assert r.partitions == {Partition.A: 3, Partition.B: 6, Partition.C: 6}
        assert r.verdict is Verdict.INCONCLUSIVE

    def test_dropping_one_block_breaks_only_the_plane(self):
        # c444w4 less its block B1: every cut stays connected and the oracle
        # still finds the set strongest nonlocal, but no plane is contained,
        # so the graph route does not apply
        S = c444_weight4()
        S = StateSet(S.dims, tuple(t for t in S.tuples if t.label != "B1"))
        r = certify_via_graphs(S)
        assert r.verdict is Verdict.HYPOTHESES_VIOLATED
        assert r.applied_theorem is None
        assert r.hypotheses.plane_witness is None
        assert all(n == 1 for n in r.partitions.values())
        assert certify(S, method="both").verdict is Verdict.STRONGEST_NONLOCAL

    def test_hypotheses_gate(self):
        r = certify_via_graphs(even_d(4))
        assert r.verdict is Verdict.HYPOTHESES_VIOLATED
        assert r.applied_theorem is None
        assert any("special-set" in n for n in r.notes)
        assert any("mutual-orthogonality" in n for n in r.notes)


class TestCertify:
    def test_method_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            certify(c333(), method="guess")

    def test_c345_both_agree(self):
        r = certify(c345(), method="both")
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert r.graph_verdict is Verdict.STRONGEST_NONLOCAL
        assert r.oracle_verdict is Verdict.STRONGEST_NONLOCAL
        assert r.agreement is True

    def test_graph_method_skips_oracle_when_decisive(self):
        r = certify(c345(), method="graph")
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert r.oracle is None

    def test_oracle_method(self):
        r = certify(c333(), method="oracle")
        assert r.oracle_verdict is Verdict.STRONGEST_NONLOCAL
        assert all(v.trivial_only for v in r.oracle.values())

    def test_oracle_method_is_both(self):
        # the graph route runs under 'oracle' too, so the reports coincide
        for S in (c333(), PAIR222):
            assert report_to_dict(certify(S, method="oracle")) == report_to_dict(
                certify(S, method="both")
            )

    def test_ghz_basis_negative_agreement(self):
        r = certify(ghz_basis_222(), method="both")
        assert r.verdict is Verdict.NOT_STRONGEST_NONLOCAL
        assert r.agreement is True
        assert all(v.dimension == 2 for v in r.oracle.values())
        assert all(v.contains_identity for v in r.oracle.values())

    def test_even4_oracle_overrides_hypothesis_failure(self):
        r = certify(even_d(4), method="both")
        assert r.graph_verdict is Verdict.HYPOTHESES_VIOLATED
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert all(v.dimension == 1 for v in r.oracle.values())
        # its 16 non-orthogonal ordered pairs are skipped once on each cut
        assert (
            "oracle skipped 48 non-orthogonal ordered state pairs "
            "(per cut: A 16, B 16, C 16)"
        ) in r.notes
        assert r.agreement is None

    def test_ablated_even4_negative(self):
        S = without_labels(even_d(4), ["S4", "S5"])
        r = certify(S, method="both")
        # without the diagonal pairs the set loses the plane hypothesis,
        # every cut graph splits into two parity components, and the oracle
        # finds a two-dimensional solution space on each cut
        assert r.graph_verdict is Verdict.HYPOTHESES_VIOLATED
        assert all(n == 2 for n in r.partitions.values())
        assert r.verdict is Verdict.NOT_STRONGEST_NONLOCAL
        assert all(v.dimension == 2 for v in r.oracle.values())

    def test_pair_negative_via_oracle(self):
        r = certify(PAIR222, method="both")
        assert r.verdict is Verdict.NOT_STRONGEST_NONLOCAL
        assert r.oracle[Partition.A].dimension == 15

    def test_guard_refusal_keeps_definitive_graph_verdict(self, monkeypatch):
        monkeypatch.setattr("ghznl.oracle.RESOURCE_GUARD_UNKNOWNS", 5)
        r = certify(c333(), method="both")
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert r.oracle is None
        assert any("refused" in n for n in r.notes)

    def test_guard_refusal_without_graph_verdict(self, monkeypatch):
        monkeypatch.setattr("ghznl.oracle.RESOURCE_GUARD_UNKNOWNS", 5)
        r = certify(PAIR222, method="both")
        assert r.verdict is Verdict.INCONCLUSIVE
        assert any("refused" in n for n in r.notes)

    def test_odd5_positive(self):
        r = certify(odd_d(5), method="both")
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert r.agreement is True


class TestReportToDict:
    def test_json_serializable(self):
        for S in (c333(), even_d(4), PAIR222):
            doc = report_to_dict(certify(S, method="both"))
            assert json.loads(json.dumps(doc)) == doc

    def test_fields(self):
        doc = report_to_dict(certify(c345(), method="both"))
        assert doc["verdict"] == "StrongestNonlocal"
        assert doc["applied_theorem"] == 1
        assert doc["hypotheses"]["plane_witness"] == [0, 0, 0]
        assert doc["hypotheses"]["is_oges"] is True
        assert set(doc["partitions"]) == {"A", "B", "C"}
        assert doc["oracle"]["A"]["dimension"] == 1
        assert doc["oracle"]["A"]["mode"] == "modular"
        assert doc["oracle"]["A"]["prime"] >= 2**61
        assert doc["agreement"] is True

    def test_graph_only_report_omits_oracle(self):
        doc = report_to_dict(certify(c333(), method="graph"))
        assert "oracle" not in doc


class TestReportsPinned:
    # sha256 of each report; a change of verdict, count, note or field order
    # changes its digest.  A change that alters a report on purpose re-pins
    # the digest and says why.
    DIGESTS = {
        ("c333", "graph"): "1414cc80b87bdc97b6e2f190643cc2aaf6b6cbc55552b6d1c2658abf2babd415",
        ("c333", "both"): "9253a66208f721802a2e2dee3ad2ef94d7097c78c3fa7e114c8ece7c6f5b1148",
        ("c345", "graph"): "1414cc80b87bdc97b6e2f190643cc2aaf6b6cbc55552b6d1c2658abf2babd415",
        ("c345", "both"): "f782be33e59b76449a45a182310e46e9ab624b6c6e02466a0ad6b7b6c12b7743",
        ("c444w4", "graph"): "70e96527a53eba24e720f89bda05b8b7d3028ae5df09a3b503e60e166abe8c0e",
        ("c444w4", "both"): "0a0179dae251cb7fb647fd14443434b4a08c2af5dd041728ec5563cb7defea3d",
        ("odd5", "graph"): "1414cc80b87bdc97b6e2f190643cc2aaf6b6cbc55552b6d1c2658abf2babd415",
        ("odd5", "both"): "5f5b91240e8fc18089ea7ca6571afdd116d11abca046ffde026b16c8d4a8e65b",
        ("odd7", "graph"): "1414cc80b87bdc97b6e2f190643cc2aaf6b6cbc55552b6d1c2658abf2babd415",
        ("odd7", "both"): "f372abefc040b96b8fe3f1c3fac1f242aad9bdb783c5b483a78149cb89c286e0",
        ("even4", "graph"): "ff819574d7b653c8947236fc32591f39259f1bc0801c85d1fe9ff49c56d76af6",
        ("even4", "both"): "ff819574d7b653c8947236fc32591f39259f1bc0801c85d1fe9ff49c56d76af6",
        ("even6", "graph"): "1414cc80b87bdc97b6e2f190643cc2aaf6b6cbc55552b6d1c2658abf2babd415",
        ("even6", "both"): "95187623703e1eef735ccc5a134a51bdd2b851562b37569b885763054a6849f9",
        ("even4-ablated", "graph"): "d6f19a1ef21c4343bf010d85af6d740b884805ebe3cf236cbfe1bfd50eea99bc",
        ("even4-ablated", "both"): "d6f19a1ef21c4343bf010d85af6d740b884805ebe3cf236cbfe1bfd50eea99bc",
        ("pair222", "graph"): "857a18ff4c6be346d1064d08e663d1e72e8ab0aba681d98b99519138a087718c",
        ("pair222", "both"): "857a18ff4c6be346d1064d08e663d1e72e8ab0aba681d98b99519138a087718c",
    }
    SETS = {
        "c333": c333, "c345": c345, "c444w4": c444_weight4,
        "odd5": lambda: odd_d(5), "odd7": lambda: odd_d(7),
        "even4": lambda: even_d(4), "even6": lambda: even_d(6),
        "even4-ablated": lambda: without_labels(even_d(4), ["S4", "S5"]),
        "pair222": lambda: PAIR222,
    }

    @pytest.mark.parametrize("name, method", sorted(DIGESTS))
    def test_report_digest_is_pinned(self, name, method):
        doc = report_to_dict(certify(self.SETS[name](), method=method))
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name, method]


def _replace(monkeypatch, fn, replacement):
    """Replace fn in every ghznl module that refers to it."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ghznl"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def _spy(monkeypatch, fn, calls):
    """Replace fn everywhere by a wrapper that appends the name of its
    caller to calls."""

    def spy(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return fn(*args, **kwargs)

    _replace(monkeypatch, fn, spy)


def _forbid(monkeypatch, fn):
    """Replace fn everywhere by a stub that raises."""

    def stub(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} was called")

    _replace(monkeypatch, fn, stub)


def _count_spread_facts(monkeypatch) -> list[StateSet]:
    """Record every computation of the cached fact StateSet.spread."""
    calls = []
    fact = vars(StateSet)["spread"]
    original = fact.func

    def spy(S):
        calls.append(S)
        return original(S)

    monkeypatch.setattr(fact, "func", spy)
    return calls


class TestOnePreparationPass:
    def test_certify_prepares_once_and_builds_no_path_graph(self, monkeypatch):
        paths = []
        computed = _count_spread_facts(monkeypatch)
        _spy(monkeypatch, ghznl.graphs.build_path_graph, paths)
        S = odd_d(5)
        for _ in range(2):
            r = certify(S, method="both")
            assert r.verdict is Verdict.STRONGEST_NONLOCAL
        # the spread bits are a cached fact of S: one computation in total
        assert computed == [S]
        assert paths == []

    @pytest.mark.parametrize(
        "S, failures",
        [
            (PAIR222, []),
            (c333(), []),
            (even_d(4), [56, 57]),
            (without_labels(even_d(4), ["S4", "S5"]), []),
            (COLLAPSED_W3, [0, 1, 2]),
        ],
        ids=["pair222", "c333", "even4", "even4-ablated", "collapsed-w3"],
    )
    def test_certify_constructs_no_state(self, monkeypatch, S, failures):
        # every check, the census of the tuples that are not coordinately
        # different (even4's S5, both collapsed tuples) included, and the
        # oracle read the kets
        _forbid(monkeypatch, ghznl.state_model.StateVector)
        r = certify(S, method="both")
        assert r.hypotheses.entanglement_failures == failures

    def test_one_walk_counts_every_cut(self, monkeypatch, capsys):
        # certify and `ghznl graph --partition all` each count the three
        # cuts' components in a single component_counts call
        walks = []
        _spy(monkeypatch, ghznl.graphs.component_counts, walks)
        S = c345()
        r = certify(S, method="both")
        assert walks == ["certify_via_graphs"]
        assert r.partitions == {
            p: connected_components(build_graph(S, p)) for p in Partition
        }
        walks.clear()
        code = ghznl.cli.main(
            ["graph", "--construction", "c345", "--partition", "all"]
        )
        assert code == 0
        assert walks == ["cmd_graph"]
        assert capsys.readouterr().err.count("connected") == 3

    def test_one_build_makes_every_cut(self, monkeypatch, tmp_path, capsys):
        # certify and `ghznl oracle --dump-system` each build the three
        # cuts' systems in a single build_systems call
        builds = []
        _spy(monkeypatch, ghznl.oracle.build_systems, builds)
        r = certify(c345(), method="both")
        assert builds == ["certify"]
        assert list(r.oracle) == list(Partition)
        builds.clear()
        code = ghznl.cli.main(
            ["oracle", "--construction", "c345", "--dump-system", str(tmp_path / "sys")]
        )
        assert code == 0
        assert builds == ["cmd_oracle"]
        assert capsys.readouterr().err.count("wrote ") == 3

    def test_oracle_expands_no_state(self, monkeypatch):
        # every oracle row is built from the tuples' kets: even4's
        # ket-sharing tuples 16, 27 and 17, 28 still get their 16 skipped
        # pairs per cut and 2 per-pair rows on cuts B and C
        S = even_d(4)
        _forbid(monkeypatch, ghznl.state_model.expand_tuple)
        results = nullspaces(S)
        assert {p: r.skipped_pairs for p, r in results.items()} == dict.fromkeys(
            Partition, 16
        )
        assert all(r.trivial_only for r in results.values())
        assert {p: len(build_constraints(S, p).pair_rows) for p in Partition} == {
            Partition.A: 0, Partition.B: 2, Partition.C: 2,
        }

    def test_orthogonality_check_expands_no_state(self, monkeypatch):
        # even4's ket-sharing tuples 16, 27 and 17, 28 are decided from the
        # kets
        S = even_d(4)
        _forbid(monkeypatch, ghznl.state_model.expand_tuple)
        assert check_mutual_orthogonality(S) == [
            (32, 54), (32, 55), (33, 54), (33, 55),
            (34, 56), (34, 57), (35, 56), (35, 57),
        ]

    @pytest.mark.parametrize(
        "S", [PAIR222, c333(), even_d(4), without_labels(even_d(4), ["S4", "S5"])],
        ids=["pair222", "c333", "even4", "even4-ablated"],
    )
    def test_cached_facts_leave_the_set_and_its_report_unchanged(self, S):
        report = report_to_dict(certify(S))
        fresh = StateSet(S.dims, S.tuples)
        assert S == fresh and hash(S) == hash(fresh)
        assert report_to_dict(certify(fresh)) == report


class TestCopies:
    @pytest.mark.parametrize(
        "copy_of", [lambda S: pickle.loads(pickle.dumps(S)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_certified_set_round_trips(self, copy_of):
        # the copy carries the fields only and computes its own facts
        S = even_d(4)
        report = report_to_dict(certify(S))
        T = copy_of(S)
        assert T == S
        assert vars(T).keys() == {"dims", "tuples"}
        assert report_to_dict(certify(T)) == report


class TestRetainedFacts:
    def test_one_common_ket_fan_keeps_little(self):
        # n = 200 weight-2 tuples through one common ket: the facts kept on
        # the set after certify are linear in n (about 0.03 MB here); an
        # n x n index of shared kets would keep about 2 MB
        certify(one_common_ket_fan(3))
        S = one_common_ket_fan(200)
        tracemalloc.start()
        try:
            report = certify(S)
            # all 2 x 2 state pairs of every two tuples are non-orthogonal
            assert len(report.hypotheses.orthogonality_violations) == 4 * 19_900
            del report
            gc.collect()
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 250_000


class TestCertifyBuildsNoGraph:
    @pytest.mark.parametrize(
        "S, method", [(c333(), "both"), (odd_d(11), "graph")],
        ids=["c333-both", "odd11-graph"],
    )
    def test_counts_match_the_built_graphs(self, monkeypatch, S, method):
        counts = {
            p: connected_components(build_graph(S, p)) for p in Partition
        }
        before = report_to_dict(certify(S, method=method))
        _forbid(monkeypatch, ghznl.graphs.build_graph)
        _forbid(monkeypatch, ghznl.graphs.connected_components)
        with pytest.raises(AssertionError):
            ghznl.graphs.build_graph(S, Partition.A)
        r = certify(S, method=method)
        assert r.verdict is Verdict.STRONGEST_NONLOCAL
        assert r.partitions == counts
        assert report_to_dict(r) == before
