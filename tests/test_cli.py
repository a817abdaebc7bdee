import hashlib
import json

import pytest

from ghznl import cli
from ghznl.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NOT_STRONGEST,
    EXIT_STRONGEST,
    main,
)
from ghznl.constructions import c333, even_d
from ghznl.state_model import Partition, parse_state_set, write_state_set
from test_constructions import without_labels


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_c333_to_stdout(self, capsys):
        code, out, err = run(capsys, "generate", "--construction", "c333")
        assert code == EXIT_STRONGEST
        S = parse_state_set(out)
        assert S.n_states == 26
        assert "states=26" in err

    def test_odd_to_file(self, tmp_path, capsys):
        doc = tmp_path / "odd5.json"
        code, _, _ = run(
            capsys,
            "generate", "--construction", "odd", "--d", "5",
            "--output", str(doc),
        )
        assert code == EXIT_STRONGEST
        assert parse_state_set(doc.read_text()).n_states == 98

    def test_c444_size(self, capsys):
        code, out, _ = run(capsys, "generate", "--construction", "c444w4")
        assert code == EXIT_STRONGEST
        assert parse_state_set(out).n_states == 64

    def test_even_with_odd_d_invalid(self, capsys):
        code, _, err = run(
            capsys, "generate", "--construction", "even", "--d", "5"
        )
        assert code == EXIT_INVALID
        assert "error:" in err

    def test_family_without_d_invalid(self, capsys):
        code, _, _ = run(capsys, "generate", "--construction", "odd")
        assert code == EXIT_INVALID


class TestCertify:
    def test_c333_both(self, capsys):
        code, out, err = run(
            capsys, "certify", "--construction", "c333", "--method", "both"
        )
        assert code == EXIT_STRONGEST
        doc = json.loads(out)
        assert doc["verdict"] == "StrongestNonlocal"
        assert doc["agreement"] is True
        assert len(doc["input_sha256"]) == 64
        assert "verdict: StrongestNonlocal" in err

    def test_only_certify_serializes_a_construction(self, monkeypatch, capsys):
        # graph and oracle have no use for a generated set's document text;
        # certify hashes the text that generate writes
        written = []

        def counted(S):
            written.append(S)
            return write_state_set(S)

        monkeypatch.setattr(cli, "write_state_set", counted)
        for command in ("graph", "oracle"):
            code, _, _ = run(capsys, command, "--construction", "odd", "--d", "5")
            assert code == EXIT_STRONGEST
        assert written == []
        code, out, _ = run(capsys, "certify", "--construction", "c333")
        assert code == EXIT_STRONGEST
        text = write_state_set(c333())
        assert json.loads(out)["input_sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert written == [c333()]

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "certify", "--construction", "c345", "--report", str(report),
        )
        assert code == EXIT_STRONGEST
        assert json.loads(report.read_text())["verdict"] == "StrongestNonlocal"

    def test_ablated_even4_oracle_negative(self, tmp_path, capsys):
        S = without_labels(even_d(4), ["S4", "S5"])
        doc = tmp_path / "ablated.json"
        doc.write_text(write_state_set(S))
        code, out, _ = run(
            capsys, "certify", "--input", str(doc), "--method", "oracle"
        )
        assert code == EXIT_NOT_STRONGEST
        assert json.loads(out)["oracle"]["A"]["dimension"] == 2

    def test_malformed_document(self, tmp_path, capsys):
        doc = tmp_path / "bad.json"
        doc.write_text('{"dims": [3, 3], "tuples": []}')
        code, _, err = run(capsys, "certify", "--input", str(doc))
        assert code == EXIT_INVALID
        assert "error:" in err

    def test_boolean_ket_coordinates_rejected(self, tmp_path, capsys):
        doc = tmp_path / "bool.json"
        doc.write_text(
            '{"dims": [2, 2, 2], "tuples": '
            '[{"weight": 2, "kets": [[false, 0, 0], [true, 1, 1]]}]}'
        )
        code, out, err = run(capsys, "certify", "--input", str(doc))
        assert code == EXIT_INVALID
        assert out == ""
        assert "tuples[0].kets[0]: expected a list of 3 integers" in err

    @pytest.mark.parametrize("command", ["certify", "graph", "oracle"])
    def test_dims_beyond_an_index_are_invalid(self, tmp_path, capsys, command):
        # 68 bytes: the graph route's root lists overflowed an index (exit 4)
        # before SystemDims bounded each product of two dimensions
        doc = tmp_path / "huge.json"
        doc.write_text(
            '{"dims":[100000000000000000000,100000000000000000000,2],"tuples":[]}'
        )
        code, out, err = run(capsys, command, "--input", str(doc))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith(f"error: {doc}: dims: a product of two local dimensions")
        assert err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "certify", "--input", str(tmp_path / "absent.json")
        )
        assert code == EXIT_INVALID

    def test_non_utf8_input(self, tmp_path, capsys):
        doc = tmp_path / "latin1.json"
        doc.write_bytes(b'{"dims": [3,3,3], "tuples": [], "label": "\xe9"}')
        code, out, err = run(capsys, "certify", "--input", str(doc))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith(f"error: cannot read {doc}: ")
        assert err.count("\n") == 1

    def test_input_and_construction_conflict(self, tmp_path, capsys):
        doc = tmp_path / "x.json"
        doc.write_text("{}")
        code, _, err = run(
            capsys,
            "certify", "--input", str(doc), "--construction", "c333",
        )
        assert code == EXIT_INVALID
        assert "exactly one" in err

    def test_neither_input_nor_construction(self, capsys):
        code, _, _ = run(capsys, "certify")
        assert code == EXIT_INVALID

    def test_modular_arithmetic(self, capsys):
        code, out, _ = run(capsys, "certify", "--construction", "c333")
        assert code == EXIT_STRONGEST
        for cut in json.loads(out)["oracle"].values():
            assert cut["mode"] == "modular"
            assert cut["prime"] >= 2**61
            assert "tolerance" not in cut and "warning" not in cut

    def test_d_rejected_for_fixed_construction(self, capsys):
        code, out, err = run(
            capsys, "certify", "--construction", "c333", "--d", "7"
        )
        assert code == EXIT_INVALID
        assert out == ""
        assert "takes no --d" in err


class TestGraph:
    def test_single_partition_stdout(self, capsys):
        code, out, err = run(
            capsys, "graph", "--construction", "c333", "--partition", "A"
        )
        assert code == EXIT_STRONGEST
        assert out.count(";") == 9 + 9  # nodes + edges
        assert "v_0_0" in out
        assert "9 vertices, 9 edges, connected" in err

    def test_all_partitions_to_dir(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "graph", "--construction", "c345",
            "--output-dir", str(tmp_path),
        )
        assert code == EXIT_STRONGEST
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "graph_full_A.dot",
            "graph_full_B.dot",
            "graph_full_C.dot",
        ]

    def test_path_subgraph(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "graph", "--construction", "c444w4", "--partition", "B",
            "--path-subgraph", "--output-dir", str(tmp_path),
        )
        assert code == EXIT_STRONGEST
        dot = (tmp_path / "graph_path_B.dot").read_text()
        assert dot.count("--") < 16 * 6  # fewer edges than the full graph

    @pytest.mark.parametrize("path_subgraph", [False, True], ids=["full", "path"])
    @pytest.mark.parametrize("name", ["c333", "c345", "even4-ablated"])
    def test_connectivity_agrees_with_certify(self, tmp_path, capsys, name,
                                              path_subgraph):
        # even4 without S4 and S5 splits into two parity components per cut
        if name == "even4-ablated":
            doc = tmp_path / "ablated.json"
            S = without_labels(even_d(4), ["S4", "S5"])
            doc.write_text(write_state_set(S))
            source = ["--input", str(doc)]
        else:
            source = ["--construction", name]
        extra = ["--path-subgraph"] if path_subgraph else []
        _, out, _ = run(capsys, "certify", *source, "--method", "graph")
        expected = {
            cut: "connected" if a["full_connected"] else "disconnected"
            for cut, a in json.loads(out)["partitions"].items()
        }
        code, _, err = run(capsys, "graph", *source, "--partition", "all", *extra)
        assert code == EXIT_STRONGEST
        printed = {
            line.split(":")[0].removeprefix("cut "): line.rsplit(" ", 1)[1]
            for line in err.splitlines() if line.startswith("cut ")
        }
        assert printed == expected
        if name == "even4-ablated":
            assert set(expected.values()) == {"disconnected"}


class TestOracle:
    def test_c333_stdout(self, capsys):
        code, out, _ = run(capsys, "oracle", "--construction", "c333")
        assert code == EXIT_STRONGEST
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for cut, line in zip("ABC", lines):
            assert line.startswith(f"cut {cut}: dim=1 trivial-only")
            assert "identity=yes" in line and "mode=modular" in line

    def test_pair_nontrivial_exit(self, tmp_path, capsys):
        doc = tmp_path / "pair.json"
        doc.write_text(
            '{"dims": [2, 2, 2], '
            '"tuples": [{"weight": 2, "kets": [[0,0,0],[1,1,1]]}]}'
        )
        code, out, _ = run(capsys, "oracle", "--input", str(doc))
        assert code == EXIT_NOT_STRONGEST
        assert "dim=15 nontrivial-exists" in out

    def test_guard_refusal(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--construction", "odd", "--d", "13"
        )
        assert code == EXIT_INCONCLUSIVE
        assert "refused" in err

    def test_dump_system(self, tmp_path, capsys):
        prefix = tmp_path / "sys"
        code, _, err = run(
            capsys,
            "oracle", "--construction", "c333", "--partition", "A",
            "--dump-system", str(prefix),
        )
        assert code == EXIT_STRONGEST
        dump = (tmp_path / "sys_A.txt").read_text()
        assert dump.startswith("# partition=A")
        assert "unknowns=81" in dump

    def test_dump_system_builds_each_cut_once(self, tmp_path, capsys, monkeypatch):
        """One build_systems call builds every cut; each is dumped once."""
        built = []
        original = cli.build_systems

        def spy(S, **kwargs):
            systems = original(S, **kwargs)
            built.append(list(systems))
            return systems

        monkeypatch.setattr(cli, "build_systems", spy)
        code, out, err = run(
            capsys,
            "oracle", "--construction", "c333",
            "--dump-system", str(tmp_path / "sys"),
        )
        assert code == EXIT_STRONGEST
        assert built == [list(Partition)]
        assert err.count("wrote ") == 3
        for cut, line in zip("ABC", out.strip().splitlines()):
            assert line.startswith(f"cut {cut}: dim=1 trivial-only")
            assert (tmp_path / f"sys_{cut}.txt").exists()

    # one weight-2 tuple in 71x2x2: cut A has 16 unknowns, B and C 20,164
    LOPSIDED = ('{"dims": [71, 2, 2], "tuples": '
                '[{"weight": 2, "kets": [[0,0,0],[1,1,1]]}]}')

    def test_guard_refuses_every_cut_before_building(self, tmp_path, capsys):
        doc = tmp_path / "lopsided.json"
        doc.write_text(self.LOPSIDED)
        code, out, err = run(capsys, "oracle", "--input", str(doc), "--partition", "A")
        assert code == EXIT_INCONCLUSIVE
        assert out == ""
        assert err == (
            "refused: 20164 unknowns on cut B exceeds the guard of 20000; "
            "pass force/--force to proceed\n"
        )
        code, out, _ = run(
            capsys, "oracle", "--input", str(doc), "--partition", "A", "--force"
        )
        line = "cut {}: dim={} nontrivial-exists identity=yes mode=modular\n"
        assert code == EXIT_NOT_STRONGEST
        assert out == line.format("A", 15)
        code, out, _ = run(capsys, "oracle", "--input", str(doc), "--force")
        assert code == EXIT_NOT_STRONGEST
        assert out == "".join(
            line.format(c, n) for c, n in (("A", 15), ("B", 20163), ("C", 20163))
        )
        code, out, _ = run(capsys, "certify", "--input", str(doc))
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["notes"][-1] == (
            "oracle refused: 20164 unknowns on cut B exceeds the guard of "
            "20000; pass force/--force to proceed"
        )


def rank_mod(rows, p):
    """Rank mod p by plain forward elimination on dict rows."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, p)
                pivots[c] = {u: v * inv % p for u, v in row.items()}
                break
            f = row[c]
            for u, v in pivots[c].items():
                nv = (row.get(u, 0) - f * v) % p
                if nv:
                    row[u] = nv
                else:
                    row.pop(u, None)
    return len(pivots)


PAIR222_DOC = '{"dims": [2, 2, 2], "tuples": [{"weight": 2, "kets": [[0,0,0],[1,1,1]]}]}'


@pytest.mark.parametrize(
    "source",
    [
        ["--construction", "c333"],
        ["--construction", "even", "--d", "4"],
        ["--construction", "c444w4"],
        ["--input", "pair.json"],
    ],
    ids=["c333", "even4", "c444w4", "pair222"],
)
def test_dump_rechecks_dimension(tmp_path, capsys, source):
    """Each dumped system, eliminated mod its header's prime, has the
    nullity printed on stdout."""
    (tmp_path / "pair.json").write_text(PAIR222_DOC)
    source = [str(tmp_path / a) if a.endswith(".json") else a for a in source]
    prefix = tmp_path / "sys"
    _, out, _ = run(capsys, "oracle", *source, "--dump-system", str(prefix))
    printed = dict(
        (line.split(":")[0][4:], int(line.split("dim=")[1].split()[0]))
        for line in out.strip().splitlines()
    )
    assert set(printed) == {"A", "B", "C"}
    for cut, dim in printed.items():
        lines = (tmp_path / f"sys_{cut}.txt").read_text().splitlines()
        header = dict(f.split("=") for f in lines[0][2:].split())
        prime = int(header["prime"])
        rows = [{} for _ in range(int(header["rows"]))]
        for line in lines:
            if not line.startswith("#"):
                r, u, v = map(int, line.split())
                rows[r][u] = v
        assert int(header["unknowns"]) - rank_mod(rows, prime) == dim

@pytest.mark.parametrize("command", ["certify", "graph", "oracle"])
def test_d_rejected_with_input(tmp_path, capsys, command):
    doc = tmp_path / "c333.json"
    main(["generate", "--construction", "c333", "--output", str(doc)])
    capsys.readouterr()
    code, out, err = run(capsys, command, "--input", str(doc), "--d", "9")
    assert code == EXIT_INVALID
    assert out == ""
    assert "--input takes no --d" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--construction", "c333", "--output"],
        ["certify", "--construction", "c333", "--report"],
        ["graph", "--construction", "c333", "--output-dir"],
        ["oracle", "--construction", "c333", "--dump-system"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output(tmp_path, capsys, argv):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out, err = run(capsys, *argv, str(blocker / "out"))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


class TestInternalError:
    # any other exception is a fault, not a verdict: exit 1 would read as
    # NotStrongestNonlocal
    def test_unexpected_exception_exits_4(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError("simulated")

        monkeypatch.setattr(cli, "certify", fail)
        code, out, err = run(capsys, "certify", "--construction", "c333")
        assert code == EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("internal error")
        assert "Traceback" in err and "MemoryError" in err

    def test_value_error_in_certify_is_internal(self, monkeypatch, capsys):
        # argparse already restricts every certify parameter, so a
        # ValueError from certify is a fault, not invalid input (3)
        def fail(*args, **kwargs):
            raise ValueError("simulated")

        monkeypatch.setattr(cli, "certify", fail)
        code, out, err = run(capsys, "certify", "--construction", "c333")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("internal error")

    def test_keyboard_interrupt_is_not_caught(self, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "certify", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["certify", "--construction", "c333"])


class TestParser:
    # argparse usage errors are invalid parameters (3), not its default 2,
    # which would read as Inconclusive
    def test_unknown_construction_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["generate", "--construction", "nope"])
        assert e.value.code == EXIT_INVALID

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == EXIT_INVALID

    def test_unknown_method(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["certify", "--construction", "c333", "--method", "x"])
        assert e.value.code == EXIT_INVALID
        assert "invalid choice" in capsys.readouterr().err

    def test_non_integer_d(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["generate", "--construction", "odd", "--d", "abc"])
        assert e.value.code == EXIT_INVALID
        assert "invalid int value" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["certify", "--help"])
        assert e.value.code == 0
        assert "--method" in capsys.readouterr().out
