import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from algindep.cli import main
from algindep.core import MAX_STRUCTURE_SIZE, SubUniverse
from algindep.io import (
    StructureParseError,
    canonical_json,
    dump_structure,
    load_structure,
    structure_from_dict,
    structure_to_dict,
)
from algindep.zoo import (
    cyclic_group,
    graph,
    is_vector_space,
    powerset_boolean_algebra,
    symmetric_group,
    vector_space,
)

from oracles import reference_subalgebra_independence


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "algindep.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_structure_round_trip(tmp_path):
    for structure in (cyclic_group(6), powerset_boolean_algebra(2), graph(3, [(0, 1)])):
        path = tmp_path / "s.json"
        dump_structure(structure, path, name="fixture")
        loaded, name = load_structure(path)
        assert loaded == structure
        assert name == "fixture"
        # canonical form is a fixpoint of parse . serialize
        again = tmp_path / "s2.json"
        dump_structure(loaded, again, name=name)
        assert path.read_text() == again.read_text()


def test_parse_error_reports_field():
    doc = structure_to_dict(cyclic_group(3))
    doc["ops"][0]["table"] = doc["ops"][0]["table"][:-1]
    with pytest.raises(StructureParseError, match="non-total"):
        structure_from_dict(doc)
    with pytest.raises(StructureParseError, match="missing field"):
        structure_from_dict({"name": "x"})


def test_parse_rejects_duplicate_symbols():
    doc = structure_to_dict(cyclic_group(2))
    doc["ops"].append(dict(doc["ops"][0]))
    with pytest.raises(StructureParseError, match="duplicate"):
        structure_from_dict(doc)


def test_parse_rejects_bool_size():
    doc = structure_to_dict(cyclic_group(1))
    doc["size"] = True
    with pytest.raises(StructureParseError, match="size: expected int, got bool"):
        structure_from_dict(doc)


def test_parse_rejects_bool_arity():
    doc = structure_to_dict(cyclic_group(2))
    doc["ops"] = [op for op in doc["ops"] if op["name"] == "inv"]
    doc["ops"][0]["arity"] = True
    with pytest.raises(StructureParseError, match="arity: expected int, got bool"):
        structure_from_dict(doc)


def test_parse_rejects_bool_table_entries():
    doc = structure_to_dict(cyclic_group(2))
    inv = next(op for op in doc["ops"] if op["name"] == "inv")
    inv["table"] = [False, True]
    with pytest.raises(StructureParseError, match="entries must be integers"):
        structure_from_dict(doc)


def test_parse_rejects_bool_relation_entries():
    doc = structure_to_dict(graph(2, [(0, 1)]))
    doc["rels"][0]["tuples"] = [[False, True]]
    with pytest.raises(StructureParseError, match="expected a list of integers"):
        structure_from_dict(doc)


@pytest.mark.parametrize(
    "entry", ["1", "true", "false", "1.0", "1e0", '"1"', "null", "[1]", "{}", "3" * 40]
)
def test_table_entries_are_integers_exactly_when_json_says_so(entry):
    # the bulk check reads the exact type, which on every JSON value agrees
    # with "an int that is not a bool"
    from algindep import io

    value = json.loads(entry)
    expected = isinstance(value, int) and not isinstance(value, bool)
    assert io._all_ints([0, value, 1]) is expected
    doc = structure_to_dict(cyclic_group(2))
    inv = next(op for op in doc["ops"] if op["name"] == "inv")
    inv["table"] = [value]  # one entry short, so an integer fails validation
    with pytest.raises(StructureParseError) as refused:
        structure_from_dict(doc)
    assert ("entries must be integers" in str(refused.value)) is not expected


def test_cli_rejects_bool_size_with_exit_2(tmp_path, capsys):
    doc = structure_to_dict(cyclic_group(1))
    doc["size"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["decide-cong", "-s", str(path), "--a", "0", "--b", "0"]) == 2
    assert "size: expected int, got bool" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size, arity", [(2, 100000), (3, 10**9)], ids=["size2-arity1e5", "size3-arity1e9"]
)
def test_cli_huge_arity_exits_2_without_building_the_power(
    tmp_path, capsys, size, arity
):
    doc = {
        "name": "huge",
        "size": size,
        "ops": [{"name": "f", "arity": arity, "table": list(range(size))}],
        "rels": [],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["decide-sub", "-s", str(path), "--a", "0", "--b", "0"]) == 2
    err = capsys.readouterr().err
    assert f"non-total table (expected {size}**{arity} entries, got {size})" in err


def test_cli_integer_with_too_many_digits_exits_2(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"name": "x", "size": ' + "7" * 5000 + ', "ops": [], "rels": []}')
    assert main(["decide-sub", "-s", str(path), "--a", "0", "--b", "0"]) == 2
    assert "value has 5000 digits" in capsys.readouterr().err


def _diagonal(size, arity):
    """``size`` elements and one relation {0^arity, 1^arity}."""
    tuples = [[0] * arity, [1] * arity]
    return {"size": size, "ops": [], "rels": [{"name": "r", "arity": arity, "tuples": tuples}]}


@pytest.mark.parametrize(
    "doc, a, b, mode",
    [
        ({"size": 1, "ops": [{"name": "f", "arity": 70, "table": [0]}], "rels": []},
         "0", "0", "weak"),
        (_diagonal(2, 70), "0", "0,1", "weak"),
        (_diagonal(3, 40), "0,1", "2", "weak"),
        (_diagonal(3, 40), "0,1", "2", "strong"),
        (_diagonal(2, 70), "0", "0,1", "strong"),
    ],
    ids=["op-arity70", "rel-arity70", "rel-arity40", "rel-arity40-strong", "rel-arity70-strong"],
)
def test_cli_decides_arities_beyond_numpy_axes(tmp_path, capsys, doc, a, b, mode):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"name": "wide", **doc}))
    # the reference's strong scan costs size**arity; for {0^ar, 1^ar} the
    # verdict is the same for every arity from 2 on, so take it at arity 3
    if mode == "strong":
        doc = _diagonal(doc["size"], 3)
    structure, _ = structure_from_dict({"name": "wide", **doc})
    expected = reference_subalgebra_independence(
        structure,
        SubUniverse(structure, map(int, a.split(","))),
        SubUniverse(structure, map(int, b.split(","))),
        mode=mode,
    )
    args = ["decide-sub", "-s", str(path), "--a", a, "--b", b, "--mode", mode, "--json"]
    code = main(args)
    assert code == (0 if expected.independent else 1)
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == expected.independent
    assert out["stats"]["pairs_examined"] == expected.pairs_examined


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, path=()):
    """Every position inside a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield from _paths(inner, path + (key,))


@st.composite
def documents(draw):
    """A structure document, mostly well formed, with up to three positions
    replaced by arbitrary JSON or deleted; arities reach far past any table."""
    size = draw(st.integers(0, 3))
    entries = st.integers(-1, max(size, 0))

    def symbols(table_key, names):
        out = []
        for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
            arity = draw(st.integers(-1, 3) | st.integers(4, 10**12))
            if table_key == "table":
                cells = size**arity if 0 <= arity <= 3 and size >= 0 else 2
                value = draw(st.lists(entries, min_size=cells, max_size=cells))
            else:
                width = arity if 0 <= arity <= 3 else 2
                value = draw(
                    st.lists(st.lists(entries, min_size=width, max_size=width), max_size=3)
                )
            out.append({"name": name, "arity": arity, table_key: value})
        return out

    doc = {
        "name": "x",
        "size": size,
        "ops": symbols("table", "fg"),
        "rels": symbols("tuples", "rs"),
    }
    if draw(st.booleans()):
        doc["labels"] = [str(x) for x in range(size)]
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(json_values)
        *head, key = path
        holder = doc
        for step in head:
            holder = holder[step]
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(json_values)
    return doc


@given(documents())
@settings(max_examples=300, deadline=None)
def test_structure_from_dict_parses_or_raises_parse_error(doc):
    try:
        structure, name = structure_from_dict(doc)
    except StructureParseError:
        return
    # the serialized form parses back to the same document
    canonical = structure_to_dict(structure, name)
    assert structure_to_dict(*structure_from_dict(canonical)) == canonical


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  broken\n}\n')
    with pytest.raises(StructureParseError, match="line 3"):
        load_structure(path)


def test_cli_gen_and_decide_sub(tmp_path):
    out = tmp_path / "z6.json"
    r = run_cli("gen", "cyclic_group", "6", "-o", out)
    assert r.returncode == 0, r.stderr
    r = run_cli("decide-sub", "-s", out, "--a", "0,3", "--b", "0,2,4")
    assert r.returncode == 0
    assert r.stdout.startswith("independent; 6 hom pairs decided")


def test_cli_decide_sub_witness_and_exit_code(tmp_path):
    out = tmp_path / "s3.json"
    assert run_cli("gen", "symmetric_group", "3", "-o", out).returncode == 0
    r = run_cli("decide-sub", "-s", out, "--a", "0,3,4", "--b", "0,2")
    assert r.returncode == 1
    assert r.stdout.startswith("not independent")
    assert "witness alpha" in r.stdout


def test_cli_decide_sub_json_twin_is_byte_stable(tmp_path):
    out = tmp_path / "s3.json"
    run_cli("gen", "symmetric_group", "3", "-o", out)
    r1 = run_cli("decide-sub", "-s", out, "--a", "0,3,4", "--b", "0,2", "--json")
    r2 = run_cli("decide-sub", "-s", out, "--a", "0,3,4", "--b", "0,2", "--json")
    assert r1.stdout == r2.stdout
    payload = json.loads(r1.stdout)
    assert payload["verdict"] is False
    assert payload["witness"]["kind"] == "subalgebra"
    assert payload["stats"]["pairs_examined"] == 3


def test_cli_decide_cong(tmp_path):
    out = tmp_path / "set3.json"
    run_cli("gen", "empty_sig_set", "3", "-o", out)
    r = run_cli("decide-cong", "-s", out, "--a", "0", "--b", "0,1")
    assert r.returncode == 0
    assert r.stdout.startswith("independent")
    r = run_cli("decide-cong", "-s", out, "--a", "0,1", "--b", "0,1")
    assert r.returncode == 1


def test_cli_decide_cong_json_twin_is_byte_stable(tmp_path):
    out = tmp_path / "set5.json"
    run_cli("gen", "empty_sig_set", "5", "-o", out)
    r1 = run_cli("decide-cong", "-s", out, "--a", "0,1,2", "--b", "2,3,4", "--json")
    r2 = run_cli("decide-cong", "-s", out, "--a", "0,1,2", "--b", "2,3,4", "--json")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    payload = json.loads(r1.stdout)
    assert payload["verdict"] is True
    assert payload["stats"]["pairs_examined"] == 25


def test_cli_coproduct_and_iso(tmp_path):
    z2, z3, z6 = tmp_path / "z2.json", tmp_path / "z3.json", tmp_path / "z6.json"
    cop = tmp_path / "cop.json"
    run_cli("gen", "cyclic_group", "2", "-o", z2)
    run_cli("gen", "cyclic_group", "3", "-o", z3)
    run_cli("gen", "cyclic_group", "6", "-o", z6)
    r = run_cli("coproduct", "-s", z2, "-s", z3, "--category", "abelian_group", "-o", cop)
    assert r.returncode == 0, r.stderr
    assert run_cli("iso", "-s", cop, "-s", z6).returncode == 0
    z4 = tmp_path / "z4.json"
    klein = tmp_path / "klein.json"
    run_cli("gen", "cyclic_group", "4", "-o", z4)
    run_cli("gen", "cyclic_group", "2", "-o", tmp_path / "z2b.json")
    run_cli(
        "coproduct",
        "-s",
        tmp_path / "z2b.json",
        "-s",
        z2,
        "--category",
        "abelian_group",
        "-o",
        klein,
    )
    r = run_cli("iso", "-s", z4, "-s", klein)
    assert r.returncode == 1
    assert "not isomorphic" in r.stdout


def test_cli_error_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    r = run_cli("decide-sub", "-s", bad, "--a", "0", "--b", "1")
    assert r.returncode == 2
    assert "error:" in r.stderr

    out = tmp_path / "z6.json"
    run_cli("gen", "cyclic_group", "6", "-o", out)
    r = run_cli("decide-sub", "-s", out, "--a", "0,99", "--b", "0")
    assert r.returncode == 2
    assert "out of range" in r.stderr

    r = run_cli("gen", "no_such_family", "-o", tmp_path / "x.json")
    assert r.returncode == 2

    # a file that is not UTF-8 (a UTF-16 byte order mark at byte 0), and one
    # nested deeper than the JSON parser recurses
    for name, data, message in (
        ("utf16.json", b"\xff\xfe{}", "byte 0: not UTF-8 text"),
        ("deep.json", b"[" * 200000 + b"]" * 200000, "nested too deeply"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        for command in (
            ("decide-sub", "-s", path, "--a", "0", "--b", "0"),
            ("iso", "-s", path, "-s", path),
        ):
            r = run_cli(*command)
            assert r.returncode == 2
            assert "Traceback" not in r.stderr
            [line] = r.stderr.splitlines()
            assert line.startswith("error:") and message in line and len(line) < 100

    # a universe over the element bound, declared by a file or asked of gen
    big = tmp_path / "big.json"
    big.write_text('{"name":"big","size":1000000000,"ops":[],"rels":[]}')
    r = run_cli("decide-sub", "-s", big, "--a", "0", "--b", "1")
    assert r.returncode == 2
    assert f"size 1000000000 exceeds the bound of {MAX_STRUCTURE_SIZE} elements" in r.stderr
    for family, params in (("empty_sig_set", ()), ("graph", ("",))):
        r = run_cli("gen", family, MAX_STRUCTURE_SIZE + 1, *params, "-o", tmp_path / "x.json")
        assert r.returncode == 2
        assert f"are built with at most {MAX_STRUCTURE_SIZE} elements" in r.stderr

    r = run_cli("gen", "symmetric_group", "3", "-o", out)
    r = run_cli(
        "coproduct", "-s", out, "-s", out, "--category", "group", "-o", tmp_path / "c.json"
    )
    assert r.returncode == 2
    assert "free product" in r.stderr

    # coproducts over the element or table bound exit before building
    # anything; the 16384-element product would take minutes of CPU time
    for family, params, category in (
        ("empty_sig_set", (), "set"),
        ("graph", ("",), "graph"),
        ("cyclic_group", (), "abelian_group"),
    ):
        size = 128 if category == "abelian_group" else MAX_STRUCTURE_SIZE // 2 + 1
        run_cli("gen", family, size, *params, "-o", out)
        r = run_cli(
            "coproduct", "-s", out, "-s", out, "--category", category, "-o", tmp_path / "c.json"
        )
        assert r.returncode == 2
        assert "error:" in r.stderr and not (tmp_path / "c.json").exists()
        if category == "abelian_group":
            assert "16384 elements" in r.stderr and "1048576 cells" in r.stderr
        else:
            assert f"at most {MAX_STRUCTURE_SIZE} elements" in r.stderr


def test_cli_iso_needs_two_files(tmp_path):
    out = tmp_path / "z2.json"
    run_cli("gen", "cyclic_group", "2", "-o", out)
    r = run_cli("iso", "-s", out)
    assert r.returncode == 2
    assert "exactly two" in r.stderr


@pytest.mark.parametrize("command", ["decide-sub", "decide-cong"])
def test_cli_deciders_need_exactly_one_file(tmp_path, capsys, command):
    z6 = tmp_path / "z6.json"
    dump_structure(cyclic_group(6), z6, name="z6")
    subsets = ["--a", "0,3", "--b", "0,2,4"]
    for files in ([z6, tmp_path / "missing.json"], [z6, z6]):
        argv = [command]
        for path in files:
            argv += ["-s", str(path)]
        assert main(argv + subsets) == 2
        assert f"{command} needs exactly one -s FILE argument" in capsys.readouterr().err
    assert main([command, "-s", str(z6)] + subsets) == 0


@pytest.mark.parametrize(
    "params, message",
    [
        pytest.param(p, m, id=" ".join(p))
        for p, m in [
            (["cyclic_group"], "cyclic_group takes 1 parameter, got 0"),
            (["vector_space", "2"], "vector_space takes 2 parameters, got 1"),
            (["graph", "3"], "graph takes 2 parameters, got 1"),
            (["quaternion_group", "8"], "quaternion_group takes 0 parameters, got 1"),
            (["symmetric_group", "3", "4"], "symmetric_group takes 1 parameter, got 2"),
        ]
    ],
)
def test_cli_gen_with_wrong_parameter_count_exits_2(tmp_path, capsys, params, message):
    out = tmp_path / "x.json"
    assert main(["gen"] + params + ["-o", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


_HUGE = "9" * 5000
# how a message shows _HUGE: a prefix and the length, not 5000 digits
_HUGE_SHOWN = f"{_HUGE[:32]!r}... (5000 characters)"
# the rest of a decider's arguments; "Z6" stands for a file of Z6
_ON_Z6 = ["-s", "Z6", "--b", "0,2,4"]
_CONG = ["decide-cong", "--a", "0,3", *_ON_Z6]
_SUB = ["decide-sub", "--a", "0,3", *_ON_Z6]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(argv, message, id=" ".join(a[:12] for a in argv if a not in _ON_Z6))
        for argv, message in [
            # gen: family, parameters and parameter count
            (["gen", "no_such_family"], "unknown structure family 'no_such_family'"),
            (["gen", ""], "unknown structure family ''"),
            (["gen", "cyclic_group", "a"], "order must be an integer, got 'a'"),
            (["gen", "cyclic_group", "1.5"], "order must be an integer"),
            (["gen", "cyclic_group", _HUGE], f"order must be an integer, got {_HUGE_SHOWN}"),
            (["gen", "graph", "3", f"0-{_HUGE}"],
             f"edge endpoint must be an integer, got {_HUGE_SHOWN}"),
            (["gen", _HUGE], f"unknown structure family {_HUGE_SHOWN}"),
            (["gen", "cyclic_group", "-3"], "built for orders 1 to 128"),
            (["gen", "symmetric_group", "0"], "built for 1 <= n <= 5"),
            (["gen", "dihedral_group", "-1"], "built for parameters 1 to 64"),
            (["gen", "powerset_boolean_algebra", "40"], "over the bound of 1048576 cells"),
            (["gen", "powerset_boolean_algebra", "0"], "built for atoms >= 1"),
            (["gen", "vector_space", "4", "2"], "4 is not prime"),
            (["gen", "vector_space", "2", "-1"], "built for dim >= 1"),
            (["gen", "graph", "3", "0-5"], "edge (0,5) out of range for 3 vertices"),
            (["gen", "graph", "3", "0-1,,"], "edge endpoint must be an integer, got ''"),
            (["gen", "graph", "-2", ""], "a graph needs at least one vertex"),
            (["gen", "empty_sig_set", "0"], "a set structure needs at least one element"),
            (["gen", "vector_space", "2", "2", "2"], "vector_space takes 2 parameters, got 3"),
            # subsets
            (["decide-sub", "--a", "-1", *_ON_Z6], "element -1 out of range"),
            (["decide-sub", "--a", "9" * 30, *_ON_Z6], "out of range for universe 0..5"),
            (["decide-sub", "--a", _HUGE, *_ON_Z6], f"element indices, got {_HUGE_SHOWN}"),
            (["decide-sub", "--a", "0,,1", *_ON_Z6], "got '0,,1'"),
            (["decide-sub", "--a", "0,3,", *_ON_Z6], "got '0,3,'"),
            (["decide-sub", "--a", "", *_ON_Z6], "got ''"),
            (["decide-cong", "--a", ",", *_ON_Z6], "got ','"),
            (["decide-cong", "--a", "0;3", *_ON_Z6], "got '0;3'"),
            (["decide-sub", "--a", "1", *_ON_Z6], "subset [1] is not closed"),
            # options
            (["--max-size", "-5", *_CONG], "--max-size: must be a positive integer, got -5"),
            (["--max-size", "0", *_CONG], "--max-size: must be a positive integer, got 0"),
            (["--max-size", "x", *_CONG], "--max-size: invalid int value: 'x'"),
            (["--max-size", _HUGE, *_CONG], f"--max-size: invalid int value: {_HUGE_SHOWN}"),
            (["--max-size", "-" + "9" * 4000, *_CONG], "positive integer, got '-9999"),
            (["--seed", "x", "paper-suite"], "--seed: invalid int value: 'x'"),
            (["--seed", _HUGE, "paper-suite"], f"--seed: invalid int value: {_HUGE_SHOWN}"),
            ([*_SUB, "--mode", "odd"], "argument --mode: invalid choice: 'odd'"),
            ([*_SUB, "--homs", "x"], "argument --homs: invalid choice: 'x'"),
            (["no-such-command"], "argument command: invalid choice"),
            ([_HUGE], f"argument command: invalid choice: {_HUGE_SHOWN}"),
            ([*_SUB, "--mode", _HUGE], f"argument --mode: invalid choice: {_HUGE_SHOWN}"),
            ([*_SUB, "--homs", _HUGE], f"argument --homs: invalid choice: {_HUGE_SHOWN}"),
            (["coproduct", "-s", "Z6", "-s", "Z6", "--category", _HUGE],
             f"argument --category: invalid choice: {_HUGE_SHOWN}"),
            ([], "the following arguments are required: command"),
        ]
    ],
)
def test_cli_malformed_arguments_exit_2_with_one_error_line(tmp_path, capsys, argv, message):
    z6 = tmp_path / "z6.json"
    dump_structure(cyclic_group(6), z6, name="z6")
    out = tmp_path / "x.json"
    argv = [str(z6) if arg == "Z6" else arg for arg in argv]
    if argv[:1] == ["gen"]:
        argv += ["-o", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses before any command runs
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0]) <= 200
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_cli_boolean_coproduct_over_the_cell_bound_exits_2(tmp_path, capsys):
    files = []
    for atoms in ("3", "4"):
        path = tmp_path / f"ba{atoms}.json"
        assert main(["gen", "powerset_boolean_algebra", atoms, "-o", str(path)]) == 0
        files += ["-s", str(path)]
    out = tmp_path / "cop.json"
    argv = ["coproduct", *files, "--category", "boolean_algebra", "-o", str(out)]
    assert main(argv) == 2
    assert "1048576 cells" in capsys.readouterr().err
    assert not out.exists()


def test_cli_vector_space_category_inference(tmp_path):
    f3 = tmp_path / "f3.json"
    run_cli("gen", "vector_space", "3", "1", "-o", f3)
    cop = tmp_path / "f3f3.json"
    r = run_cli("coproduct", "-s", f3, "-s", f3, "--category", "vector_space", "-o", cop)
    assert r.returncode == 0, r.stderr
    loaded, _ = load_structure(cop)
    assert loaded.size == 9


@pytest.mark.parametrize("p", [101, 1021])
def test_vector_spaces_above_p_100_survive_dump_and_load(tmp_path, p):
    # the scalar names are padded, so files list them in signature order
    line = vector_space(p, 1)
    path = tmp_path / f"f{p}.json"
    dump_structure(line, path, name="line")
    loaded, _ = load_structure(path)
    assert loaded == line and is_vector_space(loaded, p)
    # coproduct infers p from the file, and then refuses F_p + F_p on its size
    out = tmp_path / "cop.json"
    r = run_cli("coproduct", "-s", path, "-s", path, "--category", "vector_space", "-o", out)
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert f"error: the product would have {p * p} elements" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "params",
    [
        ["vector_space", str(10**18 + 3), "1"],
        ["vector_space", str(10**400 + 1), "1"],
        ["vector_space", "2", str(10**9)],
        ["powerset_boolean_algebra", str(10**9)],
    ],
    ids=["p1e18", "p401digits", "dim1e9", "atoms1e9"],
)
def test_cli_gen_with_huge_parameters_exits_2_at_once(tmp_path, params):
    # the cell bound refuses before primality, the signature or any power
    out = tmp_path / "x.json"
    try:
        r = subprocess.run(
            [sys.executable, "-m", "algindep.cli", "gen", *params, "-o", str(out)],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"gen {params[0]} did not exit within 30 s")
    assert r.returncode == 2 and "Traceback" not in r.stderr
    errors = [line for line in r.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0]) <= 200
    assert "over the bound of" in errors[0]
    assert not out.exists()


GOLDEN_Z3 = """{
  "labels": [
    "0",
    "1",
    "2"
  ],
  "name": "cyclic_group",
  "ops": [
    {
      "arity": 0,
      "name": "e",
      "table": [
        0
      ]
    },
    {
      "arity": 1,
      "name": "inv",
      "table": [
        0,
        2,
        1
      ]
    },
    {
      "arity": 2,
      "name": "mul",
      "table": [
        0,
        1,
        2,
        1,
        2,
        0,
        2,
        0,
        1
      ]
    }
  ],
  "rels": [],
  "size": 3
}
"""


def test_golden_structure_file(tmp_path):
    path = tmp_path / "z3.json"
    dump_structure(cyclic_group(3), path, name="cyclic_group")
    assert path.read_text() == GOLDEN_Z3
    loaded, _ = load_structure(path)
    assert loaded == cyclic_group(3)


def test_structure_files_are_canonical(tmp_path):
    out = tmp_path / "g.json"
    run_cli("gen", "graph", "3", "1-2,0-1", "-o", out)
    doc = json.loads(out.read_text())
    assert doc["rels"][0]["tuples"] == [[0, 1], [1, 2]]
    assert out.read_text() == canonical_json(doc)
