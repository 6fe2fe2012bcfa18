import json
import os
import subprocess
import sys
import time

import pytest

from pdmetric import cli


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def halfplane_pair(tmp_path):
    a = write(tmp_path, "a.json", {
        "space": "halfplane",
        "atoms": [[[0.0, 2.0], 1], [[3.0, 4.0], 2]],
    })
    b = write(tmp_path, "b.json", {
        "space": "halfplane",
        "atoms": [[[0.0, 4.0], 1]],
    })
    return a, b


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance_bottleneck(capsys, halfplane_pair):
    a, b = halfplane_pair
    code, out, _ = run(capsys, ["distance", a, b, "--space", "halfplane"])
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == "halfplane"
    assert payload["p"] == "inf"
    assert payload["value"] == 2.0


def test_distance_w1_with_matching_and_certificate(capsys, halfplane_pair):
    a, b = halfplane_pair
    code, out, _ = run(capsys, [
        "distance", a, b, "--space", "halfplane", "--p", "1",
        "--matching", "--certificate",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3.0
    assert payload["matching"]["total"] == 3.0
    assert len(payload["matching"]["pairs"]) == 3
    cert = payload["certificate"]
    assert cert["primal"] == 3.0
    assert abs(cert["dual"] - 3.0) <= 1e-8
    assert "y" in cert and "h" in cert


def test_distance_identical_files_is_zero(capsys, halfplane_pair):
    a, _ = halfplane_pair
    code, out, _ = run(capsys, ["distance", a, a, "--space", "halfplane", "--p", "2"])
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_certificate_at_large_scale_with_repeated_atoms(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"space": "halfplane", "atoms": [
        [[1968036246193.694, 3949521902274.6357], 1],
        [[3184864608495.7383, 5951556766155.352], 1]]})
    b = write(tmp_path, "b.json", {"space": "halfplane", "atoms": [
        [[3142242509910.704, 7991462364095.767], 3],
        [[4039718667238.3516, 8840968972836.002], 1],
        [[4906105290740.795, 6316983889511.643], 1]]})
    code, out, err = run(capsys, [
        "distance", a, b, "--space", "halfplane", "--q", "2", "--p", "1", "--certificate"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["certificate"]["primal"] == payload["value"]


def test_certificate_requires_p_one(capsys, halfplane_pair):
    a, b = halfplane_pair
    code, _, err = run(capsys, [
        "distance", a, b, "--space", "halfplane", "--p", "2", "--certificate",
    ])
    assert code == 3
    assert "p = 1" in err


def test_certificate_over_a_non_metric_finite_space_is_domain_error(capsys, tmp_path):
    # d(a, b) = 0 but d(o, a) = 2 > d(o, b) + d(b, a) = 1: the potentials
    # disagree on the coincident atom b.
    spec = write(tmp_path, "space.json", {
        "id": "finite", "labels": ["o", "a", "b"],
        "matrix": [[0, 2, 1], [2, 0, 0], [1, 0, 0]], "basepoint": "o"})
    a = write(tmp_path, "a.json", {"space": "finite", "atoms": [["a", 3], ["b", 1]]})
    b = write(tmp_path, "b.json", {"space": "finite", "atoms": [["b", 1]]})
    code, out, err = run(capsys, [
        "distance", a, b, "--space-file", spec, "--p", "1", "--certificate"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'b'" in err and "triangle inequality" in err


def test_distance_missing_file(capsys, tmp_path, halfplane_pair):
    a, _ = halfplane_pair
    code, _, err = run(capsys, [
        "distance", a, str(tmp_path / "nope.json"), "--space", "halfplane",
    ])
    assert code == 2
    assert "error:" in err


def test_distance_malformed_json(capsys, tmp_path, halfplane_pair):
    a, _ = halfplane_pair
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["distance", a, str(bad), "--space", "halfplane"])
    assert code == 2


def test_distance_malformed_payload(capsys, tmp_path, halfplane_pair):
    a, _ = halfplane_pair
    bad = write(tmp_path, "bad.json", {"atoms": [[[0.0], 1]]})
    code, _, err = run(capsys, ["distance", a, bad, "--space", "halfplane"])
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("count", [2.5, True])
def test_distance_non_integral_multiplicity(capsys, tmp_path, halfplane_pair, count):
    a, _ = halfplane_pair
    bad = write(tmp_path, "bad.json", {"space": "halfplane", "atoms": [[[0, 2], count]]})
    code, out, err = run(capsys, ["distance", a, bad, "--space", "halfplane", "--p", "1",
                                  "--matching"])
    assert code == 2
    assert out == ""
    assert "malformed" in err


def test_distance_space_mismatch(capsys, tmp_path, halfplane_pair):
    a, _ = halfplane_pair
    other = write(tmp_path, "other.json", {"space": "anagram", "atoms": []})
    code, _, err = run(capsys, ["distance", a, other, "--space", "halfplane"])
    assert code == 3


def test_distance_requires_space(capsys, halfplane_pair):
    a, b = halfplane_pair
    code, _, err = run(capsys, ["distance", a, b])
    assert code == 3
    assert "--space" in err


def test_distance_anagram_literals(capsys):
    code, out, _ = run(capsys, [
        "distance", "listen", "silent", "--space", "anagram", "--p", "1",
    ])
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_distance_space_file(capsys, tmp_path, halfplane_pair):
    a, b = halfplane_pair
    spec = write(tmp_path, "space.json", {"id": "halfplane", "q": 2, "p": 1})
    code, out, _ = run(capsys, ["distance", a, b, "--space-file", spec, "--p", "1"])
    assert code == 0
    assert json.loads(out)["space"] == "halfplane"


def test_space_file_id_conflict(capsys, tmp_path, halfplane_pair):
    a, b = halfplane_pair
    spec = write(tmp_path, "space.json", {"id": "intervals"})
    code, _, err = run(capsys, [
        "distance", a, b, "--space", "halfplane", "--space-file", spec,
    ])
    assert code == 3
    assert "conflicts" in err


def test_anagram_command(capsys):
    code, out, _ = run(capsys, ["anagram", "listen", "silent"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, ["anagram", "kitten", "sitting"])
    assert code == 0 and out.strip() == "3"


def test_anagram_bad_character(capsys):
    code, _, err = run(capsys, ["anagram", "abc", "ab!"])
    assert code == 3
    assert "alphabet" in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "padding", "--samples", "20"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "padding"
    assert report["passed"] is True
    assert all(check["status"] == "pass" for check in report["checks"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "nonsense"])
    assert code == 2


def test_verify_deterministic(capsys):
    argv = ["verify", "--suite", "subadditivity", "--samples", "25", "--seed", "7"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert json.loads(first)["seed"] == 7


def test_verify_reads_no_seed_from_the_environment(capsys, monkeypatch):
    # A report depends only on the suite, the seed and the samples.
    monkeypatch.setenv("PDMETRIC_SEED", "424242")
    code, out, _ = run(capsys, ["verify", "--suite", "padding", "--samples", "10"])
    assert code == 0
    assert json.loads(out)["seed"] == 20177


@pytest.mark.parametrize("flags", [[], ["--matching"], ["--certificate"]],
                         ids=["bare", "matching", "certificate"])
def test_unhashable_stargraph_identity_is_domain_error(capsys, tmp_path, flags):
    a = write(tmp_path, "a.json", {"atoms": [[[1], 1]]})
    e = write(tmp_path, "e.json", {"atoms": []})
    code, out, err = run(capsys, [
        "distance", a, e, "--space", "stargraph", "--generators", "[[1], [2]]",
        "--zero", "[[0]]", "--p", "1", *flags])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec, flags", [
    ({"id": "stargraph"}, []),
    ([1, 2], []),
    ({"id": "stargraph", "generators": 5}, []),
    ({"id": "halfplane", "q": [1]}, []),
    (None, ["--space", "stargraph", "--generators", "5"]),
], ids=["no-generators", "not-an-object", "int-generators", "list-q", "generators-flag"])
def test_malformed_space_spec_is_domain_error(capsys, tmp_path, halfplane_pair, spec, flags):
    if spec is not None:
        flags = ["--space-file", write(tmp_path, "space.json", spec)]
    code, _, err = run(capsys, ["distance", *halfplane_pair, *flags])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("extended", ["false", "true", 0, 1, None])
def test_halfplane_extended_must_be_boolean(capsys, tmp_path, extended):
    spec = write(tmp_path, "space.json", {"id": "halfplane", "q": 2, "p": 1,
                                          "extended": extended})
    a = write(tmp_path, "a.json", {"space": "halfplane", "atoms": [[[0, "inf"], 1]]})
    b = write(tmp_path, "b.json", {"space": "halfplane", "atoms": [[[0, 1], 1]]})
    code, out, err = run(capsys, ["distance", a, b, "--space-file", spec, "--p", "1"])
    assert (code, out) == (3, "")
    assert "malformed halfplane space spec" in err


@pytest.mark.parametrize("p", ["1", "2", "inf"])
def test_distance_nan_interval_endpoint(capsys, tmp_path, p):
    a = write(tmp_path, "a.json", {"space": "intervals", "atoms": [[[0, 1, True, True], 1]]})
    b = write(tmp_path, "b.json", {"space": "intervals", "atoms": [[[0, "nan", True, True], 1]]})
    code, out, err = run(capsys, ["distance", a, b, "--space", "intervals", "--p", p])
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("payload", [[1, 2], "str", 5])
def test_distance_payload_not_an_object(capsys, tmp_path, halfplane_pair, payload):
    a, _ = halfplane_pair
    bad = write(tmp_path, "bad.json", payload)
    code, out, err = run(capsys, ["distance", a, bad, "--space", "halfplane"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("closed", ["no", 1, None])
@pytest.mark.parametrize("side", [2, 3])
def test_distance_interval_closedness_must_be_boolean(capsys, tmp_path, closed, side):
    atom = [0, 1, True, False]
    atom[side] = closed
    a = write(tmp_path, "a.json", {"space": "intervals", "atoms": [[[0, 1, True, True], 1]]})
    b = write(tmp_path, "b.json", {"space": "intervals", "atoms": [[atom, 1]]})
    code, out, err = run(capsys, ["distance", a, b, "--space", "intervals"])
    assert (code, out) == (2, "")
    assert "malformed" in err


@pytest.mark.parametrize("space, atom, spec, expected", [
    ("halfplane", [[True, 2.0], 1], None, 2),
    ("halfplane", ["12", 1], None, 2),
    ("halfplane", [[1.0, 2.0, 99], 1], None, 2),
    ("intervals", [[False, 2.0, True, True], 1], None, 2),
    ("intervals", [[0.0, 2.0, True, True, "x"], 1], None, 2),
    ("halfplane", [[1.0, 2.0], 1], {"id": "halfplane", "q": True, "p": True}, 3),
    ("finite", ["a", 1], {"id": "finite", "labels": ["o", "a"], "basepoint": "o",
                          "matrix": [[0, True], [True, 0]]}, 3),
], ids=["bool-birth", "string-point", "three-coordinates", "bool-endpoint",
        "five-fields", "bool-exponents", "bool-matrix"])
def test_json_booleans_and_point_shapes_are_malformed(capsys, tmp_path, space, atom, spec,
                                                       expected):
    """A JSON boolean is not a number, and a point has its exact array shape."""
    good = {"halfplane": [[1.0, 2.0], 1], "intervals": [[0.0, 2.0, True, True], 1],
            "finite": ["a", 1]}[space]
    a = write(tmp_path, "a.json", {"space": space, "atoms": [atom]})
    b = write(tmp_path, "b.json", {"space": space, "atoms": [good]})
    flags = ["--space-file", write(tmp_path, "space.json", spec)] if spec else ["--space", space]
    code, out, err = run(capsys, ["distance", a, b, *flags, "--p", "1"])
    assert (code, out) == (expected, "")
    assert "malformed" in err and err.count("\n") == 1


@pytest.mark.parametrize("p", ["1", "2", "inf"])
def test_finite_space_nan_entry_is_named(capsys, tmp_path, p):
    spec = write(tmp_path, "space.json", {
        "id": "finite", "labels": ["o", "a", "b"], "basepoint": "o",
        "matrix": [[0, "nan", 1], ["nan", 0, 1], [1, 1, 0]],
    })
    a = write(tmp_path, "a.json", {"space": "finite", "atoms": [["a", 1]]})
    b = write(tmp_path, "b.json", {"space": "finite", "atoms": [["b", 1]]})
    code, out, err = run(capsys, ["distance", a, b, "--space-file", spec, "--p", p])
    assert (code, out) == (3, "")
    assert "NaN" in err


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_samples_below_one(capsys, samples):
    from pdmetric.verify import run_suite

    with pytest.raises(ValueError, match="samples"):
        run_suite("all", 1, samples)
    code, out, err = run(capsys, ["verify", "--suite", "all", "--samples", str(samples)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_spaces_list(capsys):
    code, out, _ = run(capsys, ["spaces", "list"])
    assert code == 0
    payload = json.loads(out)
    ids = [entry["id"] for entry in payload["spaces"]]
    assert ids == ["halfplane", "intervals", "anagram", "stargraph", "finite"]


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_size_guard_exit_code(capsys, tmp_path, halfplane_pair):
    # A multiplicity of 10^8 is refused as its count is read, before the
    # atom is expanded into a list of that length.
    a, _ = halfplane_pair
    huge = write(tmp_path, "huge.json", {"space": "halfplane", "atoms": [[[0, 1], 100000000]]})
    began = time.monotonic()
    code, out, err = run(capsys, ["distance", a, huge, "--space", "halfplane"])
    assert time.monotonic() - began < 1.0
    assert code == 4 and out == ""
    assert err.count("error:") == 1 and "at most 10000 atoms" in err


def test_distance_large_exponent_at_large_scale(capsys, tmp_path):
    # (2e10) ** 40 overflows a double; the solver works on scaled costs.
    a = write(tmp_path, "a.json", {"space": "halfplane", "atoms": [[[0.0, 2e10], 2]]})
    b = write(tmp_path, "b.json", {"space": "halfplane", "atoms": []})
    for extra in ([], ["--matching"]):
        code, out, err = run(capsys, ["distance", a, b, "--space", "halfplane",
                                      "--p", "40", *extra])
        assert code == 0, err
        assert json.loads(out)["value"] == pytest.approx(1e10 * 2.0 ** (1.0 / 40), rel=1e-9)


@pytest.mark.parametrize("extra", [[], ["--matching"], ["--certificate"],
                                   ["--matching", "--certificate"]])
def test_distance_w1_past_the_float_range_is_inf(capsys, tmp_path, extra):
    # Two atoms each 2^-0.5 * 2e308 from the diagonal: W_1 is their sum,
    # past the largest float, so it reads inf, as W_2 of the same data does.
    a = write(tmp_path, "a.json", {"space": "halfplane", "atoms": [[[-1e308, 1e308], 2]]})
    b = write(tmp_path, "b.json", {"space": "halfplane", "atoms": []})
    code, out, err = run(capsys, ["distance", a, b, "--space", "halfplane", "--q", "2",
                                  "--p", "1", *extra])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["value"] == "inf"
    if "--matching" in extra:
        assert payload["matching"]["total"] == "inf"
        assert [pair["cost"] for pair in payload["matching"]["pairs"]] == [1.41421356237e308] * 2
    if "--certificate" in extra:
        assert payload["certificate"]["primal"] == payload["certificate"]["dual"] == "inf"


def fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this pdmetric."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    return done.stdout.strip()


def test_cli_import_leaves_numpy_out():
    # The package has no runtime dependency, so importing the CLI loads no numpy.
    code = "import sys, pdmetric.cli; print('numpy' in sys.modules)"
    assert fresh_python(code) == "False"


@pytest.mark.parametrize("blocked", [True, False])
def test_oracle_runs_on_the_standard_library(blocked):
    # The brute-force oracle needs no numpy: with its import blocked the
    # oracle suite and a brute-force W_p still pass, and otherwise they
    # leave numpy unloaded.
    code = (
        ("import sys; sys.modules['numpy'] = None\n" if blocked else "import sys\n")
        + "from pdmetric import brute_force_wasserstein, run_suite, wasserstein_value\n"
        "from pdmetric.diagram import diagram_from_list\n"
        "from pdmetric.spaces import HalfPlaneSpace\n"
        "space = HalfPlaneSpace(2.0, 2.0)\n"
        "alpha = diagram_from_list([(0.0, 2.0), (1.0, 4.0), (3.0, 3.5), (0.5, 6.0)], space)\n"
        "beta = diagram_from_list([(0.0, 3.0), (2.0, 5.0), (1.0, 1.5)], space)\n"
        "brute = brute_force_wasserstein(alpha, beta, 2.0)\n"
        "print(run_suite('oracle', 7, 2)['passed'],\n"
        "      abs(brute - wasserstein_value(alpha, beta, 2.0)) <= 1e-12 * brute,\n"
        "      'numpy' in sys.modules and sys.modules['numpy'] is not None)\n"
    )
    assert fresh_python(code) == "True True False"


def test_cli_import_leaves_verify_out():
    # `pdmetric distance` needs neither the suites nor the universality checks;
    # the package still hands out their names, and its own `wasserstein`.
    code = (
        "import sys, pdmetric.cli\n"
        "print(sorted({'pdmetric.verify', 'pdmetric.universality'} & set(sys.modules)))\n"
        "import pdmetric\n"
        "from pdmetric import check_maximality, run_suite, wasserstein\n"
        "print(run_suite is pdmetric.verify.run_suite,\n"
        "      check_maximality is pdmetric.universality.check_maximality,\n"
        "      wasserstein is pdmetric.wasserstein_value.__globals__['wasserstein'])\n"
    )
    assert fresh_python(code).splitlines() == ["[]", "True True True"]


def test_root_exports_only_entry_points():
    # Every exported name resolves, the root stays a short list of entry points,
    # and importing it loads neither the suites, the universality checks nor numpy.
    code = (
        "import sys, pdmetric\n"
        "print(sorted({'pdmetric.verify', 'pdmetric.universality', 'numpy'} & set(sys.modules)))\n"
        "print(len(pdmetric.__all__), all(getattr(pdmetric, n) is not None for n in pdmetric.__all__))\n"
    )
    lines = fresh_python(code).splitlines()
    assert lines[0] == "[]"
    count, resolved = lines[1].split()
    assert int(count) <= 40 and resolved == "True"


@pytest.mark.parametrize("where", ["diagram", "space-file", "generators", "zero"])
def test_json_nested_past_the_recursion_limit_is_a_parse_error(capsys, tmp_path, halfplane_pair,
                                                              where):
    # Nesting too deep for the JSON parser is malformed input: exit 2 with
    # one error line, as at any depth it can parse, and no traceback.  That
    # holds for a file and for a flag's JSON value alike.
    nested = "[" * 1100 + "]" * 1100
    deep = tmp_path / "deep.json"
    deep.write_text(nested)
    a, b = halfplane_pair
    argv = {"diagram": [a, str(deep), "--space", "halfplane"],
            "space-file": [a, b, "--space-file", str(deep)]}.get(
                where, [a, b, "--space", "stargraph", f"--{where}", nested])
    code, out, err = run(capsys, ["distance", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
