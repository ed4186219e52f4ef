import json
import time

from clgeom.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_bounds_paper_example(capsys):
    rc, out, _ = run(capsys, "bounds", "-n", "8", "-k", "1", "-q", "7")
    assert rc == 0
    assert "840700.125" in out
    line = next(l for l in out.splitlines() if l.startswith("improved-lift"))
    assert abs(float(line.split()[1]) - 5476.998) < 0.5
    line = next(l for l in out.splitlines()
                if l.startswith("hyperplane-average"))
    assert abs(float(line.split()[1]) - 5482.9585) < 0.5


def test_bounds_rounds_down(capsys):
    # improved-lift for PG(8,7) k=1 is 5476.99761790...
    rc, out, _ = run(capsys, "bounds", "-n", "8", "-k", "1", "-q", "7")
    line = next(l for l in out.splitlines() if l.startswith("improved-lift"))
    assert rc == 0 and line.split()[1] == "5476.997617"


def test_bounds_guard_not_met(capsys):
    rc, out, _ = run(capsys, "bounds", "-n", "3", "-k", "1", "-q", "2")
    assert rc == 0
    assert "guard not met" in out
    assert any(l.startswith("ihringer") and "guard not met" not in l
               for l in out.splitlines())


def test_sieve_json_and_schema(capsys, tmp_path):
    import jsonschema
    from importlib import resources
    path = tmp_path / "r.json"
    rc, _, _ = run(capsys, "sieve", "--space", "pg", "-n", "3", "-k", "1",
                   "-q", "3", "--json", str(path))
    assert rc == 0
    d = json.loads(path.read_text())
    schema = json.loads(resources.files("clgeom")
                        .joinpath("schemas/report.schema.json").read_text())
    jsonschema.validate(d, schema)
    by_x = {e["x"]: e for e in d["entries"]}
    assert by_x[3]["status"] == "EXCLUDED"
    assert by_x[5]["status"] == "OPEN"


def test_sieve_csv_stdout(capsys):
    rc, out, _ = run(capsys, "sieve", "--space", "ag", "-n", "3", "-k", "1",
                     "-q", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,status,rules"
    assert "2,EXCLUDED,affine-modular" in lines


def test_construct_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "f.json"
    rc, _, _ = run(capsys, "construct", "--kind", "point-pencil", "--space",
                   "pg", "-n", "3", "-k", "1", "-q", "2", "-o", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(path), "--checks",
                     "cl,disjoint,spread")
    assert rc == 0
    assert out.count("pass") == 3
    # byte-identical member list after a write-read-write cycle
    from clgeom.clcore import load_family, save_family
    fam = load_family(str(path))
    path2 = tmp_path / "f2.json"
    save_family(fam, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_verify_corrupted_family_exits_1(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "construct", "--kind", "point-pencil", "--space", "pg",
        "-n", "3", "-k", "1", "-q", "2", "-o", str(path))
    d = json.loads(path.read_text())
    # swap one member for a line avoiding the anchor point
    d["members"][0] = [[0, 1, 0, 0], [0, 0, 1, 0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    rc, out, err = run(capsys, "verify", str(bad), "--checks", "cl,disjoint")
    assert rc == 1
    assert "FAIL" in out
    assert "K=" in err  # violating spaces listed on stderr


def test_verify_default_checks_and_json(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "construct", "--kind", "hyperplane-class", "--space", "pg",
        "-n", "3", "-k", "1", "-q", "2", "-o", str(path))
    report = tmp_path / "v.json"
    rc, out, _ = run(capsys, "verify", str(path), "--json", str(report))
    assert rc == 0
    d = json.loads(report.read_text())
    assert all(r["ok"] for r in d["results"])
    assert {"cl", "disjoint", "profile", "spread", "drudge", "aid"} >= \
        {r["check"] for r in d["results"]}


def test_verify_drudge_needs_n_at_least_k_plus_2(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "construct", "--kind", "point-pencil", "--space", "pg",
        "-n", "2", "-k", "1", "-q", "3", "-o", str(path))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "cl" in out and "drudge" not in out
    rc, _, err = run(capsys, "verify", str(path), "--checks", "drudge")
    assert rc == 2
    assert "drudge" in err


def test_project_command(capsys, tmp_path):
    path = tmp_path / "pen.json"
    run(capsys, "construct", "--kind", "point-pencil", "--space", "pg",
        "-n", "5", "-k", "2", "-q", "2", "--point", "0,1,0,0,0,0",
        "-o", str(path))
    out_path = tmp_path / "img.json"
    rc, out, _ = run(capsys, "project", str(path), "--pi",
                     "[[1,0,0,0,0,0]]", "-o", str(out_path))
    assert rc == 0
    rc, _, _ = run(capsys, "verify", str(out_path), "--checks", "cl")
    assert rc == 0
    d = json.loads(out_path.read_text())
    assert d["n"] == 4 and d["k"] == 1 and len(d["members"]) == 15


def test_project_rejects_non_rref(capsys, tmp_path):
    path = tmp_path / "pen.json"
    run(capsys, "construct", "--kind", "point-pencil", "--space", "pg",
        "-n", "3", "-k", "1", "-q", "2", "-o", str(path))
    rc, _, err = run(capsys, "project", str(path), "--pi", "[[0,0,0,2]]")
    assert rc == 2
    assert "error" in err


def test_enumerate(capsys):
    rc, out, _ = run(capsys, "enumerate", "--space", "pg", "-n", "3", "-k",
                     "1", "-q", "2", "--count-only")
    assert rc == 0 and out.strip() == "35"
    rc, out, _ = run(capsys, "enumerate", "--space", "ag", "-n", "3", "-k",
                     "1", "-q", "2")
    rows = [json.loads(l) for l in out.splitlines()]
    assert len(rows) == 28


def test_usage_errors(capsys):
    rc, _, _ = run(capsys, "sieve", "--space", "pg", "-n", "3", "-k", "1",
                   "-q", "6")
    assert rc == 2
    rc, _, _ = run(capsys, "verify", "/nonexistent/family.json")
    assert rc == 2
    rc, _, _ = run(capsys, "verify", __file__, "--checks", "nonsense")
    assert rc == 2


def test_sieve_rejects_negative_x(capsys):
    # PG(3,7) has the gm congruence and PG(8,7) has none; both must refuse
    for n in ("3", "8"):
        rc, out, err = run(capsys, "sieve", "-n", n, "-k", "1", "-q", "7",
                           "--x-min", "-3", "--x-max", "2")
        assert rc == 2 and out == ""
        assert "x must be nonnegative" in err


def test_construct_verify_write_nothing_under_home(capsys, tmp_path,
                                                   monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("CLGEOM_CACHE", raising=False)
    path = tmp_path / "f.json"
    rc, _, _ = run(capsys, "construct", "--space", "pg", "-n", "3", "-k", "1",
                   "-q", "5", "--kind", "point-pencil", "-o", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0 and "FAIL" not in out
    assert list(home.iterdir()) == []


def test_construct_and_cl_build_no_dense_incidence(capsys, tmp_path,
                                                  monkeypatch):
    from clgeom.geometry import Geometry

    def refuse(self, k):
        raise AssertionError("dense incidence built")

    monkeypatch.setattr(Geometry, "incidence", refuse)
    for kind in ("point-pencil", "pencil-plus-hyperplane"):
        path = tmp_path / f"{kind}.json"
        rc, _, _ = run(capsys, "construct", "--space", "pg", "-n", "4", "-k",
                       "1", "-q", "3", "--kind", kind, "--point", "1,0,0,0,0",
                       "-o", str(path))
        assert rc == 0
        rc, out, _ = run(capsys, "verify", str(path), "--checks", "cl")
        assert rc == 0 and out.split() == ["cl", "pass"]


def test_verify_rejects_too_many_points(capsys, tmp_path):
    """A one-block family with k = n passes the subspace cap; its 2^31 - 1
    points must not be enumerated."""
    path = tmp_path / "f.json"
    identity = [[int(i == j) for j in range(31)] for i in range(31)]
    path.write_text(json.dumps({"space": "PG", "p": 2, "h": 1, "n": 30,
                                "k": 30, "members": [identity]}))
    t0 = time.perf_counter()
    rc, _, err = run(capsys, "verify", str(path), "--checks", "cl")
    assert rc == 2 and "exceeds cap" in err
    assert time.perf_counter() - t0 < 1.0


def test_no_cache_flag_is_gone(capsys):
    rc, out, _ = run(capsys, "--no-cache", "enumerate", "--space", "pg",
                     "-n", "2", "-k", "1", "-q", "3")
    assert rc == 2 and out == ""


def test_precision_must_be_positive(capsys):
    for bad in ("0", "-5", "ten"):
        rc, out, _ = run(capsys, "--precision", bad, "bounds", "-n", "8",
                         "-k", "1", "-q", "7")
        assert rc == 2 and out == ""
    rc, out, _ = run(capsys, "--precision", "5", "bounds", "-n", "8", "-k",
                     "1", "-q", "7")
    assert rc == 0
    assert "evaluated at 5 decimal digits" in out


def test_verify_rejects_bad_family_header(capsys, tmp_path):
    path = tmp_path / "f.json"
    rc, _, _ = run(capsys, "construct", "--kind", "point-pencil", "-n", "3",
                   "-k", "1", "-q", "2", "-o", str(path))
    assert rc == 0
    good = json.loads(path.read_text())
    for key, value in (("h", 10 ** 6), ("p", 4), ("k", True), ("n", "3")):
        bad = dict(good, **{key: value})
        path.write_text(json.dumps(bad))
        rc, out, err = run(capsys, "verify", str(path), "--checks", "cl")
        assert rc == 2, (key, value)
        assert "error:" in err
    bad = json.loads(json.dumps(good))
    bad["members"][0][0][-1] = True
    path.write_text(json.dumps(bad))
    rc, _, _ = run(capsys, "verify", str(path), "--checks", "cl")
    assert rc == 2


def test_version_matches_pyproject():
    import re
    from pathlib import Path

    import clgeom
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert clgeom.__version__ == version == "0.1.0"
