import json
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from clgeom.cli import main
from clgeom.geometry import geometry


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
    # rational rows too, with their exact value
    line = next(l for l in out.splitlines() if l.startswith("ihringer"))
    assert line.split()[1:] == ["17157.142857", "(exact", "120100/7)"]


# (k, q, n) of the bound grid, as in test_sieve.py
GRID = [(k, q, n) for k in (1, 2, 3)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32)
        for n in range(3 * k + 2, 3 * k + 30)]


def test_bounds_decimals_bracket_the_bound_on_grid(capsys):
    from fractions import Fraction

    from clgeom.sieve import (_root_below, classification_threshold,
                              hyperplane_average_bound, improved_lift_bound,
                              step_factor)
    micro = Fraction(1, 10 ** 6)
    rows = 0
    for k, q, n in GRID:
        rc, out, _ = run(capsys, "bounds", "-n", str(n), "-k", str(k),
                         "-q", str(q))
        assert rc == 0
        exact = {"c-threshold": lambda: classification_threshold(n, k, q),
                 "step-factor": lambda: step_factor(k, q),
                 "improved-lift": lambda: improved_lift_bound(n, k, q),
                 "hyperplane-average":
                     lambda: hyperplane_average_bound(n, k, q)}
        for line in out.splitlines():
            if line.endswith("(rounded down)"):
                name, d = line.split()[:2]
                bound = exact[name]()
                # d <= bound < d + 10^-6; the bound is irrational
                low, high = Fraction(d), Fraction(d) + micro
                assert _root_below(low.numerator, low.denominator,
                                   bound), line
                assert not _root_below(high.numerator, high.denominator,
                                       bound), line
                rows += 1
    assert rows == 3924


def test_bounds_guard_not_met(capsys):
    rc, out, _ = run(capsys, "bounds", "-n", "3", "-k", "1", "-q", "2")
    assert rc == 0
    assert "guard not met" in out
    assert any(l.startswith("ihringer") and "guard not met" not in l
               for l in out.splitlines())


# sha256 of the output of `bounds` on every 4th entry of GRID, in order
BOUNDS_DIGEST = ("1c5a0d815c1c44a44d6ea1003518a3c2"
                 "4d171255771a63ba6896b7a9d5512cad")


def test_bounds_output_pinned_by_digest(capsys):
    import hashlib

    h = hashlib.sha256()
    for k, q, n in GRID[::4]:
        rc, out, _ = run(capsys, "bounds", "-n", str(n), "-k", str(k),
                         "-q", str(q))
        assert rc == 0
        h.update(out.encode())
    assert h.hexdigest() == BOUNDS_DIGEST


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


@pytest.mark.parametrize("pi", ["[[7,0,0,0]]", "[[true,0,0,0]]", "[[1,0,0]]",
                                '{"a":1}', "[[1.5,0,0,0]]"])
def test_project_rejects_malformed_pi(capsys, tmp_path, pi):
    path = tmp_path / "pen.json"
    run(capsys, "construct", "--kind", "point-pencil", "--space", "pg",
        "-n", "3", "-k", "1", "-q", "2", "-o", str(path))
    out_path = tmp_path / "img.json"
    rc, _, err = run(capsys, "project", str(path), "--pi", pi,
                     "-o", str(out_path))
    assert rc == 2
    assert err.startswith("error: --pi: ") and "Traceback" not in err
    assert not out_path.exists()


def test_drudge_draws_i_spaces_through_the_point():
    from clgeom.cli import _draw_flag
    from clgeom.geometry import geometry

    rng = random.Random(3)
    for n, q, k in [(4, 2, 1), (3, 3, 0), (5, 2, 2), (3, 4, 1), (4, 3, 0)]:
        geom = geometry("PG", n, q)
        for _ in range(50):
            i = rng.choice(range(k + 1, n))
            p, tau = _draw_flag(geom, i, rng)
            assert k + 1 <= tau.k == i <= n - 1
            assert geom.subspace_index(i, [tau.mat])[0] >= 0
            assert p in geom.points_of(tau).tolist()


def test_drudge_draw_hits_every_plane_of_pg32():
    from clgeom.cli import _draw_flag
    from clgeom.geometry import geometry

    geom = geometry("PG", 3, 2)
    rng = random.Random(7)
    taus = [_draw_flag(geom, 2, rng)[1].mat for _ in range(2000)]
    assert set(geom.subspace_index(2, taus).tolist()) == set(range(15))


def test_verify_drudge_fails_a_non_cl_family(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "construct", "--kind", "point-pencil", "-n", "4", "-k", "1",
        "-q", "2", "-o", str(path))
    d = json.loads(path.read_text())
    # swap one member for a line avoiding the anchor point
    d["members"][0] = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]
    path.write_text(json.dumps(d))
    report = tmp_path / "v.json"
    rc, out, _ = run(capsys, "verify", str(path), "--checks", "drudge",
                     "--seed", "11", "--json", str(report))
    assert rc == 1 and out.split() == ["drudge", "FAIL"]
    (result,) = json.loads(report.read_text())["results"]
    assert not result["ok"] and result["violations"]


def test_default_verify_of_a_pg_3_32_point_family(capsys, tmp_path):
    """drudge draws lines and planes through a point without enumerating
    a level: PG(3,32) has 1,083,425 lines, past SUBSPACE_CAP."""
    path = tmp_path / "f.json"
    rc, _, _ = run(capsys, "construct", "--kind", "point-pencil", "-n", "3",
                   "-k", "0", "-q", "32", "-o", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 0 and err == ""
    assert "drudge       pass" in out.splitlines()


@pytest.mark.parametrize("checks", [",", "", " , "])
def test_verify_checks_naming_no_check_exits_2(capsys, tmp_path, checks):
    path = tmp_path / "f.json"
    run(capsys, "construct", "--kind", "point-pencil", "-n", "3", "-k", "1",
        "-q", "2", "-o", str(path))
    rc, out, err = run(capsys, "verify", str(path), "--checks", checks)
    assert rc == 2 and out == ""
    assert err.startswith("error: --checks names no check")


def test_enumerate(capsys):
    rc, out, _ = run(capsys, "enumerate", "--space", "pg", "-n", "3", "-k",
                     "1", "-q", "2", "--count-only")
    assert rc == 0 and out.strip() == "35"
    rc, out, _ = run(capsys, "enumerate", "--space", "ag", "-n", "3", "-k",
                     "1", "-q", "2")
    rows = [json.loads(l) for l in out.splitlines()]
    assert len(rows) == 28


@pytest.mark.parametrize("space,n,q", [("pg", 3, 2), ("pg", 2, 4),
                                        ("ag", 3, 3)])
def test_enumerate_prints_json_of_each_matrix(capsys, space, n, q):
    """One json.dumps line per k-space, byte for byte, in level order."""
    rc, out, _ = run(capsys, "enumerate", "--space", space, "-n", str(n),
                     "-k", "1", "-q", str(q))
    codes = geometry(space.upper(), n, q).subspaces(1).codes
    assert rc == 0
    assert out == "".join(json.dumps(m) + "\n" for m in codes.tolist())
    rc, out, _ = run(capsys, "enumerate", "--space", space, "-n", str(n),
                     "-k", "1", "-q", str(q), "--count-only")
    assert rc == 0 and out == f"{len(codes)}\n"


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


def test_precision_flag_is_gone(capsys):
    rc, out, _ = run(capsys, "--precision", "5", "bounds", "-n", "8", "-k",
                     "1", "-q", "7")
    assert rc == 2 and out == ""


@pytest.mark.parametrize("command", ["bounds", "sieve"])
@pytest.mark.parametrize("k", ["-1", "5"])
def test_bounds_and_sieve_need_k_between_0_and_n(capsys, command, k):
    argv = [command, "-n", "3", "-k", k, "-q", "2"]
    if command == "sieve":
        argv += ["--x-min", "0"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "0 < k < n" in err


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 9])
@pytest.mark.parametrize("command", ["verify", "enumerate", "construct"])
def test_huge_n_refused_before_any_power(capsys, tmp_path, command, n):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"space": "PG", "p": 2, "h": 1, "n": n,
                                "k": 0, "members": []}))
    argv = {"verify": ["verify", str(path)],
            "enumerate": ["enumerate", "-n", str(n), "-k", "0", "-q", "2",
                          "--count-only"],
            "construct": ["construct", "-n", str(n), "-k", "1", "-q", "2",
                          "--kind", "hyperplane-class"]}[command]
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "exceeds cap" in err
    assert time.perf_counter() - t0 < 1.0


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


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 9])
@pytest.mark.parametrize("command", ["bounds", "sieve"])
def test_bounds_and_sieve_refuse_huge_n_from_exponents(capsys, command, n):
    argv = [command, "-n", str(n), "-k", "1", "-q", "2"]
    if command == "sieve":
        argv += ["--x-min", "0", "--x-max", "3"]
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: config PG,") and "too large" in err
    assert time.perf_counter() - t0 < 1.0


class _Late(Exception):
    pass


@contextmanager
def _deadline(seconds):
    """Raise _Late in the body once `seconds` of wall time have passed, so
    that a slow route fails the test instead of hanging it."""
    def expire(signum, frame):
        raise _Late(f"over {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_bounds_answers_a_prime_near_1e14_fast(capsys):
    # 100000000000031 has no factor up to 2^20, so Miller-Rabin decides it
    with _deadline(0.5):
        rc, out, _ = run(capsys, "bounds", "-n", "3", "-k", "1",
                         "-q", "100000000000031")
    assert rc == 0 and out.startswith("X_max = ")


def test_bounds_refuses_a_30_digit_prime_fast(capsys):
    # past 3.3e24 the Miller-Rabin bases prove nothing, so q is refused
    with _deadline(1.0):
        rc, out, err = run(capsys, "bounds", "-n", "3", "-k", "1",
                           "-q", str(10 ** 29 + 319))
    assert rc == 2 and out == ""
    assert "cannot decide" in err


# sha256 of the stdout of `bounds` and of `sieve --x-min 0 --x-max 100` at
# the largest configs that check_config accepts for q = 3 and q = 7, where
# C^8 runs to about 1.5 million bits
LARGEST_DIGESTS = {
    ("bounds", 2047, 681, 3):
        "9ad62c6e0208ea66ce953e03d725a676a03cac94f62e327355e28631fee28dc4",
    ("sieve", 2047, 681, 3):
        "4264d1d4696d34cfe2e3789486d0ce8a5b1e9a49537a23e1eb21e0daa38d5d77",
    ("bounds", 1364, 400, 7):
        "890c25c7829bb2867ee5dc001c350c06b17e4a161c522dab1276218379b502b4",
    ("sieve", 1364, 400, 7):
        "31673afcbc55776bfd76c988244697bfb4a838c9b59ca3ba13f61d80256130cd",
}


@pytest.mark.parametrize("command,n,k,q", sorted(LARGEST_DIGESTS))
def test_bounds_and_sieve_at_the_largest_configs(capsys, command, n, k, q):
    import hashlib

    argv = [command, "-n", str(n), "-k", str(k), "-q", str(q)]
    if command == "sieve":
        argv += ["--space", "pg", "--x-min", "0", "--x-max", "100"]
    with _deadline(3.0):
        rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        LARGEST_DIGESTS[command, n, k, q]


@pytest.mark.parametrize("n,q,x_min", [(3, 2039, 0), (3, 2039, 2000000),
                                       (7, 1021, 0), (7, 1021, 31185077698)])
def test_sieve_window_at_large_q_matches_direct_rules(capsys, n, q, x_min):
    # gm-modular (n = 3) and lines-modular (n = 7) are read only at the
    # residues of the window's x, not at all 2(q+1) of them
    # improved-lift ends at 31185077703, inside the last window
    from oracles import direct_entry

    with _deadline(0.5):
        rc, out, _ = run(capsys, "sieve", "--space", "pg", "-n", str(n),
                         "-k", "1", "-q", str(q), "--x-min", str(x_min),
                         "--x-max", str(x_min + 10))
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(x) for x, _, _ in rows] == list(range(x_min, x_min + 11))
    for x, status, rules in rows:
        got = status, rules.split(";") if rules else []
        assert got == direct_entry("PG", n, 1, q, int(x)), x


def test_benchmark_tracer_hooks_install(tmp_path):
    """The benchmark's tracer imports clgeom.linalg and wraps library names
    that no library route uses: install it, run construct then verify
    --checks cl through it, and uninstall, in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    path = str(tmp_path / "pencil.json")
    code = ("import sys\n"
            "from tracer import Tracer, install_clgeom\n"
            "tracer = Tracer()\n"
            "install_clgeom(tracer)\n"
            "cli = sys.modules['clgeom.cli']\n"
            "assert cli.main(['construct', '-n', '3', '-k', '1', '-q', '2', "
            f"'--kind', 'point-pencil', '-o', {path!r}]) == 0\n"
            f"assert cli.main(['verify', {path!r}, '--checks', 'cl']) == 0\n"
            "tracer.uninstall()\n"
            "print(tracer.calls['cli.main'], cli.main.__name__)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "2 main"


def test_benchmark_workloads_run_tiny():
    """Every benchmark workload, on its tiny inputs, runs the library
    (verify-batch also builds families from Python sets, enumerate-cache
    reads incidence, point_masks and points, sieve-sweep passes dps=) and
    finds every answer right, so a break in a name the benchmark calls
    shows here first."""
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for workload in ("verify-batch", "decide-cold", "enumerate-cache",
                     "sieve-sweep"):
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", workload, "--tiny",
             "--seed", "1", "--seconds", "1"],
            capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, workload
