import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from relaxcert.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"


def read_json(path):
    return json.loads(path.read_text())


def test_build_dim5_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    rc = run(["build", "dim5", "--out", str(out)])
    assert rc == 0
    data = read_json(out)
    assert len(data["system"]["rows"]) == 5
    assert data["provenance"]["eps"] == "1/8"
    captured = capsys.readouterr()
    assert '"provenance"' in captured.out

    rc = run(["verify", "--system", str(out), "--points", str(out), "--box=-2:3"])
    assert rc == 0


def test_build_outputs_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["build", "corollary", "--d", "7", "--out", str(first)]) == 0
    assert run(["build", "corollary", "--d", "7", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_build_xa_and_pipeline(tmp_path):
    out = tmp_path / "xa.json"
    assert run(["build", "xa", "--a", "2", "--out", str(out)]) == 0
    assert read_json(out)["provenance"]["a"] == 2

    out = tmp_path / "p2.json"
    mixed = tmp_path / "mixed.json"
    heights = tmp_path / "heights.json"
    rc = run(["build", "pipeline", "--k", "2", "--out", str(out),
              "--mixed-out", str(mixed), "--heights-out", str(heights)])
    assert rc == 0
    assert len(read_json(out)["system"]["rows"]) == 8

    rc = run(["certify-mixed", "--system", str(mixed), "--heights", str(heights)])
    assert rc == 0


def test_certify_mixed_from_dim5_artifacts(tmp_path):
    out = tmp_path / "dim5.json"
    mixed = tmp_path / "mixed.json"
    heights = tmp_path / "heights.json"
    cert = tmp_path / "cert.json"
    assert run(["build", "dim5", "--out", str(out), "--mixed-out", str(mixed),
                "--heights-out", str(heights)]) == 0
    assert run(["certify-mixed", "--system", str(mixed), "--heights", str(heights),
                "--out", str(cert)]) == 0
    data = read_json(cert)
    assert data["verdict"] == "certified"
    assert len(data["projection_points"]) == 6


def test_verify_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out)]) == 0
    data = read_json(out)
    data["target"]["points"] = data["target"]["points"][:-1]
    bad = tmp_path / "bad_points.json"
    bad.write_text(json.dumps(data))
    rc = run(["verify", "--system", str(out), "--points", str(bad), "--box=-2:3"])
    assert rc == 1
    assert "witness" in capsys.readouterr().err


def test_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--dmax", "12", "--out", str(out)]) == 0
    with open(out) as handle:
        rows = {int(r["d"]): r for r in csv.DictReader(handle)}
    assert rows[5]["best"] == "5"
    assert rows[11]["best"] == "10"


def test_cover_csv(tmp_path):
    out = tmp_path / "cover.csv"
    assert run(["cover", "--k", "3", "--out", str(out)]) == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["f_pi"] == "2" and rows[0]["f_b"] == "1"
    assert rows[0]["upper_total"] == "3"


def test_cover_random_method(tmp_path):
    out = tmp_path / "cover.csv"
    # (k, seed, f_pi, f_b): the randomized family, not the greedy one, and its seed
    for k, seed, f_pi, f_b in ((3, 7, 2, 3), (4, 0, 3, 5), (4, 7, 3, 7)):
        assert run(["cover", "--k", str(k), "--method", "random", "--seed", str(seed),
                    "--out", str(out)]) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert (rows[0]["f_pi"], rows[0]["f_b"]) == (str(f_pi), str(f_b))
        assert rows[0]["upper_total"] == str(f_pi + f_b)


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["build", "dim5", "--bogus-flag"]) == 2
    assert run(["bounds", "--dmax", "0"]) == 2
    capsys.readouterr()


def test_resource_error_exit_two(tmp_path, capsys):
    out = tmp_path / "c11.json"
    assert run(["build", "corollary", "--d", "11", "--out", str(out)]) == 0
    rc = run(["verify", "--system", str(out), "--points", str(out),
              "--box=-1:2", "--cap", "1000"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_build_corollary_honours_cap(tmp_path, capsys):
    # the cap bounds the box that certifies each dim-5 block, as for dim5, and the
    # pipeline's 2^k box; hitting it leaves the certificate partial, a resource error
    # and not a refutation
    out = tmp_path / "c11.json"
    for what in (["dim5"], ["corollary", "--d", "11"], ["pipeline", "--k", "4"]):
        assert run(["build", *what, "--cap", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above the cap of 10" in err
        assert not out.exists()
    # below d = 5 there is no block to certify
    assert run(["build", "corollary", "--d", "4", "--cap", "10", "--out", str(out)]) == 0


def test_partial_and_refuted_dim5_exit_codes(tmp_path, capsys):
    # a partial certificate exits 2 from build as from certify-mixed; a refuted one exits 1
    mixed, heights = tmp_path / "mixed.json", tmp_path / "heights.json"
    assert run(["build", "dim5", "--out", str(tmp_path / "dim5.json"), "--mixed-out",
                str(mixed), "--heights-out", str(heights)]) == 0
    assert run(["certify-mixed", "--system", str(mixed), "--heights", str(heights),
                "--cap", "10"]) == 2
    assert run(["build", "dim5", "--cap", "10", "--out", str(tmp_path / "d.json")]) == 2
    capsys.readouterr()
    assert run(["build", "dim5", "--eps", "1/2", "--out", str(tmp_path / "r.json")]) == 1
    assert "refuted (mixed-system)" in capsys.readouterr().err


def test_a_cap_below_one_exits_two(tmp_path, capsys):
    # refused up front, not read as a box "above the cap of -5"
    mixed, heights = tmp_path / "mixed.json", tmp_path / "heights.json"
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out), "--mixed-out", str(mixed),
                "--heights-out", str(heights)]) == 0
    capsys.readouterr()
    for command in (["certify-mixed", "--system", str(mixed), "--heights", str(heights)],
                    ["verify", "--system", str(out), "--points", str(out), "--box=-1:2"],
                    ["build", "dim5", "--out", str(tmp_path / "d.json")]):
        for cap in ("0", "-5"):
            assert run([*command, "--cap", cap]) == 2
            assert capsys.readouterr().err == f"error: cap must be at least 1, got {cap}\n"


def test_certify_mixed_reports_partial_and_refuted(tmp_path, capsys):
    mixed, heights = tmp_path / "mixed.json", tmp_path / "heights.json"
    assert run(["build", "dim5", "--out", str(tmp_path / "dim5.json"), "--mixed-out",
                str(mixed), "--heights-out", str(heights)]) == 0
    capsys.readouterr()
    certify = ["certify-mixed", "--system", str(mixed), "--heights", str(heights)]
    assert run([*certify, "--cap", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: mixed certificate of {mixed} is partial: box holds")
    data = read_json(mixed)
    del data["rows"][0]
    mixed.write_text(json.dumps(data))
    assert run(certify) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"refuted (mixed-system): mixed certificate of {mixed} failed: ")


def test_build_pipeline_has_no_eps(tmp_path, capsys):
    out = tmp_path / "p2.json"
    assert run(["build", "pipeline", "--k", "2", "--eps", "1/2", "--out", str(out)]) == 2
    assert "--eps" in capsys.readouterr().err and not out.exists()


def test_verify_jobs_below_one_exit_two(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out)]) == 0
    rc = run(["verify", "--system", str(out), "--points", str(out),
              "--box=-2:3", "--jobs", "0"])
    assert rc == 2
    assert "jobs" in capsys.readouterr().err


def test_malformed_eps_exit_two(tmp_path, capsys):
    for eps in ("abc", "1/0"):
        rc = run(["build", "dim5", "--eps", eps, "--out", str(tmp_path / "dim5.json")])
        assert rc == 2
        assert "not an exact rational" in capsys.readouterr().err
    assert not (tmp_path / "dim5.json").exists()


def test_malformed_radicand_exit_two(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    mixed = tmp_path / "mixed.json"
    heights = tmp_path / "heights.json"
    assert run(["build", "dim5", "--out", str(out), "--mixed-out", str(mixed),
                "--heights-out", str(heights)]) == 0
    for radicand in ("two", "2/0"):
        data = read_json(out)
        data["system"]["field"]["radicand"] = radicand
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run(["verify", "--system", str(bad), "--points", str(out),
                    "--box=-2:3"]) == 2
        data = read_json(mixed)
        data["field"]["radicand"] = radicand
        bad.write_text(json.dumps(data))
        assert run(["certify-mixed", "--system", str(bad), "--heights", str(heights)]) == 2
        assert "not an exact rational" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def module(*args):
        return subprocess.run([sys.executable, "-m", "relaxcert.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    done = module("bounds", "--dmax", "3")
    assert done.returncode == 0
    assert "d,trivial,corollary,pipeline,best" in done.stdout.splitlines()
    assert module("build", "dim5", "--eps", "abc").returncode == 2


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported by the parallel enumerator alone, which only --jobs > 1 reaches
    code = ("import sys, relaxcert.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _verify_error(capsys, system, points, box="-2:3"):
    rc = run(["verify", "--system", str(system), "--points", str(points), f"--box={box}"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:"), err
    return err


def test_missing_system_file_exit_two(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out)]) == 0
    missing = tmp_path / "absent.json"
    assert str(missing) in _verify_error(capsys, missing, out)
    rc = run(["certify-mixed", "--system", str(out), "--heights", str(missing)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and str(missing) in err


def test_malformed_json_exit_two(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": [')
    assert str(bad) in _verify_error(capsys, bad, out)
    assert str(bad) in _verify_error(capsys, out, bad)


def test_system_without_rows_exit_two(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out)]) == 0
    data = read_json(out)
    del data["system"]["rows"]
    bad = tmp_path / "norows.json"
    bad.write_text(json.dumps(data))
    err = _verify_error(capsys, bad, out)
    assert str(bad) in err and "rows" in err


def test_non_integer_box_exit_two(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out)]) == 0
    assert "a:b" in _verify_error(capsys, out, out, box="a:b")


def test_json_of_the_wrong_shape_exit_two(tmp_path, capsys):
    out = tmp_path / "dim5.json"
    assert run(["build", "dim5", "--out", str(out)]) == 0
    for name, text in (("five.json", "5\n"), ("list.json", "[1, 2]\n")):
        bad = tmp_path / name
        bad.write_text(text)
        err = _verify_error(capsys, bad, out)
        assert str(bad) in err and "not a JSON object" in err and len(err.splitlines()) == 1
    for path, value in ((("field", "degree"), "abc"), (("num_vars",), [1])):
        data = read_json(out)["system"]
        data[path[0]] = value if len(path) == 1 else {**data[path[0]], path[1]: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        err = _verify_error(capsys, bad, out)
        assert str(bad) in err and len(err.splitlines()) == 1


def test_heights_without_entries_exit_two(tmp_path, capsys):
    mixed, heights = tmp_path / "mixed.json", tmp_path / "heights.json"
    assert run(["build", "dim5", "--out", str(tmp_path / "dim5.json"),
                "--mixed-out", str(mixed), "--heights-out", str(heights)]) == 0
    data = read_json(heights)
    data["entries"] = []
    heights.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["certify-mixed", "--system", str(mixed), "--heights", str(heights)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(heights) in err and len(err.splitlines()) == 1


def test_output_in_a_missing_directory_exit_two_before_building(tmp_path, capsys):
    ok, missing = tmp_path / "ok.json", tmp_path / "absent" / "x.json"
    for flag in ("--out", "--mixed-out", "--heights-out"):
        paths = {"--out": ok, "--mixed-out": tmp_path / "m.json",
                 "--heights-out": tmp_path / "h.json", flag: missing}
        rc = run(["build", "dim5", *(x for item in paths.items() for x in map(str, item))])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and str(missing) in err
        assert len(err.splitlines()) == 1
        # refused before the build: no other output was written
        assert not any(p.exists() for p in paths.values())
