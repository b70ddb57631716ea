import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ddfilter import canonical_deltas, cli, make_custom, sample_filter
from ddfilter.cli import main, parse_sequence_spec
from ddfilter.errors import BadConfig
from ddfilter.io import read_json, write_json


@pytest.fixture()
def ohmic_file(tmp_path):
    path = tmp_path / "ohmic.json"
    write_json(path, {"variant": "ohmic", "amplitude": 1.0, "omega_d": 1.0})
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1]) if captured.out.strip() else None
    return code, summary, captured.err


def read_table(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


def test_parse_sequence_spec():
    assert parse_sequence_spec("fid").n == 0
    assert parse_sequence_spec("cpmg:4").n == 4
    seq = parse_sequence_spec("custom:0.1,0.25,0.7")
    assert np.allclose(seq.deltas, [0.1, 0.25, 0.7])
    for bad in ("cpmg", "cpmg:x", "nope:3", "custom:"):
        with pytest.raises(BadConfig):
            parse_sequence_spec(bad)


def test_filter_csv(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, summary, _ = run(capsys, "filter", "--seq", "cpmg:4",
                           "--u-min", "1e-2", "--u-max", "1e3",
                           "--ppd", "60", "--out", str(out))
    assert code == 0
    assert summary["command"] == "filter"
    assert summary["variant"] == "ideal"
    header, rows = read_table(out)
    assert header == "u,F,variant,n"
    assert len(rows) == summary["points"] == 300
    first = rows[0].split(",")
    assert float(first[0]) == pytest.approx(1e-2)
    assert first[2] == "ideal" and first[3] == "4"


def test_filter_quantized_variant(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, summary, _ = run(capsys, "filter", "--family", "udd", "--n", "6",
                           "--precision", "1e-4", "--out", str(out))
    assert code == 0
    assert summary["variant"].startswith("quantized:")


def test_coherence_single_and_sweep(tmp_path, capsys):
    spath = tmp_path / "white.json"
    write_json(spath, {"variant": "white", "level": 0.02, "omega_hi": 100.0})
    out = tmp_path / "c.csv"
    code, summary, _ = run(capsys, "coherence", "--seq", "fid",
                           "--spectrum", str(spath), "--tau", "2.0",
                           "--out", str(out))
    assert code == 0
    header, rows = read_table(out)
    assert header == "tau,chi,W,n,family"
    assert len(rows) == 1
    chi_val = float(rows[0].split(",")[1])
    # white noise on a free decay: chi ~= level * tau / 2
    assert chi_val == pytest.approx(0.02, rel=5e-3)

    out2 = tmp_path / "sweep.csv"
    code, summary, _ = run(capsys, "coherence", "--seq", "cpmg:4",
                           "--spectrum", str(spath),
                           "--tau-min", "0.1", "--tau-max", "10",
                           "--tau-points", "7", "--out", str(out2))
    assert code == 0
    header, rows = read_table(out2)
    assert len(rows) == 7
    assert rows[0].split(",")[4] == "cpmg:4"
    assert summary["chi_last"] > summary["chi_first"]


def test_coherence_requires_tau(tmp_path, capsys, ohmic_file):
    code, _, err = run(capsys, "coherence", "--seq", "fid",
                       "--spectrum", ohmic_file,
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    msg = json.loads(err.strip())
    assert msg["error"] == "BadConfig"


def test_metrics_json(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, summary, _ = run(capsys, "metrics", "--family", "udd", "--n", "4",
                           "--out", str(out))
    assert code == 0
    doc = read_json(out)
    for key in ("u_f1", "rolloff_db_per_octave", "passband_mean",
                "passband_ripple_db", "n"):
        assert key in doc
    assert doc["u_f1"] == pytest.approx(summary["u_f1"])
    assert doc["n"] == 4


def test_metrics_json_is_strict_when_ripple_is_infinite(tmp_path, capsys):
    """cpmg2's F touches 0 in the passband: the infinite ripple is null."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = tmp_path / "m.json"
    code = main(["metrics", "--family", "cpmg", "--n", "2", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    for text in (line, out.read_text()):
        assert json.loads(text, parse_constant=reject)["passband_ripple_db"] is None


def test_compare_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, summary, _ = run(capsys, "compare", "--a", "udd:6", "--b", "cpmg:6",
                           "--u-min", "1e-2", "--u-max", "1e2",
                           "--ppd", "40", "--out", str(out))
    assert code == 0
    header, rows = read_table(out)
    assert header == "u,ratio,flag"
    flags = {r.split(",")[2] for r in rows}
    assert flags <= {"lt1", "gt1", "eq", "masked"}
    assert "masked_points" in summary


def test_optimize_ofdd_roundtrip(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code, summary, _ = run(capsys, "optimize", "ofdd", "--n", "2",
                           "--u-max", "4", "--restarts", "0",
                           "--out", str(out))
    assert code == 0
    assert summary["command"] == "optimize-ofdd"
    assert summary["objective_value"] <= summary["baseline_values"]["udd"] + 1e-15
    doc = read_json(out)
    assert doc["sequence"]["n"] == 2
    assert doc["u_max"] == 4


def test_oracle_summary(tmp_path, capsys, ohmic_file):
    code, summary, _ = run(capsys, "oracle", "--seq", "cpmg:2",
                           "--spectrum", ohmic_file, "--tau", "1.0",
                           "--n-steps", "2048", "--mc", "400", "--seed", "1")
    assert code == 0
    assert summary["rel_diff"] < 1e-2
    assert summary["chi_freq"] == pytest.approx(summary["chi_grammian"],
                                                rel=1e-2)
    assert summary["M"] == 400
    assert summary["stderr"] > 0
    assert abs(summary["w_mc"] - np.exp(-summary["chi_freq"])) < 4 * summary["stderr"]


def test_figures_bundle(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, summary, _ = run(capsys, "figures", "--which", "ratio",
                           "--out-dir", str(out_dir))
    assert code == 0
    manifest = read_json(out_dir / "manifest.json")
    assert summary["n_files"] == len(manifest["files"]) > 0
    for name in manifest["files"]:
        assert (out_dir / name).exists()


@pytest.mark.parametrize("which, count", [("ff1", 24), ("width", 4)])
def test_figures_filter_bundles(tmp_path, capsys, which, count):
    """ff1: cpmg, pdd and udd at n = 3..10; width: udd7 at four pulse widths."""
    out_dir = tmp_path / which
    code, summary, _ = run(capsys, "figures", "--which", which, "--out-dir", str(out_dir))
    assert code == 0
    files = read_json(out_dir / "manifest.json")["files"]
    assert summary["n_files"] == len(files) == count
    header, rows = read_table(out_dir / files[-1])
    assert header == "u,F,variant,n" and rows


@pytest.mark.parametrize("argv", [
    ("optimize", "lodd", "--n", "2", "--tau", "1"),
    ("optimize", "badd", "--tau", "1", "--tau-switch", "0.3", "--n-max", "2"),
], ids=["lodd", "badd"])
def test_optimize_lodd_and_badd_in_process(tmp_path, capsys, ohmic_file, argv):
    out = tmp_path / "opt.json"
    code, summary, _ = run(capsys, *argv, "--spectrum", ohmic_file, "--restarts", "0",
                           "--max-iter", "40", "--out", str(out))
    assert code == 0
    assert summary["command"] == f"optimize-{argv[1]}"
    assert summary["objective_value"] <= min(summary["baseline_values"].values()) + 1e-15
    doc = read_json(out)
    assert doc["tau"] == 1.0 and doc["sequence"]["n"] == summary["n"]


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_memory_error_is_one_line_json_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli, "sample_filter", out_of_memory)    # inside the filter subcommand
    code, summary, err = run(capsys, "filter", "--seq", "udd:4", "--out", str(tmp_path / "x.csv"))
    assert code == 1 and summary is None
    assert json.loads(err.strip()) == {"error": "MemoryError",
                                       "message": "Unable to allocate 8.00 EiB for an array"}


def test_family_without_n(tmp_path, capsys):
    code, _, err = run(capsys, "filter", "--family", "cpmg",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert json.loads(err.strip())["error"] == "BadConfig"


def test_filter_needs_a_sequence(tmp_path, capsys):
    code, summary, err = run(capsys, "filter", "--out", str(tmp_path / "x.csv"))
    assert code == 1 and summary is None
    assert json.loads(err.strip()) == {"error": "BadConfig",
                                       "message": "provide --seq or --family"}
    assert not (tmp_path / "x.csv").exists()


def test_filter_finite_width_and_fid(tmp_path, capsys):
    """--width-ratio samples the named sequence's finite-width filter, and
    --family fid needs no --n."""
    out = tmp_path / "w.csv"
    code, summary, _ = run(capsys, "filter", "--family", "udd", "--n", "6",
                           "--width-ratio", "0.01", "--out", str(out))
    assert code == 0
    assert summary["variant"] == "finite:0.01" and summary["n"] == 6
    want = sample_filter(make_custom(canonical_deltas("udd", 6), width_ratio=0.01),
                         1e-3, 1e3, 50, variant="finite")
    _, rows = read_table(out)
    assert [r.split(",")[2:] for r in rows] == [["finite:0.01", "6"]] * len(want.values)
    assert [float(r.split(",")[1]) for r in rows] == want.values.tolist()

    code, summary, _ = run(capsys, "filter", "--family", "fid", "--out", str(out))
    assert code == 0
    assert summary == {"command": "filter", "out": str(out), "points": 300, "n": 0,
                       "variant": "ideal"}
    _, rows = read_table(out)
    u, f = np.array([[float(x) for x in r.split(",")[:2]] for r in rows]).T
    assert f == pytest.approx(np.sin(u / 2.0) ** 2, rel=1e-12)


def test_oracle_writes_its_report(tmp_path, capsys, ohmic_file):
    """--out writes the report as JSON; the summary adds the path."""
    out = tmp_path / "o.json"
    code, summary, _ = run(capsys, "oracle", "--seq", "cpmg:2", "--spectrum", ohmic_file,
                           "--tau", "1.0", "--n-steps", "1024", "--mc", "50",
                           "--out", str(out))
    assert code == 0
    doc = read_json(out)
    assert set(doc) == {"chi_freq", "chi_grammian", "rel_diff", "N", "w_mc", "stderr", "M",
                        "seed"}
    assert summary == {"command": "oracle", **doc, "out": str(out)}


def test_bad_spectrum_file(tmp_path, capsys):
    spath = tmp_path / "bad.json"
    write_json(spath, {"variant": "mystery"})
    code, _, err = run(capsys, "coherence", "--seq", "fid",
                       "--spectrum", str(spath), "--tau", "1",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert json.loads(err.strip())["error"] == "BadConfig"


@pytest.mark.parametrize("spectrum, extra", [
    ('{"variant": "ohmic", "amplitude": 1, "omega_d": Infinity}', ()),
    ('{"variant": "white", "level": Infinity, "omega_hi": 1}', ()),
    ('{"variant": "supraohmic", "alpha": Infinity, "omega_c": 1}', ()),
    ('{"variant": "powerlaw", "amplitude": Infinity, "exponent": 0.5, "omega_lo": 0.1,'
     ' "omega_hi": 1}', ()),
    ('{"variant": "tabulated", "omegas": [0.1, Infinity], "values": [1, 1]}', ()),
    ('{"variant": "ohmic", "amplitude": 1, "omega_d": 1}', ("--rescale-time", "1e-320")),
])
def test_out_of_domain_spectrum_is_one_line_json_error(tmp_path, capsys, spectrum, extra):
    """A spectrum with an infinite parameter, read or rescaled, is a BadConfig."""
    spath, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spath.write_text(spectrum)
    code, summary, err = run(capsys, "coherence", "--seq", "udd:2", "--spectrum", str(spath),
                             "--tau", "1", *extra, "--out", str(out))
    assert code == 1 and summary is None
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "BadConfig"
    assert not out.exists()


def _python_console_script():
    """The `dd` entry point, unless PATH resolves to the coreutils tool."""
    exe = shutil.which("dd")
    if exe is None:
        return None
    try:
        with open(exe, "rb") as fh:
            if b"python" not in fh.readline():
                return None
    except OSError:
        return None
    return exe


def test_import_leaves_scipy_special_unloaded():
    """Importing the package and its CLI loads no scipy.special: the
    functions that need it import it on first use."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ddfilter, ddfilter.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_subprocess_entry_points(tmp_path):
    out = tmp_path / "f.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ddfilter", "filter", "--seq", "udd:3",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "filter"
    assert out.exists()

    exe = _python_console_script()
    if exe is None:
        pytest.skip("dd console script not first on PATH")
    proc = subprocess.run([exe, "metrics", "--seq", "fid"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "metrics"


@pytest.mark.parametrize("argv, error", [
    (("filter", "--family", "cpmg", "--n", "0"), "ValueError"),
    (("coherence", "--family", "udd", "--n", "4", "--spectrum", "{missing}",
      "--tau", "1"), "FileNotFoundError"),
    (("coherence", "--seq", "udd:4", "--spectrum", "{ohmic}", "--tau", "nan"),
     "ValueError"),
    (("coherence", "--seq", "udd:4", "--spectrum", "{malformed}", "--tau", "1"),
     "JSONDecodeError"),
    (("oracle", "--seq", "udd:4", "--spectrum", "{ohmic}", "--tau", "1",
      "--n-steps", "1024", "--mc", "1"), "ValueError"),
    (("coherence", "--seq", "udd:4", "--spectrum", "{short_table}", "--tau", "1"),
     "BadConfig"),
    (("coherence", "--seq", "udd:4", "--spectrum", "{powerlaw}", "--tau", "1",
      "--rescale-time", "-2"), "ValueError"),
    (("coherence", "--seq", "udd:4", "--spectrum", "{ohmic}", "--tau", "1",
      "--rescale-time", "0"), "ValueError"),
    (("optimize", "lodd", "--spectrum", "{ohmic}", "--rescale-time", "0",
      "--n", "2", "--tau", "1"), "ValueError"),
    (("optimize", "badd", "--spectrum", "{powerlaw}", "--rescale-time", "-2",
      "--tau", "1", "--tau-switch", "0.2", "--n-max", "2"), "ValueError"),
    (("oracle", "--seq", "udd:4", "--spectrum", "{ohmic}", "--tau", "1",
      "--rescale-time", "inf"), "ValueError"),
    (("optimize", "ofdd", "--n", "2", "--u-max", "inf"), "ValueError"),
    (("filter", "--seq", "udd:4", "--u-max", "inf"), "ValueError"),
])
def test_bad_input_is_one_line_json_error(tmp_path, capsys, ohmic_file, argv, error):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    short_table = tmp_path / "short_table.json"
    write_json(short_table, {"variant": "tabulated", "omegas": [1.0, 2.0]})
    powerlaw = tmp_path / "powerlaw.json"
    write_json(powerlaw, {"variant": "powerlaw", "amplitude": 1.0, "exponent": 0.5,
                          "omega_lo": 0.0, "omega_hi": 5.0})
    out = tmp_path / "out.csv"
    argv = [a.format(ohmic=ohmic_file, malformed=malformed, short_table=short_table,
                     powerlaw=powerlaw, missing=tmp_path / "missing.json")
            for a in argv]
    code, summary, err = run(capsys, *argv, "--out", str(out))
    assert code == 1 and summary is None
    msg = json.loads(err.strip())
    assert msg["error"] == error and msg["message"]
    assert not out.exists()


def test_curve_failure_is_one_line_json_with_its_cause(tmp_path, capsys):
    """A power law with exponent 0 deep in a udd stop band: direct
    quadrature runs out of refinement rounds at every tau."""
    spec = tmp_path / "flat.json"
    write_json(spec, {"variant": "powerlaw", "amplitude": 0.1, "exponent": 0.0,
                      "omega_lo": 0.0, "omega_hi": 5.0})
    out = tmp_path / "c.csv"
    code, summary, err = run(capsys, "coherence", "--family", "udd", "--n", "12",
                             "--spectrum", str(spec), "--tau-min", "0.5",
                             "--tau-max", "0.6", "--tau-points", "2", "--out", str(out))
    assert code == 1 and summary is None and len(err.strip().splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "CurveFailure"
    assert "indices [0, 1]" in msg["message"]
    assert "ToleranceNotMet" in msg["message"] and "achieved" in msg["message"]
    assert not out.exists()
