"""CLI subcommands, exit codes, initial-profile specs, CSV reports."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phs
from phs.cli import main, x0_from_spec
from phs.errors import SpecError

from conftest import FIXTURES, crossing_system


# the arguments of the spec fuzz: extreme numbers and what is not a number
SPEC_SCALARS = st.sampled_from([10**400, -10**400, 1e308, -1e308, 1e-320, -0.0, 0, 0.5, 3,
                                True, False, None, "x", "", 1 + 2j, 1j])
SPEC_ARGUMENTS = st.one_of(SPEC_SCALARS, st.tuples(SPEC_SCALARS),
                           st.lists(SPEC_SCALARS, min_size=2, max_size=4).map(tuple))


class TestX0Spec:
    def test_sine_peak(self):
        f = x0_from_spec("sine(1)", 1)
        assert f(0.5)[0] == pytest.approx(1.0)
        assert f(0.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_indicator_outside(self):
        f = x0_from_spec("indicator(0.2,0.8,(1))", 1)
        assert f(0.1)[0] == 0.0
        assert f(0.5)[0] == 1.0

    def test_gaussian_peak(self):
        f = x0_from_spec("gaussian(0.5,0.1)", 1)
        assert f(0.5)[0] == pytest.approx(1.0)

    def test_constant_vector_whole_field(self):
        f = x0_from_spec("constant((1,0,-1))", 3)
        np.testing.assert_array_equal(f(0.3), [1.0, 0.0, -1.0])

    def test_per_component_list(self):
        f = x0_from_spec("gaussian(0.3,0.1); constant(0); sine(-1)", 3)
        v = f(0.3)
        assert v[0] == pytest.approx(1.0)
        assert v[1] == 0.0
        assert v[2] == pytest.approx(-np.sin(0.3 * np.pi))

    def test_scalar_broadcasts(self):
        f = x0_from_spec("sine(2)", 3)
        np.testing.assert_allclose(f(0.25), np.full(3, 1.0))

    @pytest.mark.parametrize("spec", [
        "wavelet(1)",
        "sine(1,2)",
        "gaussian(0.5,0)",
        "indicator(0.8,0.2,1)",
        "sine(1); sine(2)",          # 2 profiles for n = 3
        "constant((1,2))",           # wrong vector length for n = 3
        "sine",
        "",
        "sine(1,,2)",                # malformed arguments
        "sine(k)",
        "gaussian(0.5)",
        "constant(1, 2)",
        "indicator(0.2, 0.8)",
        "constant((1,2)); sine(1); sine(2)",  # non-scalar entry of a per-component list
        # every number of a spec is a finite number under the document rule,
        # and a payload is a number or a tuple of numbers
        "sine(True)",
        "gaussian(0.5, True)",
        pytest.param("sine(1" + "0" * 400 + ")", id="sine(401 digits)"),
        'constant("x")',
        'constant((1,"x",2))',
        'indicator(0.1, 0.5, "a")',
        "constant(1+2j)",
        "constant(None)",
        "constant([1, 2, 3])",
        "constant(1e999)",
        "sine(1e308)",               # k pi overflows
        "sine({[1]: 2})",            # literal_eval raises TypeError
    ])
    def test_spec_errors(self, spec):
        with pytest.raises(SpecError):
            x0_from_spec(spec, 3)

    @pytest.mark.parametrize("spec", ["gaussian(0.5, 1e-320)", "sine(1e300)",
                                      "gaussian(-1.7e308, 1e-300)", "gaussian(-1e308, 3)"])
    def test_extreme_arguments_do_not_warn(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = x0_from_spec(spec, 2)
            values = np.array([f(z) for z in np.linspace(0.0, 1.0, 17)])
        assert values.shape == (17, 2) and np.isfinite(values).all()

    @settings(max_examples=500, deadline=None)
    @given(name=st.sampled_from(["sine", "gaussian", "constant", "indicator", "wavelet"]),
           args=st.lists(SPEC_ARGUMENTS, max_size=4), n=st.integers(1, 3))
    def test_fuzzed_spec_is_finite_or_refused(self, name, args, n):
        spec = f"{name}({', '.join(map(repr, args))})"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                f = x0_from_spec(spec, n)
                values = [f(z) for z in np.linspace(0.0, 1.0, 17)]
            except SpecError:
                return
        for v in values:
            assert np.shape(v) == (n,) and np.isfinite(v).all()


class TestExitCodes:
    def test_classify_network(self, capsys):
        code = main(["classify", str(FIXTURES / "network_three_lines.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["contraction"] is False
        assert report["unitary_group"] is False
        assert report["c0_semigroup"] is True

    def test_classify_blocked_transport(self, capsys):
        code = main(["classify", str(FIXTURES / "transport_w1_0_w0_1.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c0_semigroup"] is False

    def test_simulate_illposed_exits_3(self, capsys):
        code = main(["simulate", str(FIXTURES / "string_uniform.json"),
                     "--t-final", "0.2", "--nx", "32"])
        assert code == 3
        assert "ill-posed" in capsys.readouterr().err

    def test_simulate_illposed_with_flag(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["simulate", str(FIXTURES / "string_uniform.json"),
                     "--t-final", "0.05", "--nx", "32", "--allow-illposed",
                     "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2,
            "p1": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "p0": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "h": {"kind": "constant",
                  "value": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "wb_tilde": [[[1.0, 0.0]] * 4, [[0.0, 0.0]] * 4],
        }))
        code = main(["classify", str(bad)])
        assert code == 2
        assert "Hermitian" in capsys.readouterr().err

    def test_nan_grid_knot_exits_2(self, tmp_path, capsys):
        # a JSON NaN literal loads as a float; the grid field refuses it
        doc = json.loads((FIXTURES / "transport_grid_h.json").read_text())
        doc["h"]["zetas"][1] = float("nan")
        bad = tmp_path / "nan_knot.json"
        bad.write_text(json.dumps(doc))
        assert "NaN" in bad.read_text()
        assert main(["check", str(bad)]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_string_grid_knot_exits_2(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "transport_grid_h.json").read_text())
        doc["h"]["zetas"][1] = "x"
        bad = tmp_path / "string_knot.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        assert "SchemaError: h.zetas[1]: expected a number" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["classify", "no_such_model.json"]) == 2

    def test_bad_x0_spec_exits_2(self, capsys):
        code = main(["simulate", str(FIXTURES / "transport_w1_1_w0_0.json"),
                     "--t-final", "0.05", "--nx", "32", "--x0", "vortex(3)"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["sine(True)", "sine(1" + "0" * 400 + ")", 'constant("x")'],
                             ids=["bool", "401_digits", "string"])
    def test_bad_x0_payload_exits_2(self, capsys, spec):
        code = main(["simulate", str(FIXTURES / "transport_w1_1_w0_0.json"),
                     "--t-final", "0.05", "--nx", "32", "--x0", spec])
        assert code == 2
        assert capsys.readouterr().err.startswith("phs: SpecError: ")

    @pytest.mark.parametrize("p_norms, message", [
        ("nan", "p_norms must all be finite and >= 1, got (nan,)"),
        ("1,two", "cannot parse --p-norms '1,two'"),
        ("2,2", "p_norms must have distinct column labels, got (2.0, 2.0)"),
    ])
    def test_bad_p_norms_exit_2(self, capsys, p_norms, message):
        code = main(["simulate", str(FIXTURES / "transport_w1_1_w0_1.json"),
                     "--t-final", "0.05", "--nx", "32", "--p-norms", p_norms])
        assert code == 2
        assert capsys.readouterr().err == f"phs: ValidationError: {message}\n"

    def test_simulate_crossing_exits_1(self, tmp_path):
        # run as a process, so that anything the program writes to stderr,
        # warnings included, is seen
        system = crossing_system()
        zetas, values, _ = system.h.data
        model = tmp_path / "crossing.json"
        model.write_text(json.dumps({
            "n": system.n, "p1": phs.matrix_to_pairs(system.p1),
            "p0": phs.matrix_to_pairs(system.p0),
            "h": {"kind": "grid", "zetas": zetas.tolist(),
                  "values": [phs.matrix_to_pairs(v) for v in values]},
            "wb_tilde": phs.matrix_to_pairs(system.wb_tilde)}))
        env = dict(os.environ, PYTHONPATH=str(Path(phs.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "phs.cli", "simulate", str(model), "--nx", "32"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr == ("phs: ContinuityError: eigenvalue crossing on the simulation "
                               "grid at indices [11]: the characteristics transform is "
                               "not smooth\n")

    def test_simulate_overflowing_record_exits_1(self):
        # squares of entries about 1e200 overflow: a typed error without a
        # numpy warning, which -W error would turn into a traceback
        env = dict(os.environ, PYTHONPATH=str(Path(phs.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "phs.cli", "simulate",
             str(FIXTURES / "transport_w1_1_w0_1.json"), "--nx", "16", "--t-final", "0.05",
             "--x0", "constant(1e200)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("phs: StabilityError: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("content", [b'{"n": 1' + b"0" * 5000 + b"}", b'{"n": "\xff"}'],
                             ids=["5001_digits", "not_utf8"])
    def test_unparsable_model_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("phs: SchemaError: invalid JSON: ")

    def test_runaway_simulation_exits_2(self):
        # 1.8e301 steps: refused by the step bound before x0 is sampled
        env = dict(os.environ, PYTHONPATH=str(Path(phs.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "phs.cli", "simulate",
             str(FIXTURES / "transport_w1_1_w0_1.json"), "--nx", "16", "--t-final", "1e300"],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("phs: ValidationError: ")
        assert "MAX_STEPS" in proc.stderr and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        [],
        ["oracle"],  # --n is required
        ["oracle", "--n", "0"],
        ["oracle", "--n", "2", "--count", "-1"],
        ["oracle", "--n", "2", "--seed", "-1"],
        ["classify", str(FIXTURES / "string_uniform.json"), "--grid", "-5"],
        # crossings are reported by the simulator only
        ["classify", str(FIXTURES / "string_uniform.json"), "--grid", "17"],
        # the thresholds are fixed
        ["classify", str(FIXTURES / "string_uniform.json"), "--tol-psd", "1e-3"],
        # the Courant number is fixed
        ["simulate", str(FIXTURES / "string_uniform.json"), "--cfl", "0.5"],
        # only classify and simulate print a summary
        ["check", str(FIXTURES / "string_uniform.json"), "-v"],
        ["oracle", "--n", "2", "--count", "5", "--verbose"],
    ])
    def test_usage_error_exits_64(self, capsys, argv):
        assert main(argv) == 64


class TestReports:
    def test_check_valid(self, capsys):
        code = main(["check", str(FIXTURES / "string_stiffening.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert report["n"] == 2
        assert report["h_kind"] == "polynomial"

    def test_classify_deterministic_across_runs(self, capsys, tmp_path):
        outputs = []
        for i in range(3):
            path = tmp_path / f"v{i}.json"
            assert main(["classify", str(FIXTURES / "network_three_lines.json"),
                         "--output", str(path)]) == 0
            outputs.append(path.read_text())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_classify_grid_note(self, capsys):
        code = main(["classify", str(FIXTURES / "transport_grid_h.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert any("sampled" in note for note in report["notes"])

    @pytest.mark.parametrize("argv, summary", [
        (["classify", str(FIXTURES / "network_three_lines.json")],
         "contraction=False unitary=False c0=True\n"),
        (["simulate", str(FIXTURES / "transport_w1_1_w0_1.json"), "--t-final", "0.05",
          "--nx", "32"], "steps="),
    ])
    def test_verbose_summary(self, capsys, argv, summary):
        assert main(argv + ["-v"]) == 0
        assert capsys.readouterr().err.startswith(summary)

    def test_oracle_report(self, capsys):
        code = main(["oracle", "--n", "2", "--count", "40", "--seed", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 40
        assert report["disagree"] == 0
        assert report["agree"] + report["frontier"] == 40

    def test_simulate_csv_outputs(self, tmp_path):
        hist = tmp_path / "hist.csv"
        field = tmp_path / "field.csv"
        code = main(["simulate", str(FIXTURES / "transport_w1_2_w0_1.json"),
                     "--t-final", "0.25", "--nx", "64", "--p-norms", "1,2",
                     "--x0", "gaussian(0.5,0.1)",
                     "--output", str(hist), "--field-output", str(field)])
        assert code == 0
        with open(hist) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "energy", "l1", "l2"]
        energies = [float(r[1]) for r in rows[1:]]
        assert energies[-1] <= energies[0]  # dissipative fixture
        with open(field) as f:
            frows = list(csv.reader(f))
        assert frows[0] == ["zeta", "re(x_1)", "im(x_1)"]
        assert len(frows) == 1 + 65

    def test_simulate_stdout(self, capsys):
        code = main(["simulate", str(FIXTURES / "transport_w1_1_w0_1.json"),
                     "--t-final", "0.05", "--nx", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "t,energy,l1,l2"
