import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kcbsim import config, errors
from kcbsim.cli import main
from kcbsim.config import build_run_config, load_config_file
from kcbsim.errors import ConfigError, NonFinite
from kcbsim.model import LAMBDA_MAX, MAX_ATTEMPTS, MIN_SHOTS, NoiseModel, RunConfig
from kcbsim.kcbs import TERM_NAMES
from kcbsim.spectrum import NvParameters, nmr_frequencies

SQRT5 = math.sqrt(5.0)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit_code, parsed_json). The
    record must be strict JSON: NaN and Infinity fail the parse."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    return code, (json.loads(out, parse_constant=_reject_constant) if out.strip() else None)


def below_1e4_argv(tmp_path) -> list[str]:
    """simulate's options for a config file whose probabilities a record
    writes in exponent form, 1e-05 and 3e-05."""
    cfg = tmp_path / "below-1e-4.yaml"
    cfg.write_text("shots_per_term: 500\nnoise: {init_error_prob: 1.0e-05, nuclear_flip_prob: 3.0e-05, "
                   "lambda_bright: 10.5, lambda_dark: 1.55, readout_threshold: 4}\n")
    return ["--config", str(cfg)]


def assert_record_reruns(tmp_path, *argv):
    """The record of `simulate *argv`, its config block saved as a JSON file
    and passed to --config, reruns to the same record, less preset,
    config_file and wall_clock_seconds."""
    code, rec = run_cli("simulate", *argv)
    assert code == 0
    path = tmp_path / "record-config.json"
    path.write_text(json.dumps(rec["config"], indent=2))
    code, again = run_cli("simulate", "--config", str(path))
    assert code == 0
    for key in ("preset", "config_file", "wall_clock_seconds"):
        del rec[key], again[key]
    assert again == rec


@pytest.fixture
def no_shot_loop(monkeypatch):
    """Make any start of the shot loop fail the test."""

    def never(config):
        raise AssertionError("the shot loop was started")

    monkeypatch.setattr("kcbsim.experiment.run_protocol", never)


class TestExact:
    def test_values(self):
        code, rec = run_cli("exact")
        assert code == 0
        assert rec["kcbs_value"] == pytest.approx(SQRT5, abs=1e-9)
        assert rec["modified_kcbs_value"] == pytest.approx(SQRT5, abs=1e-9)
        assert rec["nchv_bound"] == 2
        assert rec["nchv_bound_modified"] == 2
        for i in range(1, 6):
            assert rec["terms"][f"L{i}"] == pytest.approx(1 / SQRT5, abs=1e-9)

    def test_float_fidelity_round_trips(self):
        _, rec = run_cli("exact")
        again = json.loads(json.dumps(rec))
        assert again == rec
        assert again["kcbs_value"] == rec["kcbs_value"]  # bit-exact through JSON


class TestValidate:
    def test_all_checks_pass(self):
        code, rec = run_cli("validate")
        assert code == 0
        assert rec["status"] == "ok"
        names = {c["check"] for c in rec["checks"]}
        assert "pulse_closure" in names
        assert "gram_equivalence" in names
        for check in rec["checks"]:
            assert check["defect"] < check["tolerance"]

    def test_gram_deviation_reported(self):
        _, rec = run_cli("validate")
        gram = next(c for c in rec["checks"] if c["check"] == "gram_equivalence")
        assert gram["defect"] < 1e-10

    def test_readout_slots_measured(self):
        _, rec = run_cli("validate")
        slots = next(c for c in rec["checks"] if c["check"] == "readout_slots")
        assert slots["defect"] < 1e-10

    def test_injected_wrong_gamma_fails(self, monkeypatch):
        from kcbsim import cli

        build = cli.build_pulse_quintuplet
        monkeypatch.setattr(cli, "build_pulse_quintuplet", lambda: build(gamma=math.acos(-0.5)))
        code, rec = run_cli("validate")
        assert code == 1
        assert rec["status"] == "failed"
        assert rec["failed_check"] == "ClosureFailure"

    def test_gamma_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--gamma", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --gamma" in capsys.readouterr().err

    def test_defect_over_tolerance_fails(self, monkeypatch):
        from kcbsim import cli

        checks = cli._validation_checks

        def tightened():
            for name, defect, tol in checks():
                yield name, defect, 0.0 if name == "pulse_closure" else tol

        monkeypatch.setattr(cli, "_validation_checks", tightened)
        code, rec = run_cli("validate")
        assert code == 1
        assert rec["status"] == "failed"
        assert rec["failed_check"] == "pulse_closure"
        last = rec["checks"][-1]
        assert last["check"] == "pulse_closure" and last["tolerance"] == 0.0
        assert rec["error"] == f"pulse_closure: defect {last['defect']:.3e} exceeds 0e+00"


class TestSimulate:
    def test_ideal_run(self):
        code, rec = run_cli(
            "simulate", "--preset", "ideal", "--shots", "2000", "--seed", "42"
        )
        assert code == 0
        value = rec["modified_kcbs_value"]
        assert abs(value - SQRT5) < 5 * rec["inequality_stderr"]
        assert rec["shots_per_term"] == 2000
        assert rec["seed"] == 42
        assert set(rec["terms"]) == set(TERM_NAMES)

    def test_deterministic_record(self):
        args = ("simulate", "--preset", "ideal", "--shots", "1000", "--seed", "7")
        _, a = run_cli(*args)
        _, b = run_cli(*args)
        a.pop("wall_clock_seconds")
        b.pop("wall_clock_seconds")
        assert a == b

    def test_byte_identical_stdout_across_processes(self):
        cmd = [
            sys.executable, "-m", "kcbsim",
            "simulate", "--preset", "ideal", "--shots", "500", "--seed", "3",
        ]
        out1 = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        out2 = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_clock_seconds")
        b.pop("wall_clock_seconds")
        assert a == b

    def test_csv_output(self, tmp_path):
        path = tmp_path / "terms.csv"
        code, rec = run_cli(
            "simulate", "--preset", "ideal", "--shots", "500", "--seed", "1",
            "--csv", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["term", "estimate", "stderr", "shots"]
        assert [r[0] for r in rows[1:]] == list(TERM_NAMES)
        for row in rows[1:]:
            # estimates round-trip at full precision and match the record
            assert float(row[1]) == rec["terms"][row[0]]
            assert float(row[2]) == rec["stderrs"][row[0]]
            assert int(row[3]) == 500

    def test_pair_order_flag(self):
        code, rec = run_cli(
            "simulate", "--preset", "ideal", "--shots", "1000", "--seed", "5",
            "--pair-order", "reverse",
        )
        assert code == 0
        assert rec["config"]["pair_order"] == "reverse"
        assert abs(rec["modified_kcbs_value"] - SQRT5) < 5 * rec["inequality_stderr"]

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "shots_per_term: 400\nseed: 11\nnoise:\n  lambda_bright: 50.0\n"
            "  lambda_dark: 0.0\n  readout_threshold: 8\n"
        )
        code, rec = run_cli("simulate", "--config", str(cfg))
        assert code == 0
        assert rec["shots_per_term"] == 400
        assert rec["seed"] == 11
        assert rec["config"]["noise"]["lambda_bright"] == 50.0

    @pytest.mark.parametrize("source", ["paper-2015", "ideal", "below-1e-4"])
    def test_record_config_reruns_to_the_same_record(self, tmp_path, source):
        argv = below_1e4_argv(tmp_path) if source == "below-1e-4" else ["--preset", source]
        assert_record_reruns(tmp_path, *argv)

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("shots_per_term: 400\nseed: 11\n")
        code, rec = run_cli("simulate", "--config", str(cfg), "--seed", "99",
                            "--shots", "300")
        assert code == 0
        assert rec["seed"] == 99
        assert rec["shots_per_term"] == 300

    def test_config_error_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("noise:\n  init_error_prob: 2.0\n")
        code, _ = run_cli("simulate", "--config", str(cfg))
        assert code != 0
        err = capsys.readouterr().err
        assert "init_error_prob" in err

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param("seed: true\n", "seed", id="seed-bool"),
            pytest.param("shots_per_term: true\n", "shots_per_term", id="shots-bool"),
            pytest.param("shots_per_term: 1\n", "shots_per_term", id="one-shot"),
            pytest.param("noise: {readout_threshold: .nan}\n", "readout_threshold", id="threshold-nan"),
            pytest.param("noise: {lambda_bright: 1.0e+30}\n", "lambda_bright", id="lambda-huge"),
            # 1e30, the form a record writes, is a float too, out of range
            pytest.param("noise: {lambda_bright: 1e30}\n", "lambda_bright", id="lambda-string"),
            pytest.param("noise: {charge_good_prob: 1.0e-320}\n", "charge_good_prob",
                         id="expected-attempts-inf"),
            pytest.param("shots_per_term: 10\nnoise:\n  charge_good_prob: 0.0\n", "charge_good_prob",
                         id="charge-never-passes"),
            pytest.param("noise: {charge_good_prob: 1.0e-6}\n", "charge_good_prob",
                         id="expected-attempts-1e10"),
            pytest.param("noise: {readout_thresh: 4}\n", "readout_thresh", id="unknown-noise-key"),
            pytest.param("noise: {bright_state_is_one: 0}\n", "bright_state_is_one", id="polarity-int"),
            pytest.param("1: 2\nfoo: 3\n", "foo", id="unknown-keys-mixed-types"),
            pytest.param("noise: {1: 2, foo: 3}\n", "foo", id="unknown-noise-keys-mixed-types"),
            pytest.param(f"noise: {{readout_threshold: {'9' * 400}}}\n", "readout_threshold",
                         id="threshold-400-digits"),
            pytest.param(f"shots_per_term: {'9' * 400}\n", "shots_per_term", id="shots-400-digits"),
            pytest.param("noise: {pulse_angle_error_std: 1.0e+308}\n", "pulse_angle_error_std",
                         id="pulse-std-huge"),
            pytest.param("noise: {pulse_angle_error_std: 1.5}\n", "pulse_angle_error_std",
                         id="pulse-std-above-1"),
        ],
    )
    def test_invalid_input_exits_2(self, tmp_path, capsys, monkeypatch, text, field):
        def never(config):
            raise AssertionError("the shot loop was started")

        monkeypatch.setattr("kcbsim.experiment.run_protocol", never)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        code, _ = run_cli("simulate", "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 2
        assert "ConfigError" in err and field in err

    def test_exponent_form_reads_as_a_float(self, tmp_path):
        # as in JSON and YAML 1.2; YAML 1.1 reads both as strings
        cfg = tmp_path / "exponent.yaml"
        cfg.write_text("noise: {lambda_bright: 1e9, init_error_prob: 1e-05}\n")
        noise = build_run_config(load_config_file(cfg)).noise
        assert (noise.lambda_bright, noise.init_error_prob) == (1e9, 1e-05)

    def test_float_shots_name_the_integer_rule(self, tmp_path, capsys, no_shot_loop):
        cfg = tmp_path / "float-shots.yaml"
        cfg.write_text("shots_per_term: 1e4\n")
        code, rec = run_cli("simulate", "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 2 and rec is None
        assert "ConfigError: shots_per_term must be an integer, got 10000.0" in err

    @pytest.mark.parametrize("doc", ["seed: {}\n", "noise: {{lambda_bright: {}}}\n"],
                             ids=["seed", "lambda_bright"])
    def test_nested_aliases_give_a_short_error(self, tmp_path, capsys, no_shot_loop, doc):
        # five levels of nine-fold YAML aliases: a few hundred bytes that
        # load as 9**5 leaves, whose full repr is about 200 KB
        value = "&a0 [0, 0, 0, 0, 0, 0, 0, 0, 0]"
        for k in range(1, 5):
            value = f"&a{k} [{value}" + f", *a{k - 1}" * 8 + "]"
        cfg = tmp_path / "aliases.yaml"
        cfg.write_text(doc.format(value))
        code, rec = run_cli("simulate", "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 2 and rec is None
        assert "Traceback" not in err and "ConfigError" in err
        assert len(err.encode()) < 1024, len(err.encode())

    @pytest.mark.parametrize(
        "doc, message",
        # explicit "? key" entries: YAML caps implicit keys at 1024 characters
        [(f"? {'k' * 200_000}\n: 1\n", "unknown keys ['kkk"),
         (f"noise:\n  ? {'k' * 100_000}\n  : 1\n", "unknown noise keys ['kkk")],
        ids=["top-level", "noise"],
    )
    def test_long_unknown_key_gives_a_short_error(self, tmp_path, capsys, no_shot_loop, doc, message):
        cfg = tmp_path / "long-key.yaml"
        cfg.write_text(doc)
        code, rec = run_cli("simulate", "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 2 and rec is None
        assert "Traceback" not in err and f"ConfigError: {message}" in err
        assert len(err.encode()) < 1024, len(err.encode())

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_csv_exits_2_before_the_run(self, tmp_path, capsys, no_shot_loop, where):
        path = tmp_path / "missing" / "terms.csv" if where == "missing-directory" else tmp_path
        code, rec = run_cli("simulate", "--shots", "20", "--csv", str(path))
        err = capsys.readouterr().err
        assert code == 2 and rec is None
        assert "ConfigError" in err and "--csv" in err

    def test_failed_csv_write_exits_2(self, capsys, monkeypatch):
        path = "/dev/full"  # every write fails with ENOSPC
        if not os.path.exists(path):

            class Full(io.StringIO):
                def write(self, text):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr("kcbsim.cli.open", lambda *a, **k: Full(), raising=False)
        code, rec = run_cli("simulate", "--shots", "10", "--csv", path)
        err = capsys.readouterr().err
        assert code == 2 and rec is None
        assert f"ConfigError: --csv {path}: cannot write (" in err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys, no_shot_loop):
        cfg = tmp_path / "binary.yaml"
        cfg.write_bytes(b"\xff\xfe\x00")
        code, _ = run_cli("simulate", "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 2
        assert "ConfigError" in err and str(cfg) in err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_config_path_that_is_no_file_exits_2(self, tmp_path, capsys, no_shot_loop, where):
        # a directory exists, so it is not reported as missing
        path = tmp_path / "missing.yaml" if where == "missing" else tmp_path
        code, rec = run_cli("simulate", "--config", str(path))
        err = capsys.readouterr().err
        assert code == 2 and rec is None
        message = "not found" if where == "missing" else "is not a regular file"
        assert f"ConfigError: config file {message}: {path}" in err

    def test_huge_threshold_is_fast(self, tmp_path):
        # the Poisson tails cost the same at any threshold
        cfg = tmp_path / "run.yaml"
        cfg.write_text("noise: {readout_threshold: 1.0e+12}\n")
        t0 = time.perf_counter()
        code, rec = run_cli("simulate", "--config", str(cfg), "--shots", "20")
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        assert rec["readout_misassignment"] == {"assign1_given0": 0.0, "assign0_given1": 1.0}

    @pytest.mark.parametrize("name", ["nope", "../presets/ideal"], ids=["nope", "path"])
    def test_unknown_preset(self, name, capsys):
        code, _ = run_cli("simulate", "--preset", name)
        assert code == 2
        assert name in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("shots: 100\n")
        code, _ = run_cli("simulate", "--config", str(cfg))
        assert code != 0
        assert "shots" in capsys.readouterr().err

    def test_paper_preset_loads(self):
        code, rec = run_cli(
            "simulate", "--preset", "paper-2015", "--shots", "500", "--seed", "1"
        )
        assert code == 0
        assert rec["preset"] == "paper-2015"
        assert rec["discarded_shots"] > 0


def run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter and return its stdout."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize(
    "argv",
    [["exact"], ["validate"], ["simulate", "--shots", "200"], ["spectrum"]],
    ids=lambda argv: argv[0],
)
def test_record_names_command_and_wall_clock(argv):
    code, rec = run_cli(*argv)
    assert code == 0
    assert rec["command"] == argv[0]
    assert math.isfinite(rec["wall_clock_seconds"]) and rec["wall_clock_seconds"] >= 0


@pytest.mark.parametrize(
    "argv", [["exact"], ["validate"], ["simulate", "--shots", "200"]], ids=lambda argv: argv[0]
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # as `kcbsim exact | head -c 10` does: the reader is gone before the
    # record is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kcbsim", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1


class TestImports:
    MONTE_CARLO_STACK = ("numpy", "yaml", "csv", "concurrent.futures", "kcbsim.config", "kcbsim.model",
                         "kcbsim.experiment")

    def test_exact_and_validate_skip_the_monte_carlo_stack(self):
        loaded = run_fresh(
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from kcbsim.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['exact']), main(['validate'])]\n"
            f"print(json.dumps([codes, [m for m in {self.MONTE_CARLO_STACK!r} if m in sys.modules]]))\n"
        )
        assert json.loads(loaded) == [[0, 0], []]

    def test_spectrum_and_bare_import_skip_the_monte_carlo_stack(self):
        loaded = run_fresh(
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "import kcbsim\n"
            f"bare = [m for m in {self.MONTE_CARLO_STACK!r} if m in sys.modules]\n"
            "from kcbsim.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = main(['spectrum'])\n"
            f"print(json.dumps([bare, code, [m for m in {self.MONTE_CARLO_STACK!r} if m in sys.modules]]))\n"
        )
        assert json.loads(loaded) == [[], 0, []]

    def test_submodules_resolve_on_attribute_access(self):
        out = run_fresh(
            "import kcbsim\n"
            "print(kcbsim.model.exact_tables.__module__)\n"
            "print(kcbsim.config.load_preset.__module__, kcbsim.experiment.run_protocol.__module__)\n"
        )
        assert out.split() == ["kcbsim.model", "kcbsim.config", "kcbsim.experiment"]

    def test_config_and_exact_backend_skip_the_sampler(self):
        out = run_fresh(
            "import sys\n"
            "import kcbsim.config\n"
            "from kcbsim.config import build_run_config, load_preset\n"
            "noise = build_run_config(load_preset('paper-2015')).noise\n"
            "programs = kcbsim.model.shot_programs('forward')\n"
            "print(kcbsim.model.exact_tables(noise, programs).shape, 'kcbsim.experiment' in sys.modules)\n"
        )
        assert out.split() == ["(6,", "2,", "2)", "False"]

    def test_other_names_stay_missing(self):
        import kcbsim

        assert not hasattr(kcbsim, "run_protocol")
        with pytest.raises(AttributeError, match="initialize"):
            kcbsim.initialize


class TestNmrFrequencies:
    def test_reference_constants(self):
        low, high = nmr_frequencies(NvParameters())
        # 0.3077 kHz/G * 5636 G = 1.7341972 MHz on either side of 4.95 MHz
        assert low == pytest.approx(3.2158028, abs=1e-7)
        assert high == pytest.approx(6.6841972, abs=1e-7)
        assert low == pytest.approx(3.2158, abs=1e-3)
        assert high == pytest.approx(6.6842, abs=1e-3)

    def test_zero_field_degenerate(self):
        low, high = nmr_frequencies(NvParameters(field_gauss=0.0))
        assert (low, high) == (4.95, 4.95)

    def test_zero_gyromagnetic_degenerate(self):
        low, high = nmr_frequencies(NvParameters(gyromagnetic_khz_per_gauss=0.0))
        assert (low, high) == (4.95, 4.95)

    def test_sorted_even_past_crossing(self):
        low, high = nmr_frequencies(NvParameters(field_gauss=20000.0))
        assert low <= high

    def test_invalid_parameters(self):
        with pytest.raises(NonFinite):
            NvParameters(quadrupole_mhz=float("nan"))
        with pytest.raises(ConfigError):
            NvParameters(field_gauss=-1.0)


class TestSpectrum:
    def test_reference_values(self):
        code, rec = run_cli("spectrum")
        assert code == 0
        assert rec["f_low_mhz"] == pytest.approx(3.2158, abs=1e-3)
        assert rec["f_high_mhz"] == pytest.approx(6.6842, abs=1e-3)
        defaults = NvParameters()
        assert rec["quadrupole_mhz"] == defaults.quadrupole_mhz
        assert rec["gyromagnetic_khz_per_gauss"] == defaults.gyromagnetic_khz_per_gauss
        assert rec["field_gauss"] == defaults.field_gauss

    def test_zero_field(self):
        _, rec = run_cli("spectrum", "--B", "0")
        assert rec["f_low_mhz"] == rec["f_high_mhz"] == pytest.approx(4.95)

    def test_zero_gyromagnetic(self):
        _, rec = run_cli("spectrum", "--gamma-n", "0")
        assert rec["f_low_mhz"] == rec["f_high_mhz"] == pytest.approx(4.95)

    def test_nonfinite_rejected(self, capsys):
        code, _ = run_cli("spectrum", "--Q", "nan")
        assert code != 0

    def test_overflowing_frequency_exits_2(self, capsys):
        code, rec = run_cli("spectrum", "--gamma-n", "1e308", "--B", "1e308")
        assert code == 2 and rec is None
        assert "NonFinite" in capsys.readouterr().err


# Any YAML scalar or list the schema might meet: numbers of every size and
# kind (nan, inf, subnormal, huge integers, and in-range values so that
# runs happen too), booleans, strings and null.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=0.0, max_value=1.0)
    | st.text(max_size=8)
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3)
_KEYS = st.sampled_from(["pair_order", "seed", "shots_per_term"]) | st.text(max_size=8) | st.integers()
_NOISE = (
    st.fixed_dictionaries({}, optional={f.name: _VALUES for f in dataclasses.fields(NoiseModel)})
    | st.dictionaries(st.text(max_size=8) | st.integers(), _VALUES, max_size=3)
    | _VALUES
)
_DOCS = st.builds(
    lambda top, noise, has_noise: {**top, "noise": noise} if has_noise else top,
    st.dictionaries(_KEYS, _VALUES, max_size=4),
    _NOISE,
    st.booleans(),
)


#: A probability drawn as 10^U, U in [-12, 0]: below 1e-4 a record writes
#: it in exponent form.
_PROBABILITIES = st.floats(-12.0, 0.0).map(lambda u: 10.0**u)


@st.composite
def run_configs(draw) -> RunConfig:
    """RunConfigs whose probabilities are _PROBABILITIES, charge_good_prob
    raised to at least MIN_SHOTS / MAX_ATTEMPTS, so that some shot count
    keeps the expected attempts within MAX_ATTEMPTS."""
    std, init, flip, charge = (draw(_PROBABILITIES) for _ in range(4))
    charge = max(charge, MIN_SHOTS / MAX_ATTEMPTS)
    shots = draw(st.integers(MIN_SHOTS, int(MAX_ATTEMPTS * charge)))
    assume(shots / charge <= MAX_ATTEMPTS)  # rounding at the edge
    noise = NoiseModel(
        pulse_angle_error_std=std, init_error_prob=init, nuclear_flip_prob=flip, charge_good_prob=charge,
        lambda_bright=draw(st.floats(0.0, LAMBDA_MAX)), lambda_dark=draw(st.floats(0.0, LAMBDA_MAX)),
        readout_threshold=draw(st.integers(0, 10**12)), bright_state_is_one=draw(st.booleans()),
    )
    seed = draw(st.integers(0, 2**64 - 1))
    return RunConfig(seed, shots, noise, draw(st.sampled_from(["forward", "reverse"])))


class TestConfigRoundTrip:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=run_configs())
    def test_json_config_loads_back_to_an_equal_run_config(self, tmp_path, config):
        # JSON writes each float as its repr, as a record does
        fd, path = tempfile.mkstemp(suffix=".json", dir=tmp_path)
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(dataclasses.asdict(config)))
        assert build_run_config(load_config_file(path)) == config


class _Dumper(yaml.SafeDumper):
    """yaml.SafeDumper that resolves plain scalars as the config loader
    does, so that it quotes every string the loader would read as another
    type: '1e5', which YAML 1.1 leaves a string, is a float there."""

    yaml_implicit_resolvers = config._Loader.yaml_implicit_resolvers


def same_document(a, b) -> bool:
    """a == b, types included, with NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_document(v, b[k]) for k, v in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_document, a, b))
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_DOCS)
    @example(doc={"pair_order": "1e5"})
    def test_any_mapping_gives_a_record_or_exit_2(self, tmp_path, capsys, doc):
        # a fresh file per example: on ext4, a file truncated and rewritten
        # is flushed to disk at close, tens of ms per example
        fd, path = tempfile.mkstemp(suffix=".yaml", dir=tmp_path)
        with os.fdopen(fd, "w") as fh:
            fh.write(yaml.dump(doc, Dumper=_Dumper))
        assert same_document(load_config_file(path), doc)
        code, rec = run_cli("simulate", "--config", path, "--shots", "20")
        err = capsys.readouterr().err
        if code == 0:
            assert set(rec["terms"]) == set(TERM_NAMES)
        else:
            assert code == 2 and rec is None
            name = err.split(":")[1].strip()
            assert issubclass(getattr(errors, name), errors.KcbsimError), err
