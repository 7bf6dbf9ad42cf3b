"""Config grammar, validation, round-trip, and the CLI pipeline."""

import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscsim import cli
from dscsim.config import (
    MeanFieldSettings,
    SweepAxis,
    apply_override,
    load_config,
    parse_config,
    resolve_pde,
    serialize_config,
    sweep_grid,
    sweep_points,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
[environment]
c0 = 150.0

[sensor]
c_star = 154.5
tau_star = 5
r_star = 40.0

[network]
n = 400
width = 1000.0
height = 1000.0
"""

SMALL_RUN = MINIMAL + """
[run]
steps = 60
n_seeds = 3
"""


# "section.key" -> annotation of every config key, from the section dataclasses.
_BASE = parse_config(MINIMAL)
KEY_TYPES = {
    f"{section.name}.{f.name}": f.type
    for section in fields(_BASE)
    if section.name != "sweep"
    for f in fields(getattr(_BASE, section.name))
}
FLOAT_KEYS = sorted(path for path, kind in KEY_TYPES.items() if kind == "float")
INT_KEYS = sorted(path for path, kind in KEY_TYPES.items() if kind == "int")


def _with_value(path: str, raw: str) -> str:
    """MINIMAL, fully serialized, with one key's value text replaced."""
    section, key = path.split(".")
    head, sep, tail = serialize_config(_BASE).partition(f"[{section}]\n")
    return head + sep + re.sub(rf"^{key} = .*$", f"{key} = {raw}", tail, count=1, flags=re.M)


class TestParsing:
    def test_minimal_config_gets_reference_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.environment.gamma == pytest.approx(26.0 / 3.0)
        assert cfg.environment.omega == 0.98
        assert cfg.network.initial_active == 10
        assert cfg.meanfield.g == 0.7
        assert cfg.network.delta == 0.0
        assert cfg.network.seed == 0

    def test_missing_sensor_threshold_is_an_error(self):
        text = MINIMAL.replace("c_star = 154.5\n", "")
        with pytest.raises(ValueError, match="c_star"):
            parse_config(text)

    def test_missing_section_is_an_error(self):
        with pytest.raises(ValueError, match="sensor"):
            parse_config("[environment]\nc0 = 1.0\n[network]\nn = 10\nwidth = 1\nheight = 1\n")

    @pytest.mark.parametrize("section", ["environment", "sensor", "network"])
    def test_each_section_without_a_default_is_required(self, section):
        text = re.sub(rf"\[{section}\]\n(?:\w.*\n)*", "", MINIMAL)
        with pytest.raises(ValueError, match=rf"missing required section \[{section}\]"):
            parse_config(text)

    def test_unknown_key_is_a_hard_error(self):
        for extra in ("\n[run]\nstep_count = 10\n", "\n[meanfield]\nnu = 1.0\n"):
            with pytest.raises(ValueError, match="unknown key"):
                parse_config(MINIMAL + extra)

    def test_unknown_section_is_a_hard_error(self):
        with pytest.raises(ValueError, match="unknown section"):
            parse_config(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_syntax_error_carries_line_number(self):
        bad = MINIMAL + "\nthis is not a key value pair\n"
        with pytest.raises(ValueError, match="line"):
            parse_config(bad)

    def test_invariant_violation_reported(self):
        text = MINIMAL.replace("c0 = 150.0", "c0 = -1.0")
        with pytest.raises(ValueError, match="c0"):
            parse_config(text)

    def test_typed_value_error_names_key(self):
        text = MINIMAL.replace("tau_star = 5", "tau_star = five")
        with pytest.raises(ValueError, match="tau_star"):
            parse_config(text)

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("path", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, path, raw):
        # the section's own check names the key; 1e400 reads as inf
        shown = "inf" if raw == "1e400" else raw
        with pytest.raises(ValueError, match=f"^{path.partition('.')[2]} must be .+, got {shown}$"):
            parse_config(_with_value(path, raw))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["g", "t_detect", "v_star"])
    def test_meanfield_settings_reject_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MeanFieldSettings(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", True, np.True_])
    @pytest.mark.parametrize("path", INT_KEYS)
    def test_non_integer_count_rejected_naming_its_field(self, path, value):
        # run.n_seeds = 2.0 used to fail in analysis.sweep, pde.seed_columns =
        # 2.5 in run_pde, network.n = 50.0 inside numpy.
        key = path.partition(".")[2]
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            apply_override(_BASE, path, value)

    @pytest.mark.parametrize("path", INT_KEYS)
    def test_numpy_integer_count_accepted(self, path):
        section, _, key = path.partition(".")
        value = np.int64(getattr(getattr(_BASE, section), key))
        cfg = apply_override(_BASE, path, value)
        assert getattr(getattr(cfg, section), key) is value

    def test_negative_seed_rejected(self):
        # numpy used to reject it late (simulate) or not at all (meanfield)
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            parse_config(MINIMAL + "seed = -1\n")

    @pytest.mark.parametrize("line, key", [
        ("dt = -0.05", "dt"), ("diffusivity = -320.0", "diffusivity"),
        ("alpha = -0.4", "alpha"), ("level = -1", "level"), ("level = 1.5", "level"),
    ])
    def test_pde_values_out_of_range_rejected(self, line, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            parse_config(MINIMAL + f"\n[pde]\n{line}\n")

    def test_rotation_period_zero_disables(self):
        cfg = parse_config(MINIMAL + "\nrotation_period = 0\n")
        assert cfg.network.rotation_period == 0

    def test_booleans(self):
        cfg = parse_config(MINIMAL + "single_shot = true\nrefresh_on_detect = no\n")
        assert cfg.network.single_shot is True
        assert cfg.network.refresh_on_detect is False

    @pytest.mark.parametrize("name", ["demo-sparse.ini", "demo-dense.ini"])
    def test_shipped_demo_configs_valid(self, name):
        path = CONFIGS / name
        cfg = load_config(path)
        assert cfg.network.n == 400
        assert cfg.sweep  # both demos carry a sweep grid


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        text = SMALL_RUN + """
[meanfield]
g = 0.9

[sweep]
sensor.r_star = 20, 27.5, 40
network.delta = 0.0, 0.05
"""
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_preserves_float_precision(self):
        cfg = parse_config(MINIMAL.replace("c0 = 150.0", "c0 = 150.00000000000003"))
        assert parse_config(serialize_config(cfg)).environment.c0 == cfg.environment.c0

    # Fraction(1, 3) used to serialize as 1/3, which parse_config rejects, and
    # np.float32(1 / 3) as 0.33333334, which is not the value the run used.
    @pytest.mark.parametrize("value", [Fraction(1, 3), np.float32(1 / 3)], ids=repr)
    @pytest.mark.parametrize("path", FLOAT_KEYS)
    def test_overridden_real_round_trips(self, path, value):
        value = value + 2 if path == "environment.gamma" else value  # gamma > 2
        cfg = apply_override(_BASE, path, value)
        section, _, key = path.partition(".")
        assert type(getattr(getattr(cfg, section), key)) is float
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)], ids=str)
    def test_real_beyond_the_float_range_rejected(self, value):
        with pytest.raises(ValueError, match="^r_star must be within the float range, got "):
            apply_override(_BASE, "sensor.r_star", value)


_INTS = st.integers(-(2**63), 2**63)
_VALUES = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "int": _INTS,
    "int | None": st.none() | _INTS,
    "bool": st.booleans(),
}
_SWEEPABLE = sorted(
    path for path in KEY_TYPES
    if path.split(".")[0] in ("environment", "sensor", "network", "run")
    and path not in ("run.n_seeds", "network.seed")
)


@st.composite
def _configs(draw):
    """Valid configs with a few keys and sweep axes drawn from every key's type."""
    cfg = _BASE
    for path in draw(st.lists(st.sampled_from(sorted(KEY_TYPES)), max_size=6, unique=True)):
        try:
            cfg = apply_override(cfg, path, draw(_VALUES[KEY_TYPES[path]]))
        except ValueError:
            pass  # the value breaks an invariant of its section; keep the old one
    axes = []
    for path in draw(st.lists(st.sampled_from(_SWEEPABLE), max_size=2, unique=True)):
        kind = KEY_TYPES[path].replace(" | None", "")
        values = draw(st.lists(_VALUES[kind], min_size=1, max_size=3))
        axis = SweepAxis(path=path, values=tuple(values))
        try:
            sweep_grid(replace(cfg, sweep=(*axes, axis)))
        except ValueError:
            continue  # a value breaks an invariant of its section; drop the axis
        axes.append(axis)
    return replace(cfg, sweep=tuple(axes))


class TestRoundTripProperty:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(cfg=_configs())
    def test_parse_serialize_round_trip(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg


class TestSweep:
    def test_points_in_file_order(self):
        cfg = parse_config(SMALL_RUN + "\n[sweep]\nsensor.r_star = 20, 40\nnetwork.delta = 0.0, 0.1\n")
        points = sweep_points(cfg)
        assert points == [
            {"sensor.r_star": 20.0, "network.delta": 0.0},
            {"sensor.r_star": 20.0, "network.delta": 0.1},
            {"sensor.r_star": 40.0, "network.delta": 0.0},
            {"sensor.r_star": 40.0, "network.delta": 0.1},
        ]

    def test_unknown_sweep_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            parse_config(SMALL_RUN + "\n[sweep]\nsensor.gain = 1, 2\n")

    @pytest.mark.parametrize("path", ["run.n_seeds", "network.seed", "meanfield.g", "pde.nx"])
    def test_axis_that_sweep_never_reads_rejected(self, path):
        with pytest.raises(ValueError, match=f"sweep axis '{path}'"):
            parse_config(SMALL_RUN + f"\n[sweep]\n{path} = 1, 3\n")

    @pytest.mark.parametrize("path, raw, reason", [
        ("sensor.r_star", "20, abc", "could not convert"),
        ("sensor.r_star", "20, inf", "r_star must be finite and > 0, got inf"),
        ("network.delta", "nan, 0.1", r"delta must be in \[0, 1\], got nan"),
        ("sensor.tau_star", "5, 2.5", "invalid literal for int"),
        ("network.single_shot", "yes, maybe", "not a boolean"),
    ])
    def test_bad_axis_value_names_its_axis(self, path, raw, reason):
        with pytest.raises(ValueError, match=f"bad value for {path}: {reason}"):
            parse_config(SMALL_RUN + f"\n[sweep]\n{path} = {raw}\n")

    @pytest.mark.parametrize("path, raw, reason", [
        ("sensor.r_star", "-5, 20", "r_star must be finite and > 0, got -5.0"),
        ("network.n", "0", "n must be an integer >= 1, got 0"),
        ("network.initial_active", "1000", r"permanent sensors \(0\) plus initial_active"),
        ("sensor.tau_star", "0",
         r"tau_star must be an integer in \[1, 9223372036854775807\], got 0"),
    ])
    def test_point_its_section_rejects_names_its_axis(self, path, raw, reason):
        # used to pass parse_config, so meanfield, pde and simulate ran on it
        with pytest.raises(ValueError, match=f"^bad value for {path}: {reason}"):
            parse_config(SMALL_RUN + f"\n[sweep]\n{path} = {raw}\n")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="values"):
            parse_config(SMALL_RUN + "\n[sweep]\nsensor.r_star =\n")

    def test_apply_override(self):
        cfg = parse_config(MINIMAL)
        assert apply_override(cfg, "network.seed", 9).network.seed == 9
        with pytest.raises(ValueError, match="path"):
            apply_override(cfg, "network.frequency", 1.0)


# [pde] settings whose dt is finite and > 0 but whose 1 / dt is infinite:
# given explicitly, and derived as dx^2 / (8 d) = 1.25e-321.
SUBNORMAL_DT = ["dt = 5e-324\n", "dx = 1e-160\ndiffusivity = 1.0\n"]

# [pde] settings whose dx is finite but whose dx^2 overflows, with dt given
# explicitly and derived from dx.
HUGE_DX = ["dx = 1e200\ndt = 0.05\n", "dx = 1e200\n"]


class TestResolvePde:
    def test_derived_fields_filled(self):
        pde = resolve_pde(parse_config(MINIMAL))
        assert pde.diffusivity == pytest.approx(40.0 ** 2 / 5)  # r*^2 / tau*
        assert pde.dt > 0
        assert pde.dt <= pde.dx ** 2 / (4 * pde.diffusivity)
        assert pde.alpha > 0

    def test_explicit_values_win(self):
        cfg = parse_config(MINIMAL + "\n[pde]\ndiffusivity = 320.0\ndt = 0.05\nalpha = 0.4\n"
                           "level = 0.25\nrecord_every = 3\n")
        pde = resolve_pde(cfg)
        assert (pde.diffusivity, pde.dt, pde.alpha, pde.level, pde.record_every) == (
            320.0, 0.05, 0.4, 0.25, 3)

    def test_one_record_per_time_unit_by_default(self):
        cfg = parse_config(MINIMAL + "\n[pde]\ndiffusivity = 320.0\ndt = 0.0625\n")
        assert resolve_pde(cfg).record_every == 16

    @pytest.mark.parametrize("pde", SUBNORMAL_DT, ids=["explicit", "derived"])
    def test_dt_too_small_to_count_steps_rejected(self, pde):
        with pytest.raises(ValueError, match=r"^1 / dt must be finite, got inf$"):
            resolve_pde(parse_config(MINIMAL + "\n[pde]\n" + pde))

    @pytest.mark.parametrize("pde", HUGE_DX, ids=["explicit-dt", "derived-dt"])
    def test_dx_with_overflowing_square_rejected(self, pde):
        with pytest.raises(ValueError, match=r"^dx \*\* 2 must be finite, got inf$"):
            resolve_pde(parse_config(MINIMAL + "\n[pde]\n" + pde))

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_level_bounds_accepted(self, level):
        assert parse_config(MINIMAL + f"\n[pde]\nlevel = {level}\n").pde.level == level


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_RUN + "\n[sweep]\nsensor.r_star = 20, 40\n", encoding="utf-8")
    return path


class TestCli:
    def test_sample_csv_shape(self, tmp_path, config_file):
        assert cli.main(["sample", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "step,concentration"
        assert len(lines) == 61

    def test_simulate_deterministic_bytes(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out_a / "simulation.csv").read_bytes() == (out_b / "simulation.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert "config" in manifest and "versions" in manifest

    def test_simulate_seed_override_changes_output(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(config_file), "--out", str(out_a)]) == 0
        assert cli.main(
            ["simulate", "--config", str(config_file), "--out", str(out_b), "--seed", "123"]
        ) == 0
        assert (out_a / "simulation.csv").read_bytes() != (out_b / "simulation.csv").read_bytes()

    def test_sweep_row_count_and_manifest(self, tmp_path, config_file):
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 3  # header + points x seeds
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["points"] == [{"sensor.r_star": 20.0}, {"sensor.r_star": 40.0}]
        assert manifest["n_seeds"] == 3
        assert "dscsim" in manifest["versions"]

    def test_sweep_then_analyze_pipeline(self, tmp_path, config_file):
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        assert cli.main(["analyze", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert {"g", "power_law", "per_point", "sweep_axes"} <= set(report)
        assert len(report["per_point"]) == 2

    @pytest.mark.parametrize("column", ["alpha_theory_g1", "plateau_mean"])
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_analyze_non_finite_sweep_is_error_exit(self, tmp_path, config_file, capsys,
                                                    column, cell):
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        path = tmp_path / "sweep.csv"
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        at = header.index(column)
        for row in rows:
            row[at] = cell
        path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
        assert cli.main(["analyze", "--config", str(config_file), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"dscsim analyze: error: sweep column {column} is '{cell}' at point 0\n")
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_outputs_refuse_non_finite_values(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_json(path, {"g": 1.0, "r0": [value]})
        assert not path.exists()

    def test_full_pipeline_deterministic(self, tmp_path, config_file):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            cli.main(["sweep", "--config", str(config_file), "--out", str(out)])
            cli.main(["analyze", "--config", str(config_file), "--out", str(out)])
            outs.append((out / "sweep.csv").read_bytes() + (out / "analysis.json").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_parallel_matches_serial(self, tmp_path, config_file):
        out_a, out_b = tmp_path / "serial", tmp_path / "par"
        cli.main(["sweep", "--config", str(config_file), "--out", str(out_a)])
        cli.main(["sweep", "--config", str(config_file), "--out", str(out_b), "--jobs", "2"])
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_meanfield_report_values(self, tmp_path, config_file, capsys):
        assert cli.main(["meanfield", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "meanfield.json").read_text())
        assert report["p"] == pytest.approx(0.33250340634535513, abs=1e-12)
        assert report["n_star"] == 796
        assert report["c_star_opt"] == pytest.approx(93.61515510144592, abs=1e-9)
        assert report["theta"] is None  # subcritical at these parameters
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_pde_front_csv(self, tmp_path):
        path = tmp_path / "pde.ini"
        path.write_text(
            MINIMAL + "\n[pde]\nnx = 120\nny = 8\ndx = 10.0\nt_end = 40.0\n"
            "diffusivity = 320.0\nalpha = 0.4\nlevel = 0.25\ndt = 0.0625\n",
            encoding="utf-8",
        )
        assert cli.main(["pde", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "front.csv").read_text().splitlines()
        assert lines[0] == "time,front_position"
        assert len(lines) > 10

    @pytest.mark.parametrize("pde", SUBNORMAL_DT, ids=["explicit", "derived"])
    def test_pde_dt_too_small_is_error_exit_naming_dt(self, tmp_path, capsys, pde):
        path = tmp_path / "pde.ini"
        path.write_text(MINIMAL + "\n[pde]\n" + pde, encoding="utf-8")
        assert cli.main(["pde", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^dscsim pde: error: 1 / dt must be finite", err, re.MULTILINE), err

    @pytest.mark.parametrize("pde", HUGE_DX, ids=["explicit-dt", "derived-dt"])
    def test_pde_dx_too_large_is_error_exit_naming_dx(self, tmp_path, capsys, pde):
        # dx ** 2 used to raise OverflowError, reported without a key
        path = tmp_path / "pde.ini"
        path.write_text(MINIMAL + "\n[pde]\n" + pde, encoding="utf-8")
        assert cli.main(["pde", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^dscsim pde: error: dx \*\* 2 must be finite", err, re.MULTILINE), err

    @pytest.mark.parametrize("r_star, message", [
        # used to exit with "float division by zero"
        ("1e-170", r"r_star \*\* 2 must be finite and > 0, got 0.0"),
        # used to exit with "(34, 'Numerical result out of range')"
        ("1e200", r"r_star \*\* 2 must be finite and > 0, got inf"),
        # r_star ** 2 is the least subnormal, and a fifth of it rounds to 0
        ("2.3e-162", r"diffusivity = r_star\^2 / tau_star must be finite and > 0, got 0.0"),
    ])
    def test_pde_derived_diffusivity_out_of_range_is_error_exit(self, tmp_path, capsys,
                                                                r_star, message):
        text = (CONFIGS / "demo-dense.ini").read_text(encoding="utf-8")
        text = re.sub(r"^(dt|diffusivity) = .*\n", "", text, flags=re.M)
        path = tmp_path / "pde.ini"
        path.write_text(text.replace("r_star = 65.0", f"r_star = {r_star}"), encoding="utf-8")
        assert cli.main(["pde", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert re.fullmatch(f"dscsim pde: error: {message}\n", capsys.readouterr().err)

    def test_missing_config_is_error_exit(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.ini"),
                         "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_is_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[environment]\nc0 = -5\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_error_exit(self, tmp_path, config_file, capsys, jobs):
        argv = ["sweep", "--config", str(config_file), "--out", str(tmp_path), "--jobs", jobs]
        assert cli.main(argv) == 1
        assert f"jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("subcommand", ["sample", "simulate", "meanfield"])
    def test_jobs_rejected_where_unread(self, tmp_path, config_file, capsys, subcommand):
        argv = [subcommand, "--config", str(config_file), "--out", str(tmp_path), "--jobs", "7"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 7" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("subcommand, jobs, message", [
        # dispatch("simulate", ..., jobs=4) and dispatch("pde", ..., jobs=1.5)
        # used to return 0
        ("simulate", 4, "simulate takes no jobs, got 4"),
        ("sample", 2, "sample takes no jobs, got 2"),
        ("meanfield", 3, "meanfield takes no jobs, got 3"),
        ("pde", 1.5, "jobs must be an integer >= 1, got 1.5"),
        ("sweep", 2.0, "jobs must be an integer >= 1, got 2.0"),
        ("analyze", "2", "jobs must be an integer >= 1, got '2'"),
        ("simulate", 1.0, "jobs must be an integer >= 1, got 1.0"),
        ("simulate", 0, "jobs must be an integer >= 1, got 0"),
    ])
    def test_dispatch_rejects_jobs_it_cannot_use(self, tmp_path, subcommand, jobs, message):
        with pytest.raises(ValueError, match=message):
            cli.dispatch(subcommand, _BASE, tmp_path, jobs=jobs)
        assert not any(tmp_path.iterdir())

    def test_dispatch_rejects_an_unknown_subcommand(self, tmp_path):
        with pytest.raises(ValueError, match="^unknown subcommand 'plot'$"):
            cli.dispatch("plot", _BASE, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_main_without_a_config_is_error_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DSCSIM_CONFIG", raising=False)
        assert cli.main(["simulate", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "dscsim simulate: error: --config is required (or set DSCSIM_CONFIG)\n")
        assert not any(tmp_path.iterdir())

    def test_analyze_reads_the_input_path(self, tmp_path, config_file):
        default, given = tmp_path / "default", tmp_path / "given"
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(default)]) == 0
        assert cli.main(["analyze", "--config", str(config_file), "--out", str(default)]) == 0
        moved = tmp_path / "elsewhere.csv"
        (default / "sweep.csv").rename(moved)
        assert cli.main(["analyze", "--config", str(config_file), "--out", str(given),
                         "--input", str(moved)]) == 0
        assert (given / "analysis.json").read_bytes() == (default / "analysis.json").read_bytes()
        assert not (given / "sweep.csv").exists()

    def test_dispatch_accepts_jobs_on_pde(self, tmp_path):
        config = parse_config(MINIMAL + "\n[pde]\nnx = 12\nny = 2\nt_end = 3.0\ndt = 0.0625\n")
        assert cli.dispatch("pde", config, tmp_path, jobs=2) == 0
        assert (tmp_path / "front.csv").exists()

    @pytest.mark.parametrize("subcommand", ["meanfield", "pde", "sweep", "simulate"])
    def test_tau_star_beyond_the_timers_is_named(self, tmp_path, capsys, subcommand):
        # used to exit with "int too large to convert to float", or with
        # "Python int too large to convert to C long" from simulate
        text = (CONFIGS / "demo-dense.ini").read_text(encoding="utf-8")
        path = tmp_path / "huge.ini"
        path.write_text(re.sub(r"^tau_star = .*$", f"tau_star = {10**309}", text, flags=re.M),
                        encoding="utf-8")
        assert cli.main([subcommand, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"dscsim {subcommand}: error: tau_star must be an integer in "
            f"[1, 9223372036854775807], got {10**309}\n")
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("subcommand", ["meanfield", "pde", "simulate"])
    def test_negative_seed_is_error_exit(self, tmp_path, config_file, capsys, subcommand):
        argv = [subcommand, "--config", str(config_file), "--out", str(tmp_path), "--seed=-1"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"dscsim {subcommand}: error: seed must be an integer >= 0, got -1\n")
        assert not (tmp_path / "manifest.json").exists()

    def test_env_var_jobs_zero_is_error_exit(self, tmp_path, config_file, capsys, monkeypatch):
        monkeypatch.setenv("DSCSIM_JOBS", "0")
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(tmp_path)]) == 1
        assert "jobs must be an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name, command, output", [
        pytest.param("DSCSIM_JOBS", "sweep", "sweep.csv", id="DSCSIM_JOBS"),
        pytest.param("DSCSIM_SEED", "simulate", "simulation.csv", id="DSCSIM_SEED"),
    ])
    def test_env_var_not_an_integer_is_error_exit(self, tmp_path, config_file, capsys,
                                                  monkeypatch, name, command, output):
        monkeypatch.setenv(name, "abc")
        assert cli.main([command, "--config", str(config_file), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"dscsim {command}: error: {name} must be an integer, got 'abc'\n"
        assert not (tmp_path / output).exists()

    def test_env_var_jobs_unread_where_jobs_is_rejected(self, tmp_path, config_file,
                                                       monkeypatch):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(config_file), "--out", str(out_a)])
        monkeypatch.setenv("DSCSIM_JOBS", "abc")
        assert cli.main(["simulate", "--config", str(config_file), "--out", str(out_b)]) == 0
        assert (out_a / "simulation.csv").read_bytes() == (out_b / "simulation.csv").read_bytes()

    def test_env_var_seed_override(self, tmp_path, config_file, monkeypatch):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(config_file), "--out", str(out_a), "--seed", "77"])
        monkeypatch.setenv("DSCSIM_SEED", "77")
        cli.main(["simulate", "--config", str(config_file), "--out", str(out_b)])
        assert (out_a / "simulation.csv").read_bytes() == (out_b / "simulation.csv").read_bytes()
