import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import pytest

from turanlab import errors
from turanlab.cli import main
from turanlab.serialize import dumps_canonical

CHAIN = {"n": 2, "edges": [[0], [0, 1]]}
K4_MINUS = {"n": 4, "edges": [[0, 1, 2], [0, 1, 3], [0, 2, 3]]}
# `lagrangian K4_MINUS --restarts 2 --seed 0 --certify` before the result
# gained the value_exact and method keys; the ascent path must not move
K4_MINUS_ASCENT = (
    '{"certificate_point":["1/3","2/9","2/9","2/9"],'
    '"certified_lower_bound":"8/27",'
    '"maximizer":[0.33333333333325416,0.2222222222222486,'
    '0.2222222222222486,0.2222222222222486],'
    '"stationarity_residual":3.1652458432063213e-13,'
    '"support":[0,1,2,3],"value":0.2962962962962963}'
)
FANO = {
    "n": 7,
    "edges": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6],
              [2, 4, 5]],
}
CHAIN_FAMILY = {
    "ambient": [1, 2],
    "members": [CHAIN],
    "mode": "subgraph",
}
TRIANGLE_FAMILY = {"ambient": [2], "members": [{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}]}
BIPARTITE_GEN = {"kind": "turan", "params": {"parts": 2, "n_start": 4, "n_step": 2}}
ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def declared_console_script(name):
    """The ``module:attr`` that pyproject.toml's [project.scripts] gives ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    return str(path)


@pytest.fixture
def k4_minus_file(tmp_path):
    path = tmp_path / "k4_minus.json"
    path.write_text(json.dumps(K4_MINUS))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(CHAIN_FAMILY))
    return str(path)


@pytest.fixture
def gen_file(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(BIPARTITE_GEN))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name,refusal", [
    ("InvalidHypergraphError", True),
    ("UnsupportedSizeError", True),
    ("OutOfRangeError", True),
    ("ParseError", True),
    ("CertificateError", False),
    ("OptimizerFailureError", False),
])
def test_refusals_of_input_are_invalid_argument_errors(name, refusal):
    # main maps every InvalidArgumentError to exit 2, and the two failures
    # of a valid computation to exit 3
    assert issubclass(getattr(errors, name), errors.InvalidArgumentError) is refusal


class TestLubell:
    def test_value(self, capsys, chain_file):
        code, out, _ = run_cli(capsys, "lubell", chain_file)
        assert code == 0
        assert json.loads(out) == {"edge_count": 2, "n": 2, "value": "3/2"}

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CHAIN)))
        code, out, _ = run_cli(capsys, "lubell", "-")
        assert code == 0 and json.loads(out)["value"] == "3/2"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "lubell", "/nonexistent/g.json")
        assert code == 2 and "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "lubell", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_duplicate_edges(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n": 2, "edges": [[0, 1], [1, 0]]}')
        code, _, err = run_cli(capsys, "lubell", str(path))
        assert code == 2 and "duplicate" in err

    def test_decimal_hint_on_a_terminal(self, capsys, chain_file, monkeypatch):
        # stdout keeps the one JSON line, and the hint goes to stderr
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        code, out, err = run_cli(capsys, "lubell", chain_file)
        assert code == 0 and json.loads(out)["value"] == "3/2"
        assert err == "# value = 3/2 ~ 1.5\n"

    def test_tsv_not_available(self, capsys, chain_file):
        # only turan takes --format
        with pytest.raises(SystemExit) as exc:
            main(["lubell", chain_file, "--format", "tsv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestLagrangian:
    def test_chain_certified(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "lagrangian", chain_file, "--restarts", "6", "--seed", "1",
            "--certify",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certified_lower_bound"] == "9/8"
        assert payload["certificate_point"] == ["3/4", "1/4"]
        assert '"method":"exact_kkt"' in out
        assert '"value_exact":"9/8"' in out

    def test_ascent_output_unchanged(self, capsys, k4_minus_file):
        code, out, _ = run_cli(
            capsys, "lagrangian", k4_minus_file, "--restarts", "2", "--seed", "0",
            "--certify",
        )
        assert code == 0
        assert '"method":"ascent"' in out
        assert '"value_exact":null' in out
        payload = json.loads(out)
        del payload["method"], payload["value_exact"]
        assert dumps_canonical(payload) == K4_MINUS_ASCENT

    def test_no_certificate_by_default(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "lagrangian", chain_file, "--restarts", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certified_lower_bound"] is None
        assert abs(payload["value"] - 1.125) < 1e-8

    def test_pattern_input(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"n": 1, "edges": [{"mults": [2]}]}')
        code, out, _ = run_cli(capsys, "lagrangian", str(path), "--restarts", "4")
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0) < 1e-9

    @pytest.mark.parametrize("edges", [{"a": [0, 1]}, 5, True])
    def test_malformed_edges_are_bad_input(self, capsys, tmp_path, edges):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "edges": edges}))
        code, out, err = run_cli(capsys, "lagrangian", str(path))
        assert code == 2 and out == ""
        assert err == "error: input.edges: expected a list\n"

    def test_byte_identical_across_runs(self, capsys, chain_file):
        _, out1, _ = run_cli(
            capsys, "lagrangian", chain_file, "--restarts", "6", "--seed", "5",
            "--certify",
        )
        _, out2, _ = run_cli(
            capsys, "lagrangian", chain_file, "--restarts", "6", "--seed", "5",
            "--certify",
        )
        assert out1 == out2

    def test_threads_flag_removed(self, capsys, chain_file):
        # the optimizer runs its supports in one thread; there is no pool
        with pytest.raises(SystemExit) as exc:
            main(["lagrangian", chain_file, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_tsv_refused_before_the_work(self, capsys, chain_file, monkeypatch):
        def maximize(*args, **kwargs):
            raise AssertionError("maximize ran before the format was checked")

        monkeypatch.setattr("turanlab.lagrangian.maximize", maximize)
        with pytest.raises(SystemExit) as exc:
            main(["lagrangian", chain_file, "--format", "tsv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_optimizer_failure_exit_code(self, capsys, k4_minus_file):
        code, _, err = run_cli(
            capsys, "lagrangian", k4_minus_file, "--restarts", "0",
            "--max-iters", "1",
        )
        assert code == 3 and "error" in err
        assert "(1 of 1 ascents stalled)" in err

    @pytest.mark.parametrize("command", ["lagrangian", "certify"])
    def test_negative_seed_is_bad_input(self, capsys, tmp_path, command):
        # the 3-edges send maximize to the seeded float ascent
        path = tmp_path / "in.json"
        if command == "lagrangian":
            path.write_text(json.dumps(K4_MINUS))
            argv = ["lagrangian", str(path)]
        else:
            path.write_text(json.dumps({"ambient": [3], "members": [K4_MINUS]}))
            argv = ["certify", "1/2", str(path)]
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be >= 0, not -1\n"


class TestTuran:
    def test_json_output(self, capsys, family_file):
        code, out, _ = run_cli(capsys, "turan", family_file, "--n-max", "3")
        assert code == 0
        payload = json.loads(out)
        assert [r["pi_n"] for r in payload["records"]] == ["1/1", "1/1"]
        assert "elapsed" not in out and "seconds" not in out

    def test_tsv_output(self, capsys, family_file):
        code, out, _ = run_cli(
            capsys, "turan", family_file, "--n-max", "3", "--format", "tsv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n\tpi_n\tcount\tseconds"
        assert len(lines) == 3

    def test_json_deterministic(self, capsys, family_file):
        _, out1, _ = run_cli(capsys, "turan", family_file, "--n-max", "3")
        _, out2, _ = run_cli(capsys, "turan", family_file, "--n-max", "3")
        assert out1 == out2

    def test_triangle_family(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FAMILY))
        code, out, _ = run_cli(capsys, "turan", str(path), "--n-max", "4")
        payload = json.loads(out)
        assert payload["records"][-1]["pi_n"] == "2/3"

    def test_mode_override(self, capsys, tmp_path):
        path = tmp_path / "path3.json"
        path.write_text(
            '{"ambient": [2], "members": [{"n": 3, "edges": [[0, 1], [1, 2]]}]}'
        )
        code, out, _ = run_cli(capsys, "turan", str(path), "--n-max", "4")
        assert code == 0
        assert json.loads(out)["records"][-1]["pi_n"] == "1/3"
        code, out, _ = run_cli(
            capsys, "turan", str(path), "--n-max", "4", "--mode", "induced"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "induced"
        assert payload["records"][-1]["pi_n"] == "1/1"

    def test_cap_exceeded(self, capsys, family_file):
        code, _, err = run_cli(capsys, "turan", family_file, "--n-max", "9")
        assert code == 2

    def test_failed_computation_exit_code(self, capsys, family_file, monkeypatch):
        # a TuranLabError from valid input is a failure (3), not bad input (2)
        def fail(*args, **kwargs):
            raise errors.TuranLabError("monotonicity violated")

        monkeypatch.setattr("turanlab.turansearch.density_sequence", fail)
        code, out, err = run_cli(capsys, "turan", family_file, "--n-max", "3")
        assert (code, out, err) == (3, "", "error: monotonicity violated\n")

    def test_progress_goes_to_stderr_only(self, capsys, tmp_path):
        # the mixed pair has 1 543 free classes on 6 vertices
        path = tmp_path / "mixed_pair.json"
        path.write_text(
            '{"ambient":[1,2],"members":[{"n":2,"edges":[[0],[1],[0,1]]}]}'
        )
        code, plain, _ = run_cli(capsys, "turan", str(path), "--n-max", "6")
        assert code == 0
        code, out, err = run_cli(
            capsys, "turan", str(path), "--n-max", "6", "--progress"
        )
        assert code == 0
        assert out == plain
        assert "searched 1000 graphs" in err


class TestClassify12:
    def test_weak(self, capsys):
        code, out, _ = run_cli(capsys, "classify12", "3/4")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "weak_jump" and payload["k"] == 3

    def test_strong_with_witness_flag(self, capsys):
        code, out, _ = run_cli(capsys, "classify12", "11/10", "--witness")
        payload = json.loads(out)
        assert payload["verdict"] == "strong_jump"
        assert payload["witness"] is None

    def test_weak_with_witness_flag(self, capsys):
        code, out, _ = run_cli(capsys, "classify12", "9/8", "--witness")
        payload = json.loads(out)
        assert payload["witness"]["point"] == ["3/4", "1/4"]

    def test_huge_witness_refused(self, capsys):
        code, out, _ = run_cli(capsys, "classify12", "4999/5000")
        assert code == 0 and json.loads(out)["k"] == 4999
        code, _, err = run_cli(capsys, "classify12", "4999/5000", "--witness")
        assert code == 2 and "must be <= 1024, not 5000" in err

    def test_decimal_rejected(self, capsys):
        code, _, err = run_cli(capsys, "classify12", "1.1")
        assert code == 2 and "11/10" in err

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "classify12", "21/10")
        assert code == 2 and "outside" in err


class TestCertify:
    def test_strict_success(self, capsys, family_file):
        code, out, _ = run_cli(
            capsys, "certify", "11/10", family_file, "--strict", "--seed", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] == "1/40"
        assert payload["kind"] == "strong_jump"

    def test_refusal_exit_code(self, capsys, family_file):
        code, _, err = run_cli(
            capsys, "certify", "9/8", family_file, "--strict"
        )
        assert code == 3 and "certificate failed" in err

    def test_asserted_pi(self, capsys, family_file):
        code, out, _ = run_cli(
            capsys, "certify", "11/10", family_file, "--strict",
            "--pi", "1/1", "--pi-detail", "known",
        )
        assert code == 0
        assert json.loads(out)["pi_evidence"]["grade"] == "asserted"

    @pytest.mark.parametrize("detail,expected", [
        ([], "asserted on the command line"),
        (["--pi-detail", ""], ""),
    ], ids=["default", "empty"])
    def test_asserted_pi_detail_is_kept_as_given(self, capsys, family_file, detail, expected):
        # an empty note is a note: it is written, not replaced by the default
        code, out, _ = run_cli(
            capsys, "certify", "11/10", family_file, "--pi", "1", *detail,
        )
        assert code == 0
        assert f'"detail":{json.dumps(expected)}' in out

    def test_exhaustive_evidence(self, capsys, tmp_path):
        path = tmp_path / "path3.json"
        path.write_text(
            '{"ambient": [2], "members": [{"n": 3, "edges": [[0, 1], [1, 2]]}]}'
        )
        code, out, _ = run_cli(
            capsys, "certify", "2/5", str(path), "--exhaustive-n", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pi_evidence"]["grade"] == "exhaustive"
        assert payload["pi_evidence"]["value"] == "1/5"

    def test_asserted_and_searched_evidence_refused_together(self, capsys, tmp_path):
        # argparse refuses the pair before the (missing) family file is read
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as exc:
            main(["certify", "11/10", missing, "--pi", "1", "--exhaustive-n", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with argument" in err and "cannot read" not in err

    def test_pi_detail_needs_pi(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(
            capsys, "certify", "11/10", missing, "--pi-detail", "my note"
        )
        assert (code, out, err) == (2, "", "error: --pi-detail needs --pi\n")

    def test_exhaustive_n_on_a_catalogue_family(self, capsys, tmp_path):
        # the triangle-free closed form is 1/2, but pi_5 = 3/5 is what was asked
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FAMILY))
        code, out, err = run_cli(
            capsys, "certify", "1/2", str(path), "--exhaustive-n", "5"
        )
        assert code == 3 and out == "" and "3/5 exceeds alpha 1/2" in err


class TestSigma:
    def test_report(self, capsys, gen_file):
        code, out, _ = run_cli(
            capsys, "sigma", gen_file, "--t", "4", "--i-to", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "2/3"
        assert payload["exhaustive"] is True
        assert sorted(payload) == [
            "attaining", "exhaustive", "h_values", "i_range", "t", "value",
        ]

    def test_deterministic(self, capsys, gen_file):
        _, out1, _ = run_cli(capsys, "sigma", gen_file, "--t", "3", "--i-to", "4")
        _, out2, _ = run_cli(capsys, "sigma", gen_file, "--t", "3", "--i-to", "4")
        assert out1 == out2

    def test_t_cap(self, capsys, gen_file):
        code, _, _ = run_cli(capsys, "sigma", gen_file, "--t", "9")
        assert code == 2

    def test_million_vertex_member(self, capsys, tmp_path):
        # members are scored from their blow-up shape, so size is no limit
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"kind": "turan", "params": {"parts": 2, "ns": [1000000]}}
        ))
        code, out, _ = run_cli(
            capsys, "sigma", str(path), "--t", "6", "--i-to", "0"
        )
        assert code == 0
        assert '"value":"3/5"' in out

    def test_samples_flag_removed(self, capsys, gen_file):
        # every member is searched exhaustively, so there is nothing to sample
        with pytest.raises(SystemExit) as exc:
            main(["sigma", gen_file, "--t", "4", "--samples", "10"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_seed_flag_not_accepted(self, capsys, gen_file):
        # only lagrangian and certify draw random starts
        with pytest.raises(SystemExit) as exc:
            main(["sigma", gen_file, "--t", "2", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestSubprocessEntryPoints:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(CHAIN))
        proc = subprocess.run(
            [sys.executable, "-m", "turanlab", "lubell", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "3/2"

    def test_console_script(self):
        """The declared ``turanlab`` script runs the CLI and exits with main()'s code.

        The entry point is run with the body of the wrapper that pip
        generates for it, so no install is needed; an installed script on
        PATH is run too, and an installed distribution must declare the
        same entry point as this checkout.
        """
        declared = declared_console_script("turanlab")
        for installed in entry_points(group="console_scripts", name="turanlab"):
            assert installed.value == declared, (
                f"installed turanlab script runs {installed.value!r}, "
                f"this checkout declares {declared!r}"
            )
        module, _, attr = declared.partition(":")
        wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
        commands = [[sys.executable, "-c", wrapper]]
        script = shutil.which("turanlab")
        if script is not None:
            commands.append([script])
        for command in commands:
            proc = subprocess.run(
                command + ["classify12", "3/4"], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["verdict"] == "weak_jump"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "turanlab", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


# modules that no command may load: numpy, and the two whose imports cost
# each command most of its start-up beyond its own modules
UNWANTED = ("numpy", "dataclasses", "inspect")

# Runs `main(argv)` (or only `import turanlab` when argv is empty) and
# reports on stderr's last two lines the turanlab submodules it loaded and
# which modules of UNWANTED it loaded.
PROBE = (
    "import sys\n"
    "import turanlab\n"
    "code = 0\n"
    "if sys.argv[1:]:\n"
    "    from turanlab.cli import main\n"
    "    code = main(sys.argv[1:])\n"
    "print(*sorted(m.split('.', 1)[1] for m in sys.modules"
    " if m.startswith('turanlab.')),"
    " file=sys.stderr)\n"
    f"print(*(m for m in {UNWANTED!r} if m in sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def checkout_env(**extra):
    """The environment with ``extra`` set and this checkout's ``src`` first
    on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def probe(*argv):
    """(the set of turanlab submodules loaded, the set of UNWANTED modules
    loaded)."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules, unwanted = proc.stderr.splitlines()[-2:]
    return set(modules.split()), set(unwanted.split())


@pytest.fixture
def inputs(tmp_path):
    files = {
        "chain": CHAIN,
        "k4_minus": K4_MINUS,
        "chain_family": CHAIN_FAMILY,
        "triangle_family": TRIANGLE_FAMILY,
        "bipartite": BIPARTITE_GEN,
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(tmp_path / f"{name}.json") for name in files}


# one exact call of each subcommand
EXACT_CALLS = [
    ("lubell", "{chain}"),
    ("lagrangian", "{chain}", "--certify"),
    ("certify", "11/10", "{chain_family}", "--strict"),
    ("classify12", "9/8", "--witness"),
    ("turan", "{triangle_family}", "--n-max", "4"),
    ("sigma", "{bipartite}", "--t", "4"),
]


class TestNumpyStaysUnloaded:
    """No subcommand imports numpy, the float ascent included."""

    def loads_numpy(self, *argv):
        return "numpy" in probe(*argv)[1]

    def test_import(self):
        assert not self.loads_numpy()

    @pytest.mark.parametrize("argv", EXACT_CALLS, ids=lambda argv: argv[0])
    def test_exact_subcommands(self, inputs, argv):
        assert not self.loads_numpy(*(a.format(**inputs) for a in argv))

    def test_ascent_runs_without_it(self, inputs):
        # K4(3)- has 3-edges, so it ascends in floats (test_ascent_output_unchanged)
        assert not self.loads_numpy(
            "lagrangian", inputs["k4_minus"], "--restarts", "2", "--seed", "0"
        )


class TestIntrospectionStaysUnloaded:
    """No subcommand imports dataclasses or inspect, which bring ast, dis and
    tokenize along: the library's values are ``hypercore._Value``s."""

    @pytest.mark.parametrize("argv", EXACT_CALLS, ids=lambda argv: argv[0])
    def test_exact_subcommands(self, inputs, argv):
        loaded = probe(*(a.format(**inputs) for a in argv))[1]
        assert not loaded & {"dataclasses", "inspect"}


class TestAscentIsDeterministic:
    def test_stdout_does_not_depend_on_the_hash_seed(self, tmp_path):
        # each restart seeds its generator with a string, which ``random``
        # hashes with SHA-512, not with the per-process str hash
        path = tmp_path / "fano.json"
        path.write_text(json.dumps(FANO))
        outs = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "turanlab", "lagrangian", str(path),
                 "--restarts", "2", "--seed", "0", "--certify"],
                capture_output=True, text=True, timeout=120,
                env=checkout_env(PYTHONHASHSEED=hash_seed),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["method"] == "ascent"
        assert payload["certified_lower_bound"] == "2/9"


# what every subcommand loads: the front end, the JSON mapping, and the
# hypergraph core that the mapping reads
FRONT_END = {"cli", "errors", "hypercore", "serialize"}
SUBCOMMAND_MODULES = {
    "lubell": set(),
    "lagrangian": {"lagrangian"},
    "turan": {"turansearch"},
    "sigma": {"seqdensity"},
    "classify12": {"jumpcert"},
    "certify": {"jumpcert", "lagrangian", "turansearch"},
}


class TestSubcommandsLoadOnlyTheirModules:
    """The package loads its submodules on first use, so each subcommand
    compiles and runs only the modules it calls."""

    def test_import_loads_no_submodule(self):
        assert probe()[0] == set()

    @pytest.mark.parametrize("argv", EXACT_CALLS, ids=lambda argv: argv[0])
    def test_subcommand(self, inputs, argv):
        loaded = probe(*(a.format(**inputs) for a in argv))[0]
        assert loaded == FRONT_END | SUBCOMMAND_MODULES[argv[0]]
