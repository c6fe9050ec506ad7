import ast
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qetsim
from qetsim import LoccTranscript, MinimalModelParams, _kernels, run_longrange_qet
from qetsim.sampler import readout_law


def test_benchmark_entry_points_exist(monkeypatch):
    # perfbench/invoke.py reads these on every invocation, and its traced
    # runs look the layer modules up in sys.modules by name; losing one
    # fails every benchmark run
    import qetsim.cli

    assert qetsim.backend_name() == "numpy"
    assert qetsim._kernels is _kernels
    assert isinstance(qetsim.__version__, str) and qetsim.__version__
    # perfbench calls build_parser() once before it times main; main parses
    # with the parser that call returned and runs the cmd_* function bound in
    # the module when it runs, where a traced run has put its wrapper
    parser = qetsim.cli.build_parser()
    for argv in (["table1"], ["sweep"], ["tiling", "--q", "7"], ["qet", "--h", "1", "--k", "1"],
                 ["qed", "--h", "1", "--k", "1", "--q", "6"], ["longrange", "--h", "1", "--k", "1"]):
        assert parser.parse_args(argv).command == argv[0]
        assert callable(getattr(qetsim.cli, f"cmd_{argv[0]}"))
    parsed, ran = [], []
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: parsed.append(argv) or parse(argv))
    monkeypatch.setattr(qetsim.cli, "cmd_tiling", lambda args: ran.append(args.q) or 0)
    assert qetsim.cli.main(["tiling", "--q", "7"]) == 0
    assert parsed == [["tiling", "--q", "7"]] and ran == [7]
    # perfbench wraps LoccTranscript.serialize from the class body and
    # counts the transcript's bits from run_longrange_qet's second value
    assert "serialize" in vars(LoccTranscript)
    # perfbench times output by wrapping these by name; every command's
    # output goes through _write_text
    assert callable(qetsim.cli._write_text) and callable(qetsim.cli._emit_record)
    assert run_longrange_qet(MinimalModelParams(1, 1), 3)[1].bit_count() == 7
    # a traced run looks every layer module up in sys.modules right after
    # `import qetsim.cli`; in a fresh interpreter that import loads them all
    layers = ("cli", "model", "protocol", "sampler", "teleport", "ops", "_kernels")
    src = os.path.dirname(os.path.dirname(qetsim.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, qetsim.cli; "
         f"print([m for m in {layers!r} if 'qetsim.' + m not in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "[]"
    # perfbench/spans.py counts shots and outcomes from sample_protocol's
    # arguments, the plan the 4th positional one; a hook that no longer
    # fits them fails only in the benchmark's report, so run it here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    sample = tracer.wrap("sampler.sample_protocol", qetsim.sample_protocol)
    bundle = qetsim.star_model(qetsim.StarModelParams(9.0, 2.0, 6))
    receivers = (1, 2)
    law = readout_law(qetsim.run_protocol(bundle, receivers))
    sample(bundle, law, receivers, qetsim.ShotPlan("X", 1000, 3))
    assert tracer.hook_errors == []
    assert tracer.counters["sampler.shots"] == 1000


def test_hypothesis_can_report_a_falsifying_example():
    # a failing property prints its example through this module; under the
    # suite's warnings-as-errors filters its import must not raise, or the
    # run ends in an INTERNALERROR instead of the example
    importlib.import_module("hypothesis.extra._patching")


def test_package_source_parses_at_the_oldest_supported_python():
    # pyproject's requires-python is the floor: every module parses with that
    # feature_version, which rejects newer syntax such as except* (3.11)
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    floor = tuple(map(int, floor))
    assert floor == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
    sources = sorted((root / "src" / "qetsim").glob("*.py"))
    assert len(sources) == 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_readme_python_examples_run(capsys):
    # the README's library examples, in order and in one namespace, so an
    # API change that leaves them stale fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert "[1, 7, 21, 56, 147]" in capsys.readouterr().out


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every `qetsim ...` line of the README's shell blocks, comments dropped,
    # through cli.main in a scratch directory, so a renamed command or flag
    # that leaves them stale fails here
    import qetsim.cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["qetsim"]]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert qetsim.cli.main(argv) == 0, argv
