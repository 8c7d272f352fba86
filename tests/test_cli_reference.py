"""Each command line of the cli-mix benchmark prints its captured stdout, byte for byte."""

import pytest

from qsde.cli import main

from helpers import load_perfbench

climix = load_perfbench("climix")
REFERENCE = climix.load_reference()


@pytest.mark.parametrize(
    "name, argv", [(name, argv) for name, _, argv, _ in climix.MIX], ids=[m[0] for m in climix.MIX]
)
def test_cli_mix_command_prints_its_capture(tmp_path, monkeypatch, capsys, name, argv):
    climix.write_inputs(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help
        code = exc.code
    expected = REFERENCE[name]["stdout"]
    # the capture predates the flip criterion's closed-form lambda_inf, -2 sqrt(1/16)
    expected = expected.replace(b"-0.49999999999999983", b"-0.5")
    assert capsys.readouterr().out.encode() == expected
    assert code == REFERENCE[name]["exit"]
