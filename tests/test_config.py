import pytest

from fermi_rpa.config import RunConfig, load_config
from fermi_rpa.errors import ParseError


def test_defaults_without_config_file():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.tol == 1e-10
    assert cfg.max_pairs == 2


def test_partial_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"tol": 1e-8}')
    cfg = load_config(str(path))
    assert cfg.tol == 1e-8
    assert cfg.max_pairs == 2


def test_malformed_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_config(str(path))


@pytest.mark.parametrize("value", ["2.9", "0.5", "true", '"2"'])
@pytest.mark.parametrize("key", ["version", "max_pairs"])
def test_non_integer_counts_rejected(tmp_path, key, value):
    # never truncated to int
    path = tmp_path / "cfg.json"
    path.write_text('{"%s": %s}' % (key, value))
    with pytest.raises(ParseError, match=f"{key} must be an integer, got {value}"):
        load_config(str(path))
