import pytest

from fermi_rpa.config import RunConfig, default_config, load_config
from fermi_rpa.errors import ParseError


def test_default_config_packaged():
    cfg = default_config()
    assert cfg == RunConfig()
    assert cfg.tol == 1e-10
    assert cfg.max_pairs == 2
    assert cfg.version == 1


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

