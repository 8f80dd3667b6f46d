import pytest

from fermi_rpa.config import RunConfig, _parse_config, default_config, load_config
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


@pytest.mark.parametrize("value", ["2.9", "0.5", "true", '"2"'])
@pytest.mark.parametrize("key", ["version", "max_pairs"])
def test_non_integer_counts_rejected(tmp_path, key, value):
    # a full document and, for max_pairs, an override file; never truncated to int
    doc = {"version": "1", "tol": "1e-10", "max_pairs": "2", key: value}
    raw = "{%s}" % ", ".join(f'"{k}": {v}' for k, v in doc.items())
    with pytest.raises(ParseError, match=f"{key} must be an integer, got {value}"):
        _parse_config(raw.encode())
    if key == "max_pairs":
        path = tmp_path / "cfg.json"
        path.write_text('{"max_pairs": %s}' % value)
        with pytest.raises(ParseError, match=f"max_pairs must be an integer, got {value}"):
            load_config(str(path))
