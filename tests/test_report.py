import json

import pytest

import fermi_rpa.report as report
from fermi_rpa.cli import csv_text, main
from fermi_rpa.report import EnergyReport, energy_report, potential_digest
from fermi_rpa import second_order_ratio
from fermi_rpa.rpa_optimal import frequency_brackets


def report_at(n, v):
    return energy_report(n, v, frequency_brackets(v), potential_digest(v))


def test_report_invariants(demo_potential):
    rep = report_at(33, demo_potential)
    assert rep.hbar == pytest.approx(33 ** (-1.0 / 3.0))
    assert rep.corr_delocalized_exact <= 0.0
    assert rep.corr_delocalized_asymptotic <= 0.0
    assert rep.corr_optimal <= 0.0
    assert rep.so_ratio == pytest.approx(second_order_ratio(), abs=1e-12)
    assert rep.hf_total == pytest.approx(rep.hf_kinetic + rep.hf_direct - rep.hf_exchange)
    # the delocalized bound cannot undercut the optimal correlation energy
    assert rep.so_delocalized >= rep.so_optimal


def test_report_serialization(demo_potential):
    rep = report_at(33, demo_potential)
    columns = list(EnergyReport._fields)
    payload = rep._asdict()
    assert list(payload) == columns
    assert tuple(payload.values()) == rep
    json.dumps(payload)  # JSON-safe
    lines = csv_text(columns, [rep]).strip().splitlines()
    assert lines[0] == ",".join(columns)
    assert len(lines) == 2


def test_digest_tracks_potential(demo_potential, weak_potential):
    a = report_at(33, demo_potential).potential
    b = report_at(33, weak_potential).potential
    assert a != b
    assert len(a) == 16


def test_compare_digests_the_potential_once(monkeypatch, capsys):
    calls = []
    original = report.potential_digest
    monkeypatch.setattr(report, "potential_digest", lambda v: calls.append(v) or original(v))
    assert main(["compare", "--n-list", "33,257,2109"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    assert len(calls) == 1
