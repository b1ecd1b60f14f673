import json

import pytest

from autoplex import cli
from autoplex.automata import Dfa


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_debruijn_text(capsys):
    code, out, _ = run(capsys, "debruijn", "--order", "3")
    assert code == 0
    assert out.strip() == "00010111"


def test_debruijn_rotated_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "debruijn", "--order", "3", "--rotate", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"order": 3, "rotation": 3, "bits": "10111000"}


def test_psc_zone_and_verify(capsys):
    code, out, _ = run(capsys, "psc", "zone", "--n", "1")
    assert (code, out.strip()) == (0, "01")
    code, out, _ = run(capsys, "psc", "verify", "--n", "5")
    assert (code, out.strip()) == (0, "ok")


def test_tseq_len_log10(capsys):
    code, out, _ = run(capsys, "tseq", "len", "--zone", "4", "--mode", "exact", "--log10")
    assert code == 0
    assert int(out) > 1000


def test_dfa_accepts_from_stdin(capsys, monkeypatch):
    m = Dfa(states=2, start=0, accept=frozenset([0]), delta=((0, 1), (1, 1)))
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(m.to_json()))
    code, out, _ = run(capsys, "dfa", "accepts", "--string", "000", "--unique")
    assert (code, out.strip()) == (0, "yes")


def test_dfa_count_len_bounded_by_prefix_cap(capsys, monkeypatch):
    import io

    full = Dfa(states=1, start=0, accept=frozenset([0]), delta=((0, 0),)).to_json()
    monkeypatch.setattr("sys.stdin", io.StringIO(full))
    code, out, _ = run(capsys, "--prefix-cap", "10", "dfa", "count", "--len", "10")
    assert (code, out.strip()) == (0, "1024")
    for argv in (["--prefix-cap", "10", "dfa", "count", "--len", "11"], ["dfa", "count", "--len", "-1"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(full))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"states": true, "start": 0, "accept": [0], "delta": [[0, 0]]}',
        '{"states": 1, "start": 0, "accept": [0], "delta": [[0.0, 0]]}',
        "[1, 2]",
    ],
)
def test_dfa_malformed_json_exits_one(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "dfa", "count", "--len", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_acx_exact_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "acx", "exact", "--string", "0110")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 4


def test_witness_case_materialize(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "witness", "case",
        "--case", "2", "--n", "3", "--plen", "2", "--materialize",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["unique"] is True
    assert payload["uniquely_accepts_target"] is True


def test_witness_mhat_big_ints_survive_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "witness", "mhat")
    payload = json.loads(out)
    assert code == 0
    assert payload["solutions"] == [[2, 3, 9, 13]]
    # counts beyond 2^53 are emitted as strings to avoid float rounding
    assert isinstance(payload["state_count"], str)


def test_dio_solve_with_family(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "dio", "solve",
        "--coeffs", "3,5", "--const", "0", "--target", "15", "--min-var", "0:1",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["solutions"] == [[5, 0]]
    assert payload["unique"] is True
    base = payload["family"]["base"]
    assert 3 * base[0] + 5 * base[1] == 15


def test_rates_series_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "rates", "series",
                       "--which", "case3", "--n-list", "6,8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,bound_num,bound_den,bound_decimal"
    assert len(lines) == 3


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "5")
    assert code == 0
    assert "FAIL" not in out


def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "psc", "zone", "--n", "99")
    assert code == 1
    assert err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(["psc", "zone"])
    assert exc.value.code == 2


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("AUTOPLEX_ZONE_CAP", "3")
    code, _, err = run(capsys, "psc", "zone", "--n", "4")
    assert code == 1
    assert err
