"""The unified loading adapter: one door for every circuit source."""

import warnings

import pytest

from repro.circuit.examples import paper_example_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.sequential import S27_LIKE, ScanCircuit, parse_sequential_bench
from repro.classify.conditions import Criterion
from repro.classify.engine import classify
from repro.classify.session import CircuitSession
from repro.errors import CircuitError
from repro.loading import as_core, load

COMB = """\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
"""


@pytest.fixture
def seq_path(tmp_path):
    path = tmp_path / "s27.bench"
    path.write_text(S27_LIKE)
    return path


@pytest.fixture
def comb_path(tmp_path):
    path = tmp_path / "tiny.bench"
    path.write_text(COMB)
    return path


class TestLoad:
    def test_circuit_passes_through(self):
        circuit = paper_example_circuit()
        assert load(circuit) is circuit
        assert as_core(circuit) is circuit

    def test_scan_circuit_passes_through(self):
        scan = parse_sequential_bench(S27_LIKE, name="s27")
        assert load(scan) is scan
        assert as_core(scan) is scan.core

    def test_bench_path_combinational(self, comb_path):
        circuit = load(comb_path)
        assert isinstance(circuit, Circuit)
        assert circuit.name == "tiny"

    def test_bench_path_autodetects_dff(self, seq_path):
        loaded = load(seq_path)
        assert isinstance(loaded, ScanCircuit)
        assert loaded.num_flipflops == 3
        assert isinstance(load(str(seq_path), scan=True), ScanCircuit)

    def test_suite_name(self):
        assert isinstance(load("c17"), Circuit)

    def test_name_override(self, comb_path):
        assert load(comb_path, name="renamed").name == "renamed"

    def test_scan_mismatches_rejected(self, comb_path):
        with pytest.raises(CircuitError, match="no flip-flops"):
            load(comb_path, scan=True)
        with pytest.raises(CircuitError):
            load(paper_example_circuit(), scan=True)
        with pytest.raises(CircuitError):
            load("c17", scan=True)

    def test_unloadable_object_is_type_error(self):
        with pytest.raises(TypeError, match="cannot load"):
            load(42)

    def test_as_core_protocol_duck_typing(self):
        core = paper_example_circuit()

        class Wrapper:
            def as_core(self):
                return core

        assert load(Wrapper()) is core


class TestEverySurfaceAcceptsEverySource:
    def test_session_accepts_scan_and_path(self, seq_path):
        scan = parse_sequential_bench(S27_LIKE, name="s27")
        assert CircuitSession(scan).circuit is scan.core
        assert isinstance(CircuitSession(str(seq_path)).circuit, Circuit)

    def test_classify_accepts_scan(self):
        from repro.sorting import pin_order_sort

        scan = parse_sequential_bench(S27_LIKE, name="s27")
        sort = pin_order_sort(scan.core)
        direct = classify(scan.core, Criterion.SIGMA_PI, sort=sort)
        via_adapter = classify(scan, Criterion.SIGMA_PI, sort=sort)
        assert via_adapter.accepted == direct.accepted
        assert via_adapter.total_logical == direct.total_logical

    def test_tightness_accepts_scan(self):
        from repro.verdict.tightness import tightness_row

        scan = parse_sequential_bench(S27_LIKE, name="s27")
        row = tightness_row(scan, Criterion.SIGMA_PI, "pin")
        assert row.circuit == "s27"

    def test_new_surface_is_warning_free(self, seq_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            load(seq_path)
            as_core(seq_path)
            CircuitSession(str(seq_path))
