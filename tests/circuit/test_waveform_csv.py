"""CSV export of waveforms."""

import numpy as np
import pytest

from repro.circuit.waveform import Waveform, write_csv
from repro.errors import CircuitError


def make_wave(scale=1.0):
    t = np.linspace(0, 1e-9, 11)
    return Waveform(t, scale * t * 1e9)


class TestWriteCSV:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "waves.csv"
        write_csv(path, {"a": make_wave(), "b": make_wave(2.0)})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,a,b"
        assert len(lines) == 12

    def test_values_parse_back(self, tmp_path):
        path = tmp_path / "waves.csv"
        wave = make_wave()
        write_csv(path, {"v": wave})
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert np.allclose(data["time"], wave.time)
        assert np.allclose(data["v"], wave.values)

    def test_time_unit_rescaling(self, tmp_path):
        path = tmp_path / "waves.csv"
        write_csv(path, {"v": make_wave()}, time_unit=1e-12)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data["time"][-1] == pytest.approx(1000.0)  # 1 ns in ps

    def test_mismatched_time_bases_rejected(self, tmp_path):
        other = Waveform(np.linspace(0, 2e-9, 11), np.zeros(11))
        with pytest.raises(CircuitError):
            write_csv(tmp_path / "x.csv", {"a": make_wave(), "b": other})

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(CircuitError):
            write_csv(tmp_path / "x.csv", {})

    def test_transient_result_waveforms(self, tmp_path):
        from repro.circuit.netlist import Circuit
        from repro.circuit.sources import PulseSource
        from repro.circuit.transient import transient_analysis

        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0",
                                   PulseSource(0, 1, rise=1e-11, width=1.0))
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-13)
        [result] = transient_analysis([circuit], t_stop=1e-9, dt=1e-12)
        path = tmp_path / "sim.csv"
        write_csv(path, {"in": result.voltage("in"),
                         "out": result.voltage("out")})
        assert path.exists()
        assert path.read_text().startswith("time,in,out")
