"""Tests for Table 1 energy accounting."""

import pytest

from repro.hardware.energy import EnergyModel, MICA_ENERGY_TABLE


def test_table1_values_match_paper():
    assert MICA_ENERGY_TABLE["transmit_packet"] == pytest.approx(20.0)
    assert MICA_ENERGY_TABLE["receive_packet"] == pytest.approx(8.0)
    assert MICA_ENERGY_TABLE["idle_listen_ms"] == pytest.approx(1.25)
    assert MICA_ENERGY_TABLE["eeprom_read_16b"] == pytest.approx(1.111)
    assert MICA_ENERGY_TABLE["eeprom_write_16b"] == pytest.approx(83.333)


def test_idle_listening_dominates():
    """The paper's §4 premise: one second of idle listening outweighs
    dozens of packet operations."""
    model = EnergyModel()
    one_second_idle = model.radio_energy_nah(0, 0, 1000.0)
    sixty_tx = model.radio_energy_nah(60, 0, 0.0)
    assert one_second_idle > sixty_tx


def test_radio_energy_linear_combination():
    model = EnergyModel()
    assert model.radio_energy_nah(2, 3, 10.0) == pytest.approx(
        2 * 20.0 + 3 * 8.0 + 10.0 * 1.25
    )


def test_eeprom_energy():
    model = EnergyModel()
    assert model.eeprom_energy_nah(3, 2) == pytest.approx(
        3 * 1.111 + 2 * 83.333
    )


def test_eeprom_write_75x_read():
    ratio = MICA_ENERGY_TABLE["eeprom_write_16b"] / MICA_ENERGY_TABLE["eeprom_read_16b"]
    assert 70 < ratio < 80


def test_custom_table():
    model = EnergyModel({"transmit_packet": 1.0, "receive_packet": 1.0,
                         "idle_listen_ms": 1.0, "eeprom_read_16b": 1.0,
                         "eeprom_write_16b": 1.0})
    assert model.radio_energy_nah(1, 1, 1.0) == 3.0


def test_node_energy_combines_radio_and_eeprom():
    from repro.hardware.eeprom import Eeprom
    from repro.radio.radio import Radio
    from repro.sim.kernel import Simulator

    sim = Simulator()
    radio = Radio(sim, 0)
    radio.turn_on()
    sim.now = 100.0
    radio.transmitting = True
    radio.tx_finished(20.0)
    radio.frames_received = 2
    flash = Eeprom()
    flash.write("k", b"x" * 16)
    model = EnergyModel()
    expected = model.radio_energy_nah(1, 2, radio.idle_listen_ms()) + \
        model.eeprom_energy_nah(0, 1)
    assert model.node_energy_nah(radio, flash) == pytest.approx(expected)


def _stock():
    from repro.experiments.common import grid_deployment

    return grid_deployment(5, 5, "mnp", 2, 16, 2).run_to_completion()


def _coded_secure():
    from repro.core.auth import SecurityConfig
    from repro.experiments.common import grid_deployment

    return grid_deployment(
        4, 4, "coded_mnp", 2, 16, 5, security=SecurityConfig(enabled=True),
    ).run_to_completion()


def _deluge():
    from repro.experiments.common import grid_deployment

    return grid_deployment(5, 5, "deluge", 2, 16, 2).run_to_completion()


def _crashed():
    from repro.experiments.chaos import run_chaos, standard_plan

    return run_chaos(standard_plan("crash", 0.7, 5, 5), rows=5, cols=5,
                     n_segments=1, segment_packets=16, seed=2)


@pytest.mark.parametrize("scenario", [_stock, _coded_secure, _deluge,
                                      _crashed],
                         ids=["stock", "coded_secure", "deluge", "crash"])
def test_idle_listen_time_is_never_negative(scenario):
    """Radio-on time always covers the time spent transmitting and
    receiving, so the idle remainder needs no clamp: it is read as is,
    and it is never below zero, with no tolerance."""
    run = scenario()
    assert run.all_complete
    for radio in run.deployment.channel.radios.values():
        idle = radio.on_time_ms() - radio.tx_time_ms() - radio.rx_time_ms()
        assert idle >= 0.0, radio
        assert radio.idle_listen_ms() == idle
