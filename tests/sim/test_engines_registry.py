"""The engine registry: registration, lookup, and the ``auto`` name."""

import pytest

from repro import FourStateProtocol, InvalidParameterError
from repro.sim import CountEngine, engines
from repro.sim.count_engine import CountEngine as CountEngineClass


@pytest.fixture
def cleanup():
    """Remove any names a test registered."""
    added = []
    yield added.append
    for name in added:
        try:
            engines.unregister(name)
        except InvalidParameterError:
            pass


class TestBuiltins:
    def test_available_lists_policies_then_engines(self):
        assert engines.available() == (
            "auto", "agent", "continuous-time", "count",
            "count-ensemble", "count-ensemble-jit", "count-jit",
            "ensemble", "null-skipping", "rounds")

    def test_auto_routes_instead_of_registering(self):
        # "auto" is listed and accepted, but it names the router, not a
        # registry entry: create() asks route() for one trial.
        with pytest.raises(InvalidParameterError, match="unknown engine"):
            engines.get("auto")
        engine = engines.create(FourStateProtocol(), "auto")
        assert engine.name == "null-skipping"

    def test_unknown_name_lists_choices(self):
        with pytest.raises(InvalidParameterError, match="auto"):
            engines.get("warp-drive")


class TestRegistration:
    def test_register_and_create(self, cleanup):
        engines.register("mine", lambda protocol, **_:
                         CountEngineClass(protocol))
        cleanup("mine")
        engine = engines.create(FourStateProtocol(), "mine")
        assert isinstance(engine, CountEngine)

    def test_duplicate_requires_replace(self, cleanup):
        engines.register("dup", lambda protocol, **_: None)
        cleanup("dup")
        with pytest.raises(InvalidParameterError, match="replace=True"):
            engines.register("dup", lambda protocol, **_: None)
        engines.register("dup", lambda protocol, **_:
                         CountEngineClass(protocol), replace=True)
        assert isinstance(engines.create(FourStateProtocol(), "dup"),
                          CountEngine)

    def test_unregister(self):
        engines.register("ephemeral", lambda protocol, **_: None)
        engines.unregister("ephemeral")
        with pytest.raises(InvalidParameterError):
            engines.get("ephemeral")
        with pytest.raises(InvalidParameterError):
            engines.unregister("ephemeral")

    def test_bad_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            engines.register("", lambda protocol, **_: None)

    def test_auto_name_is_reserved(self):
        with pytest.raises(InvalidParameterError, match="router"):
            engines.register("auto", lambda protocol, **_: None,
                             replace=True)

    def test_graph_requires_supports_graph(self, cleanup):
        engines.register("no-graph", lambda protocol, **_:
                         CountEngineClass(protocol))
        cleanup("no-graph")
        with pytest.raises(InvalidParameterError, match="complete graph"):
            engines.create(FourStateProtocol(), "no-graph",
                           graph=object())
