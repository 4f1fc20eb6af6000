"""Cross-cutting property-based tests (hypothesis).

These generate *random population protocols* (as rule tables over
small state spaces) and random workloads, then assert the structural
guarantees the library promises for every protocol, not just the
built-ins: engines conserve the population, never leave the state
space, stay inside the support closure, and honor seeds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunSpec, TableProtocol, run
from repro.protocols.table import MajorityTableProtocol
from repro.sim import AgentEngine, CountEngine, NullSkippingEngine


def random_table_protocol(draw, max_states=4):
    """Draw a random symmetric table protocol over 2..max_states states."""
    num_states = draw(st.integers(2, max_states))
    states = tuple(f"q{k}" for k in range(num_states))
    state_strategy = st.sampled_from(states)
    transitions = {}
    for i in range(num_states):
        for j in range(i, num_states):
            if draw(st.booleans()):
                transitions[(states[i], states[j])] = (
                    draw(state_strategy), draw(state_strategy))
    outputs = {state: draw(st.sampled_from([0, 1, None]))
               for state in states}
    outputs = {s: v for s, v in outputs.items() if v is not None}
    return TableProtocol(states, transitions, outputs, name="random")


def random_counts(draw, protocol, max_total=12):
    """A random initial configuration with at least 2 agents."""
    counts = {}
    total = 0
    for state in protocol.states:
        c = draw(st.integers(0, 4))
        if c:
            counts[state] = c
            total += c
    if total < 2:
        counts[protocol.states[0]] = counts.get(protocol.states[0], 0) + 2
    return counts


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**20))
def test_engines_conserve_population_on_random_protocols(data, seed):
    protocol = random_table_protocol(data.draw)
    counts = random_counts(data.draw, protocol)
    total = sum(counts.values())
    for engine in (AgentEngine(protocol), CountEngine(protocol),
                   NullSkippingEngine(protocol)):
        result = engine.run(counts, rng=seed, max_steps=300)
        assert sum(result.final_counts.values()) == total
        assert all(state in protocol.states
                   for state in result.final_counts)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**20))
def test_final_states_lie_in_support_closure(data, seed):
    """Everything that ever appears is in the support closure of the
    initial support — the soundness fact TableProtocol.is_settled
    rests on."""
    protocol = random_table_protocol(data.draw)
    counts = random_counts(data.draw, protocol)
    closure = protocol.support_closure(frozenset(counts))
    result = run(RunSpec(protocol, initial=counts, engine="count",
                         seed=seed, max_steps=400))
    assert set(result.final_counts) <= set(closure)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**20))
def test_settled_runs_really_are_settled(data, seed):
    """When an engine reports settled on a random protocol, resuming
    from the final configuration must change no output, ever (checked
    by resuming with a different seed)."""
    protocol = random_table_protocol(data.draw)
    counts = random_counts(data.draw, protocol)
    result = run(RunSpec(protocol, initial=counts, engine="agent",
                         seed=seed, max_steps=400))
    if not result.settled:
        return
    resumed = run(RunSpec(protocol, initial=result.final_counts,
                          engine="agent", seed=seed + 1,
                          max_steps=200))
    assert resumed.settled
    assert resumed.decision == result.decision


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**20))
def test_engines_deterministic_per_seed(data, seed):
    protocol = random_table_protocol(data.draw)
    counts = random_counts(data.draw, protocol)
    spec = RunSpec(protocol, initial=counts, engine="count",
                   seed=seed, max_steps=300)
    first = run(spec)
    second = run(spec)
    assert first.steps == second.steps
    assert first.final_counts == second.final_counts
