import random
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    pure_trace_distance,
    relay_by_hops,
    relay_identity_check,
    teleport_branches,
)

from qetsim.model import (
    MAX_FIELD_RATIO,
    DegenerateGroundError,
    IllConditionedError,
    MinimalModelParams,
    star_model,
)
from qetsim.protocol import exact_record
from qetsim.teleport import (
    BELL,
    TRANSCRIPT_CHUNK_HOPS,
    LoccTranscript,
    _branch_law,
    _branch_ops,
    relay,
    run_longrange_qet,
)

RNG = np.random.default_rng(31)


def branch_ops():
    """The relay's four branch operators, nested lists, as a (4, 2, 2) array."""
    return np.array(_branch_ops())


def random_amplitudes(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_qubit():
    return random_amplitudes(RNG, 1)


# --- one teleport ---------------------------------------------------------------

def test_teleport_axis_and_random_states_exact():
    # through the gates, the kept (0, 0) branch is every state as it was
    s = 1 / np.sqrt(2)
    axis = [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]]
    panel = np.array(axis + [random_qubit() for _ in range(20)], dtype=complex)
    out, bits = relay_by_hops(panel, 0, 1)
    assert np.max(np.abs(out - panel)) <= 1e-12
    assert bits is None and relay(1)[0] is None


def test_teleport_outcome_probabilities_quarter_exact():
    # dense Born-rule evaluation: after CNOT(0->1) and H(0) on psi (x) Bell,
    # every (m1, m2) readout pattern has probability exactly 1/4, as the
    # branch operators' weights |c_b|^2 say
    perm = [0b000, 0b001, 0b010, 0b011, 0b110, 0b111, 0b100, 0b101]
    cnot = np.eye(8, dtype=complex)[perm]  # flips bit 1 where bit 0 is set
    h0 = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(4))
    for state in (random_qubit(), np.array([1, 0], dtype=complex)):
        amps = np.kron(state, BELL)
        rotated = h0 @ (cnot @ amps)
        probs = np.abs(rotated.reshape(2, 2, 2)) ** 2
        for m1 in (0, 1):
            for m2 in (0, 1):
                assert probs[m1, m2, :].sum() == pytest.approx(0.25, abs=1e-12)
    law = np.abs(np.trace(branch_ops(), axis1=1, axis2=2) / 2) ** 2
    assert np.max(np.abs(law - 0.25)) <= 1e-12


def test_teleport_outcomes_uniform():
    # Born rule: over 800 sampled hops of one qubit, each correction pattern
    # appears with probability 1/4, the gates draw the same bits, and the
    # qubit comes back through them unchanged
    state = random_qubit()
    n = 800
    kept = relay(n, rng=np.random.default_rng(5))[0]
    assert len(kept) == n
    sigma = np.sqrt(n * 0.25 * 0.75)
    for pattern in range(4):  # 2 * m1 + m2
        assert abs(kept.count(pattern) - n / 4) < 5 * sigma, pattern
    out, bits = relay_by_hops(state[None], 0, n, rng=np.random.default_rng(5))
    assert kept.tolist() == bits
    assert pure_trace_distance(state, out[0]) <= 1e-10


def test_teleport_preserves_entanglement():
    # teleport half of an entangled pair through the gates; the 2-qubit state
    # survives whichever branch is kept, and the bits are the relay's
    pair = np.array([0.6, 0, 0, 0.8], dtype=complex)
    for seed in (None, 1, 2, 3):
        streams = [None if seed is None else random.Random(seed) for _ in range(2)]
        out, bits = relay_by_hops(pair[None], 1, 1, rng=streams[0])
        assert pure_trace_distance(pair, out[0]) < 1e-12
        kept = relay(1, streams[1])[0]
        assert bits is None and kept is None if seed is None else kept.tolist() == bits


# --- the branch operators against the per-branch oracle, and their check -------

# turns branch (1, 1)'s operator by 1e-6
TILT = np.zeros((4, 2, 2))
TILT[3] = [[0.0, -1e-6], [1e-6, 0.0]]


def site_view(rows, source):
    """A (B, 2**n) stack viewed as (B, 1, 2**source, 2, rest), source qubit on
    axis 3, for one product with the (4, 1, 2, 2) branch operators."""
    n = rows.shape[-1].bit_length() - 1
    return rows.reshape(len(rows), 1, 2**source, 2, 2 ** (n - 1 - source))


def random_rows(rng, batch, n, dtype=complex):
    rows = rng.normal(size=(batch, 2**n)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        rows += 1j * rng.normal(size=rows.shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


@pytest.mark.parametrize("batch", [1, 2, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kernel_matches_per_branch_oracle(m, batch):
    rng = np.random.default_rng(100 * m + batch)
    ops = branch_ops()[:, None]
    for _ in range(5):
        rows = np.array([random_amplitudes(rng, m) for _ in range(batch)])
        source = int(rng.integers(m))
        unit = np.matmul(ops, site_view(rows, source)).reshape(batch, 4, 2**m)
        probs = np.sum(np.abs(unit) ** 2, axis=-1)
        unit /= np.sqrt(probs)[..., None]
        for row in range(batch):
            oracle = teleport_branches(np.kron(rows[row], BELL), source, (m, m + 1))
            for (m1, m2), (p, reduced) in oracle.items():
                # the kernel puts pair[1], last in the oracle's order, at the source's site
                home = np.moveaxis(reduced.reshape((2,) * m), -1, source).reshape(-1)
                assert abs(probs[row, 2 * m1 + m2] - p) <= 1e-12
                assert np.max(np.abs(unit[row, 2 * m1 + m2] - home)) <= 1e-12


def test_branch_ops_are_a_quarter_weight_identity_each():
    # every corrected branch is c_b I with |c_b|^2 = 1/4, which makes a hop
    # the identity channel and its bits' law the same for every state
    ops = branch_ops()
    assert np.max(np.abs(ops - 0.5 * np.eye(2))) <= 1.2e-16


def test_kernel_rejects_branches_that_disagree(monkeypatch):
    # branch (1, 1)'s operator turned by 1e-6 keeps the weights within ~1e-12
    # of summing to 1 but leaves the branches ~1e-6 apart; operators that are
    # each c_b I but whose weights sum to 1 + 1e-14 fail too, and so does a
    # turn by 1e-14
    for ops in (branch_ops() + TILT, branch_ops() * np.sqrt(1 + 1e-14),
                branch_ops() + 1e-8 * TILT):
        monkeypatch.setattr("qetsim.teleport._branch_ops", lambda ops=ops: ops)
        with pytest.raises(AssertionError, match="branches disagree"):
            relay(1)
    # an error of 1e-16 in an operator passes
    monkeypatch.setattr("qetsim.teleport._branch_ops", lambda: branch_ops() + 1e-10 * TILT)
    relay(1)


def test_relay_rejects_a_nan_operator(monkeypatch):
    # every comparison with nan is False, so the check is written to fail on it
    ops = branch_ops()
    ops[3, 0, 1] = np.nan
    monkeypatch.setattr("qetsim.teleport._branch_ops", lambda: ops)
    with pytest.raises(AssertionError, match="branches disagree"):
        relay(1)


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("hops", [0, 1, 64, 133])
def test_relay_checks_at_any_hop_count(hops, sampled, monkeypatch):
    # the operators are checked once per call, whatever the hop count, with
    # or without an rng
    stream = random.Random(5) if sampled else None
    kept, residual = relay(hops, stream)
    assert kept is None if stream is None else len(kept) == hops
    assert residual == _branch_law()[1] <= 1e-15
    monkeypatch.setattr("qetsim.teleport._branch_ops", lambda: branch_ops() + TILT)
    with pytest.raises(AssertionError, match="branches disagree"):
        relay(hops, stream)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("hops", [1, 3, 65, 1000])
def test_relay_matches_the_per_hop_oracle(hops, dtype):
    # every register size and source site of a real or complex stack,
    # unsampled and at several seeds; 1000 hops run one seed per site.  The
    # oracle's rows are the inputs up to phase, whichever branch each hop
    # kept, since every hop is the identity, and its bits are the relay's
    if dtype is np.complex128:
        # the complex 40-state panel and the six axis states, one stack
        assert relay_identity_check(hops, panel_size=40) <= 1e-12
    for n in range(1, 5):
        for logical in range(n):
            seeds = [None, 0, 1, 2] if hops < 1000 else [10 * n + logical]
            for seed in seeds:
                rows = random_rows(np.random.default_rng(seed), 3, n, dtype)
                drawn = 0 if seed is None else seed % 3
                streams = [None if seed is None else random.Random(seed) for _ in range(2)]
                kept = relay(hops, streams[0])[0]
                want, bits = relay_by_hops(rows, logical, hops, rng=streams[1], drawn=drawn)
                assert max(map(pure_trace_distance, rows, want)) <= 1e-10
                assert kept is None and bits is None if seed is None else kept.tolist() == bits


def test_relay_rejects_a_negative_hop_count():
    with pytest.raises(ValueError, match="hops must be non-negative, got -1"):
        relay(-1)
    with pytest.raises(ValueError, match="hops must be non-negative, got -1"):
        relay(-1, random.Random(1))


# --- relays -------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 3]),
    site=st.integers(0, 2),
    hops=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    sampled=st.booleans(),
)
def test_relay_identity_property(n, site, hops, seed, sampled):
    # any register comes back from `hops` relays of any of its qubits through
    # the gates, whichever branch each hop keeps, and the package's relay
    # draws the oracle's bits
    logical = site % n
    original = random_amplitudes(np.random.default_rng(seed), n)[None]
    streams = [random.Random(seed) if sampled else None for _ in range(2)]
    kept = relay(hops, streams[0])[0]
    want, bits = relay_by_hops(original, logical, hops, rng=streams[1])
    assert pure_trace_distance(original[0], want[0]) <= 1e-10
    assert kept.tolist() == bits if sampled else kept is None and bits is None


def test_relay_hop_register_shape():
    # one hop through the gates gives back a one-qubit register of the same shape
    state = random_qubit()
    out, _ = relay_by_hops(state[None], 0, 1)
    assert out.shape == (1, 2)
    assert pure_trace_distance(out[0], state) < 1e-12


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("hops", [1, 63, 64, 65, 129])
def test_relay_in_one_call_matches_hop_by_hop(hops, dtype, sampled):
    # one law for every hop's draws: one call's bits are those of one call
    # per hop, and those the gates draw hop by hop on a real or complex stack
    rows = random_rows(np.random.default_rng(hops), 3, 3, dtype)
    streams = [np.random.default_rng(5) if sampled else None for _ in range(3)]
    kept = relay(hops, streams[0])[0]
    one_by_one = [relay(1, streams[1])[0] for _ in range(hops)]
    want, bits = relay_by_hops(rows, 1, hops, rng=streams[2], drawn=2)
    assert max(map(pure_trace_distance, rows, want)) <= 1e-10
    if sampled:
        assert kept.typecode == "B" and kept.tobytes() == b"".join(b.tobytes() for b in one_by_one)
        assert kept.tolist() == bits
    else:
        assert kept is None and one_by_one == [None] * hops and bits is None


# --- long-range runs ----------------------------------------------------------

@pytest.mark.parametrize("hops", [1, 3])
def test_longrange_equals_local(hops):
    params = MinimalModelParams(1.0, 1.0)
    record, transcript, delta = run_longrange_qet(params, hops)
    # the record is exact_record's closed form; delta is the relay's branch
    # check residual
    assert record.as_dict() == exact_record(star_model(params), (1,)).as_dict()
    assert delta <= 1e-15
    lines = "".join(transcript.serialize()).splitlines()
    assert len(lines) == 1 + 2 * hops
    assert transcript.bit_count() == 1 + 2 * hops
    assert lines[0].split()[3] == "mu-broadcast"


def test_longrange_seeded_transcript_is_concrete_and_deterministic():
    params = MinimalModelParams(2.0, 1.0)
    _, t1, _ = run_longrange_qet(params, 2, seed=9)
    _, t2, _ = run_longrange_qet(params, 2, seed=9)
    text = "".join(t1.serialize())
    assert text == "".join(t2.serialize())
    assert "x" not in text
    assert t1.bit_count() == 1 + 2 * 2


def test_seeded_transcript_draws_from_the_stdlib_stream():
    # mu by the first uniform of random.Random(seed) at p_mu = 1/2, then each
    # hop's m1 and m2 by the next two; every teleport branch has probability 1/4
    params = MinimalModelParams(1.0, 1.0)
    stream = random.Random(11)
    mu = int(stream.random() >= 0.5)
    bits = [int(stream.random() >= 0.5) for _ in range(2 * 40)]
    _, transcript, _ = run_longrange_qet(params, 40, seed=11)
    assert transcript.mu == mu
    assert transcript.branches.tolist() == [2 * m1 + m2 for m1, m2 in zip(bits[::2], bits[1::2])]


def test_transcript_serialization_format():
    _, transcript, _ = run_longrange_qet(MinimalModelParams(1.0, 1.0), 2)
    lines = "".join(transcript.serialize()).splitlines()
    assert lines[0] == "0 alice all mu-broadcast x"
    assert lines[1].startswith("1 charlie ")
    assert all(len(line.split()) == 5 for line in lines)


def test_transcript_names_every_hop_and_bit():
    # the bits may be any buffer of bytes: the relay's array('B'), bytes or
    # a uint8 array
    for bits in (array("B", [0, 3, 2]), bytes([0, 3, 2]), np.array([0, 3, 2], dtype=np.uint8)):
        assert "".join(LoccTranscript(3, 1, bits).serialize()) == (
            "0 alice all mu-broadcast 1\n"
            "1 charlie relay1 teleport-corrections 0\n"
            "2 charlie relay1 teleport-corrections 0\n"
            "3 relay1 relay2 teleport-corrections 1\n"
            "4 relay1 relay2 teleport-corrections 1\n"
            "5 relay2 bob teleport-corrections 1\n"
            "6 relay2 bob teleport-corrections 0\n"
        )
    assert "".join(LoccTranscript(1, None, None).serialize()) == (
        "0 alice all mu-broadcast x\n"
        "1 charlie bob teleport-corrections x\n"
        "2 charlie bob teleport-corrections x\n"
    )


def test_transcript_renders_in_chunks_of_hops():
    hops = TRANSCRIPT_CHUNK_HOPS + 1
    branches = (np.arange(hops) % 4).astype(np.uint8)
    chunks = list(LoccTranscript(hops, 0, branches).serialize())
    # the mu line, one full chunk of hops, then the last hop
    assert [chunk.count("\n") for chunk in chunks] == [1, 2 * TRANSCRIPT_CHUNK_HOPS, 2]
    last = TRANSCRIPT_CHUNK_HOPS
    assert chunks[1].splitlines()[-1] == (
        f"{2 * last} relay{last - 1} relay{last} teleport-corrections {(last - 1) % 4 & 1}"
    )
    assert chunks[2] == (
        f"{2 * last + 1} relay{last} bob teleport-corrections {last % 4 >> 1}\n"
        f"{2 * last + 2} relay{last} bob teleport-corrections {last % 4 & 1}\n"
    )
    # sampled or not, the chunks join to one line per bit, laid out line by line
    for transcript in (LoccTranscript(hops, 0, branches), LoccTranscript(hops, None, None)):
        chunks = list(transcript.serialize())
        assert [chunk.count("\n") for chunk in chunks] == [1, 2 * TRANSCRIPT_CHUNK_HOPS, 2]
        assert "".join(chunks) == _transcript_by_lines(transcript)


def _transcript_by_lines(transcript):
    """The transcript's text built one line at a time."""
    names = ["charlie", *(f"relay{i}" for i in range(1, transcript.hops)), "bob"]
    bits = (["x"] * transcript.hops if transcript.branches is None
            else transcript.branches.tolist())
    lines = [f"0 alice all mu-broadcast {'x' if transcript.mu is None else transcript.mu}"]
    for i, b in enumerate(bits):
        m1, m2 = ("x", "x") if b == "x" else (b >> 1, b & 1)
        lines.append(f"{2 * i + 1} {names[i]} {names[i + 1]} teleport-corrections {m1}")
        lines.append(f"{2 * i + 2} {names[i]} {names[i + 1]} teleport-corrections {m2}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("h, k", [(1e4, 1.0), (1.0, 1e4), (1e8, 1.0), (MAX_FIELD_RATIO, 1.0)])
def test_longrange_at_the_field_ratio_bound(h, k):
    # the star model's field ratios up to its bound, h/k = MAX_FIELD_RATIO,
    # give exact_record's record
    params = MinimalModelParams(h, k)
    record, _, delta = run_longrange_qet(params, 3, seed=1)
    assert record.as_dict() == exact_record(star_model(params), (1,)).as_dict()
    assert record.receivers[1].e_b > 0 and delta <= 1e-15


@pytest.mark.parametrize("h, k", [(1.001e12, 1.0), (1.0, 1e6)])
def test_longrange_beyond_the_field_ratio_bound(h, k):
    # the star model's own errors, with its messages: h/k above its bound,
    # and k/h past the degeneracy edge
    error = IllConditionedError if h > k else DegenerateGroundError
    with pytest.raises(error) as raised:
        star_model(MinimalModelParams(h, k))
    with pytest.raises(error, match=re.escape(str(raised.value))):
        run_longrange_qet(MinimalModelParams(h, k), 1)


def test_longrange_bad_hops():
    with pytest.raises(ValueError):
        run_longrange_qet(MinimalModelParams(1.0, 1.0), 0)
