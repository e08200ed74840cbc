import numpy as np
import pytest

from mfgsolve.envs.taxi import (
    JAM_CAP,
    JAM_SLOPE,
    REGION_REWARDS,
    SPAWN_PROB,
    TaxiState,
    make_taxi,
)
from mfgsolve.errors import ConfigError


@pytest.fixture(scope="module")
def taxi():
    return make_taxi()


def zero_occupancy(taxi):
    return np.zeros(taxi.mf_size)


def step_one(taxi, rng, state, action, mu_t):
    """``step_codes`` for one taxi: the next state and the event reward."""
    codes, rewards = taxi.step_codes(
        rng, 0, np.array([taxi.encode(state)]), np.array([action]), mu_t
    )
    return taxi.decode(int(codes[0])), float(rewards[0])


def reward_of(taxi, state, action):
    """Event reward of one taxi's action; it does not depend on the draws."""
    return step_one(taxi, np.random.default_rng(0), state, action, zero_occupancy(taxi))[1]


def observe_one(taxi, t, state):
    return taxi.observe_codes(t, [taxi.encode(state)])[0]


class TestMapParsing:
    def test_default_map(self, taxi):
        assert taxi.map.start == (3, 1)
        assert len(taxi.map.passable) == 19
        assert len(taxi.map.region_tiles[1]) == 9
        assert len(taxi.map.region_tiles[2]) == 9

    def test_missing_start(self):
        with pytest.raises(ConfigError):
            make_taxi("11\n22")

    def test_unknown_tile(self):
        with pytest.raises(ConfigError):
            make_taxi("1S\n2X")

    def test_two_starts(self):
        with pytest.raises(ConfigError):
            make_taxi("SS\n12")

    def test_state_codes_must_fit_int64(self):
        with pytest.raises(ConfigError, match="int64"):
            make_taxi("S" + "1" * 31 + "\n" + "2" * 32)


class TestJam:
    def test_linear_region(self, taxi):
        assert taxi.jam_probability(0.05) == pytest.approx(0.5)

    def test_cap(self, taxi):
        assert taxi.jam_probability(0.2) == pytest.approx(0.7)


class TestMovement:
    def test_wait_never_moves(self, taxi):
        rng = np.random.default_rng(0)
        state = taxi.initial_state()
        for _ in range(20):
            nxt, _ = step_one(taxi, rng, state, 0, zero_occupancy(taxi))
            assert (nxt.x, nxt.y) == (state.x, state.y)
            state = nxt

    def test_wall_blocks(self, taxi):
        rng = np.random.default_rng(1)
        start = taxi.initial_state()
        nxt, _ = step_one(taxi, rng, start, 3, zero_occupancy(taxi))  # L into H
        assert (nxt.x, nxt.y) == (start.x, start.y)

    def test_cannot_reenter_start(self, taxi):
        rng = np.random.default_rng(2)
        above = TaxiState(2, 1, 0, 0, False, 0)
        nxt, _ = step_one(taxi, rng, above, 2, zero_occupancy(taxi))  # D toward S
        assert (nxt.x, nxt.y) == (2, 1)

    def test_free_move_without_jam(self, taxi):
        rng = np.random.default_rng(3)
        start = taxi.initial_state()
        nxt, _ = step_one(taxi, rng, start, 1, zero_occupancy(taxi))  # U
        assert (nxt.x, nxt.y) == (2, 1)

    def test_full_jam_blocks_motion(self, taxi):
        rng = np.random.default_rng(4)
        occ = zero_occupancy(taxi)
        occ[taxi.map.tile_index[(3, 1)]] = 0.07  # jam probabilitycapped at 0.7
        moved = 0
        for _ in range(400):
            nxt, _ = step_one(taxi, rng, taxi.initial_state(), 1, occ)
            moved += (nxt.x, nxt.y) != (3, 1)
        assert 0.2 < moved / 400 < 0.4  # ~30% move through a 0.7 jam


class TestPassengers:
    def test_pickup_grants_region_reward_and_destination(self, taxi):
        tile = (0, 0)  # region 1
        bit = taxi.map.board_bit[tile]
        state = TaxiState(0, 0, 0, 0, False, 1 << bit)
        assert reward_of(taxi, state, 0) == pytest.approx(1.0)
        # Rows as in ``step_codes``: jam, pickup destination, then the spawn
        # test and spawn tile of region 1 and of region 2.  No spawn fires.
        no_spawn = np.array([[0.5], [0.5], [0.9], [0.0], [0.9], [0.0]])
        nxt, reward = step_one(
            taxi, StubUniforms(no_spawn), state, 0, zero_occupancy(taxi)
        )
        assert reward == pytest.approx(1.0)
        assert nxt.passenger
        assert nxt.board == 0
        assert taxi.map.region_of[(nxt.dest_x, nxt.dest_y)] == 1
        # The same step's region-1 spawn may pick the freed tile again.
        tiles = taxi.map.region_tiles[1]
        refill = no_spawn.copy()
        refill[2:4, 0] = [0.0, (tiles.index(tile) + 0.5) / len(tiles)]
        nxt, reward = step_one(
            taxi, StubUniforms(refill), state, 0, zero_occupancy(taxi)
        )
        assert reward == pytest.approx(1.0)
        assert nxt.passenger
        assert nxt.board == 1 << bit

    def test_delivery_in_region_two(self, taxi):
        rng = np.random.default_rng(6)
        state = TaxiState(5, 2, 5, 2, True, 0)
        assert reward_of(taxi, state, 0) == pytest.approx(1.2)
        nxt, reward = step_one(taxi, rng, state, 0, zero_occupancy(taxi))
        assert reward == pytest.approx(1.2)
        assert not nxt.passenger
        assert (nxt.dest_x, nxt.dest_y) == (0, 0)

    def test_movement_earns_nothing(self, taxi):
        state = TaxiState(0, 0, 0, 0, False, 0)
        for action in range(1, 5):
            assert reward_of(taxi, state, action) == 0.0

    def test_spawn_rate(self, taxi):
        rng = np.random.default_rng(7)
        spawned = 0
        trials = 500
        for _ in range(trials):
            nxt, _ = step_one(
                taxi, rng, taxi.initial_state(), 0, zero_occupancy(taxi)
            )
            region1_bits = [
                taxi.map.board_bit[p] for p in taxi.map.region_tiles[1]
            ]
            spawned += any(nxt.board >> b & 1 for b in region1_bits)
        assert 0.72 < spawned / trials < 0.88  # spawn probability 0.8 per region

    def test_initial_board_empty(self, taxi):
        s = taxi.initial_state()
        assert s.board == 0 and not s.passenger


class TestEncoding:
    def test_roundtrip_on_random_walk(self, taxi):
        rng = np.random.default_rng(8)
        state = taxi.initial_state()
        occ = np.full(taxi.mf_size, 1.0 / taxi.mf_size)
        seen = set()
        for _ in range(3000):
            code = taxi.encode(state)
            assert 0 <= code < taxi.num_states
            assert taxi.decode(code) == state
            seen.add(code)
            state, _ = step_one(taxi, rng, state, int(rng.integers(5)), occ)
        assert len(seen) > 50  # the walk reaches a nontrivial set of states

    def test_observation_layout(self, taxi):
        obs = observe_one(taxi, 7, taxi.initial_state())
        assert obs.shape == (taxi.obs_dim,)
        assert obs[-1] == 7.0
        assert obs.sum() == pytest.approx(7.0 + 2.0)  # pos one-hot + dest slot + time


class StubUniforms:
    """Generator stand-in that hands out one given block of uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


def _pick(u, k):
    return int(np.floor(u * k))


def reference_step(taxi, state, action, mu_t, u):
    """Per-taxi transition written out from the game's rules, consuming the
    kernel's documented draws: u[0] jam, u[1] pickup destination, then the
    spawn test and spawn tile of region 1 (u[2], u[3]) and region 2 (u[4],
    u[5]); a choice among k options takes floor(u * k)."""
    m = taxi.map
    x, y = state.x, state.y
    dest_x, dest_y, passenger, board = (
        state.dest_x, state.dest_y, state.passenger, state.board,
    )
    reward = 0.0
    if action == 0:  # W
        here = (x, y)
        bit = m.board_bit.get(here)
        if passenger and here == (dest_x, dest_y):
            reward = REGION_REWARDS[m.region_of[here]]
            passenger, dest_x, dest_y = False, 0, 0
        elif not passenger and bit is not None and board >> bit & 1:
            reward = REGION_REWARDS[m.region_of[here]]
            board &= ~(1 << bit)
            tiles = m.region_tiles[m.region_of[here]]
            dest_x, dest_y = tiles[_pick(u[1], len(tiles))]
            passenger = True
    else:
        jam = min(JAM_CAP, JAM_SLOPE * float(mu_t[m.tile_index[(x, y)]]))
        if u[0] >= jam:
            dx, dy = {1: (-1, 0), 2: (1, 0), 3: (0, -1), 4: (0, 1)}[action]
            nxt = (x + dx, y + dy)
            if m.is_passable(*nxt) and nxt != m.start:
                x, y = nxt
    for region, spawn_u, tile_u in ((1, u[2], u[3]), (2, u[4], u[5])):
        if spawn_u < SPAWN_PROB:
            empty = [
                pos for pos in m.region_tiles[region]
                if not board >> m.board_bit[pos] & 1
            ]
            if empty:
                board |= 1 << m.board_bit[empty[_pick(tile_u, len(empty))]]
    return TaxiState(x, y, dest_x, dest_y, passenger, board), reward


def random_states(taxi, rng, n):
    """States with sparse to full boards, half of them carrying, a quarter
    of the carrying ones on their destination."""
    m = taxi.map
    states = []
    for _ in range(n):
        density = rng.choice([0.1, 0.5, 0.9, 1.0])
        bits = np.flatnonzero(rng.random(len(m.board_tiles)) < density)
        board = int(sum(1 << int(b) for b in bits))
        x, y = m.passable[rng.integers(len(m.passable))]
        if rng.random() < 0.5:
            states.append(TaxiState(x, y, 0, 0, False, board))
            continue
        dx, dy = m.board_tiles[rng.integers(len(m.board_tiles))]
        if rng.random() < 0.25:
            x, y = dx, dy
        states.append(TaxiState(x, y, dx, dy, True, board))
    return states


class TestKernelOracle:
    """``step_codes`` against the per-taxi rules on the same uniforms."""

    def test_matches_reference_step(self, taxi):
        rng = np.random.default_rng(12)
        n = 4000
        checked = 0
        for _ in range(3):
            states = random_states(taxi, rng, n)
            codes = np.array([taxi.encode(s) for s in states])
            actions = np.where(rng.random(n) < 0.5, 0, rng.integers(1, 5, size=n))
            mu_t = rng.dirichlet(np.ones(taxi.mf_size))
            u = rng.random((6, n))
            # Edge draws: exact zeros, the largest double below 1, and jam
            # draws equal to the tile's jam probability.
            u[rng.random((6, n)) < 0.02] = 0.0
            u[rng.random((6, n)) < 0.02] = np.nextafter(1.0, 0.0)
            at_jam = rng.random(n) < 0.05
            tiles = np.array([taxi.map.tile_index[(s.x, s.y)] for s in states])
            u[0, at_jam] = np.minimum(JAM_CAP, JAM_SLOPE * mu_t[tiles[at_jam]])
            got_codes, got_rewards = taxi.step_codes(
                StubUniforms(u), 0, codes, actions, mu_t
            )
            want = [
                reference_step(taxi, s, int(a), mu_t, u[:, i])
                for i, (s, a) in enumerate(zip(states, actions))
            ]
            np.testing.assert_array_equal(
                got_codes, [taxi.encode(s) for s, _ in want]
            )
            np.testing.assert_array_equal(got_rewards, [r for _, r in want])
            checked += n
        assert checked >= 10_000

    def test_observation_rows_follow_layout(self, taxi):
        m = taxi.map
        states = random_states(taxi, np.random.default_rng(16), 500)
        codes = np.array([taxi.encode(s) for s in states])
        obs = taxi.observe_codes(42, codes)
        assert obs.shape == (len(states), taxi.obs_dim)
        num_tiles, num_bits = len(m.passable), len(m.board_tiles)
        for row, s in zip(obs, states):
            want = np.zeros(taxi.obs_dim)
            want[m.tile_index[(s.x, s.y)]] = 1.0
            slot = 1 + m.board_bit[(s.dest_x, s.dest_y)] if s.passenger else 0
            want[num_tiles + slot] = 1.0
            want[num_tiles + num_bits + 1] = float(s.passenger)
            for bit in range(num_bits):
                want[num_tiles + num_bits + 2 + bit] = s.board >> bit & 1
            want[-1] = 42.0
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(observe_one(taxi, 42, s), want)

    def test_observe_codes_takes_one_time_per_row(self, taxi):
        rng = np.random.default_rng(17)
        codes = [taxi.encode(s) for s in random_states(taxi, rng, 200)]
        ts = rng.integers(taxi.horizon + 1, size=len(codes))
        want = np.concatenate([taxi.observe_codes(t, [c]) for t, c in zip(ts, codes)])
        np.testing.assert_array_equal(taxi.observe_codes(ts, codes), want)

    def test_jam_probability_elementwise(self, taxi):
        occ = np.array([0.0, 0.05, 0.07, 0.2])
        np.testing.assert_allclose(taxi.jam_probability(occ), [0.0, 0.5, 0.7, 0.7])

    def test_mf_index_is_the_tile(self, taxi):
        states = random_states(taxi, np.random.default_rng(17), 100)
        codes = np.array([taxi.encode(s) for s in states])
        np.testing.assert_array_equal(
            taxi.mf_index(codes), [taxi.map.tile_index[(s.x, s.y)] for s in states]
        )
