"""Grid-world taxi fleet game with congestion, pickups, and deliveries.

The composite agent state (position, destination, carrying flag, board of
waiting passengers) spans ~2^27 configurations on the default map, so nothing
tabular is ever materialized.  A state is an int64 code, the bijective
``encode``/``decode`` of a ``TaxiState``.  The game answers the same
sampling interface as ``EnvironmentSpec`` (``initial_codes``,
``step_codes``, ``observe_codes``, ``mf_index``): one array kernel steps any
number of taxis at once, be it a particle population, a batch of evaluation
episodes or the one taxi of a DQN training.  The population enters only
through the per-tile occupancy (the chance of being stuck in a jam on a tile
grows with the share of taxis on it).

Map format: newline-separated rows over the alphabet {S, H, 1, 2} with
exactly one start tile S, impassable walls H, and region tiles 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

DEFAULT_MAP = """\
111
111
111
HSH
222
222
222"""

ACTIONS = ("W", "U", "D", "L", "R")
_WAIT = ACTIONS.index("W")
_MOVES = {1: (-1, 0), 2: (1, 0), 3: (0, -1), 4: (0, 1)}  # U, D, L, R
JAM_CAP = 0.7
JAM_SLOPE = 10.0
SPAWN_PROB = 0.8
REGION_REWARDS = {1: 1.0, 2: 1.2}


@dataclass(frozen=True, slots=True)
class TaxiState:
    """One taxi: position, destination (0,0 while empty), carrying flag, and
    the board bitmask of region tiles holding a waiting passenger."""

    x: int
    y: int
    dest_x: int
    dest_y: int
    passenger: bool
    board: int


class TaxiMap:
    """Parsed grid: passable tiles, regions, and coordinate/index mappings."""

    def __init__(self, text: str):
        rows = [line for line in text.strip("\n").splitlines()]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ConfigError("taxi map rows must be nonempty and equally long")
        starts = []
        self.region_of: dict[tuple[int, int], int] = {}
        passable = []
        for x, row in enumerate(rows):
            for y, ch in enumerate(row):
                if ch == "S":
                    starts.append((x, y))
                    passable.append((x, y))
                elif ch == "H":
                    continue
                elif ch in ("1", "2"):
                    self.region_of[(x, y)] = int(ch)
                    passable.append((x, y))
                else:
                    raise ConfigError(f"unknown taxi map tile {ch!r} at {(x, y)}")
        if len(starts) != 1:
            raise ConfigError(f"taxi map needs exactly one start tile, got {len(starts)}")
        self.start = starts[0]
        self.passable = tuple(passable)
        self.tile_index = {pos: i for i, pos in enumerate(self.passable)}
        self.region_tiles = {
            r: tuple(p for p in self.passable if self.region_of.get(p) == r)
            for r in (1, 2)
        }
        for r, tiles in self.region_tiles.items():
            if not tiles:
                raise ConfigError(f"taxi map has no tiles in region {r}")
        # Board bits are assigned to region tiles only, in passable order.
        self.board_tiles = tuple(p for p in self.passable if p in self.region_of)
        self.board_bit = {pos: i for i, pos in enumerate(self.board_tiles)}

    def is_passable(self, x: int, y: int) -> bool:
        return (x, y) in self.tile_index


class TaxiEnvironment:
    """Sampling interface consumed by the particle simulator and DQN loop.

    The mean-field argument ``mu_t`` is the occupancy distribution over
    passable tiles (length ``mf_size``), which is all the dynamics read.
    """

    def __init__(self, map_text: str = DEFAULT_MAP, horizon: int = 100):
        self.name = "taxi"
        self.map = TaxiMap(map_text)
        self.horizon = horizon
        self.num_actions = len(ACTIONS)
        self.action_labels = ACTIONS
        self.mf_size = len(self.map.passable)
        m = self.map
        num_bits = len(m.board_tiles)
        # Destination slot 0 = empty taxi; slots 1.. enumerate board tiles.
        self._dest_slots = num_bits + 1
        self.num_states = (1 << num_bits) * self._dest_slots * self.mf_size
        if self.num_states > np.iinfo(np.int64).max:
            raise ConfigError(
                f"taxi map has too many region tiles ({num_bits}) for int64 state codes"
            )
        self.obs_dim = self.mf_size + self._dest_slots + 1 + num_bits + 1
        self._build_kernel_tables()

    def _build_kernel_tables(self) -> None:
        """Per-tile lookup arrays read by ``step_codes``/``observe_codes``."""
        m = self.map
        tile = m.tile_index
        self._bits = np.arange(len(m.board_tiles), dtype=np.int64)
        # Board mask and event reward of each tile (0 on the start tile).
        self._tile_mask = np.zeros(self.mf_size, dtype=np.int64)
        self._tile_reward = np.zeros(self.mf_size)
        for pos, bit in m.board_bit.items():
            self._tile_mask[tile[pos]] = 1 << bit
            self._tile_reward[tile[pos]] = REGION_REWARDS[m.region_of[pos]]
        # Tile of each destination slot; slot 0 (empty) matches no tile.
        self._dest_tile = np.array(
            [-1] + [tile[pos] for pos in m.board_tiles], dtype=np.int64
        )
        # Tile reached by each action where the move is not jammed.
        self._move_to = np.empty((self.mf_size, self.num_actions), dtype=np.int64)
        for (x, y), i in tile.items():
            for a in range(self.num_actions):
                dx, dy = _MOVES.get(a, (0, 0))
                nxt = (x + dx, y + dy)
                ok = m.is_passable(*nxt) and nxt != m.start
                self._move_to[i, a] = tile[nxt] if ok else i
        # Regions as rows of board masks, zero-padded to the widest region:
        # ``_region_valid`` marks the real tiles, and the 0 in column
        # ``width`` is what a spawn adds when no tile is free.
        regions = sorted(m.region_tiles)
        width = max(len(tiles) for tiles in m.region_tiles.values())
        self._region_masks = np.zeros((len(regions), width + 1), dtype=np.int64)
        # Destination slots a pickup on each tile can draw (its own region).
        self._region_size = np.zeros(self.mf_size, dtype=np.int64)
        self._pickup_dest = np.zeros((self.mf_size, width), dtype=np.int64)
        for row, r in enumerate(regions):
            bits = [m.board_bit[pos] for pos in m.region_tiles[r]]
            self._region_masks[row, : len(bits)] = [1 << b for b in bits]
            for pos in m.region_tiles[r]:
                self._region_size[tile[pos]] = len(bits)
                self._pickup_dest[tile[pos], : len(bits)] = [1 + b for b in bits]
        self._region_valid = self._region_masks[:, :-1] != 0
        self._region_rows = np.arange(len(regions))

    # -- state bookkeeping ------------------------------------------------

    def initial_state(self) -> TaxiState:
        sx, sy = self.map.start
        return TaxiState(sx, sy, 0, 0, False, 0)

    def initial_codes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n taxis on the start tile with an empty board (no draw)."""
        return np.full(n, self.encode(self.initial_state()), dtype=np.int64)

    def mf_index(self, codes: np.ndarray) -> np.ndarray:
        """Tile (mean-field) index of each state code."""
        return codes % self.mf_size

    def encode(self, state: TaxiState) -> int:
        m = self.map
        pos = m.tile_index[(state.x, state.y)]
        dest = 1 + m.board_bit[(state.dest_x, state.dest_y)] if state.passenger else 0
        return (state.board * self._dest_slots + dest) * len(m.passable) + pos

    def decode(self, code: int) -> TaxiState:
        m = self.map
        code, pos = divmod(code, len(m.passable))
        board, dest = divmod(code, self._dest_slots)
        x, y = m.passable[pos]
        if dest == 0:
            return TaxiState(x, y, 0, 0, False, board)
        dx, dy = m.board_tiles[dest - 1]
        return TaxiState(x, y, dx, dy, True, board)

    def _fields(self, codes: np.ndarray):
        """(tile, destination slot, board) arrays of state codes."""
        rest, pos = np.divmod(codes, self.mf_size)
        board, dest = np.divmod(rest, self._dest_slots)
        return pos, dest, board

    def observe_codes(self, t, codes: np.ndarray) -> np.ndarray:
        """(n, obs_dim) feature rows: one-hot tile, one-hot destination slot,
        carrying flag, raw board bits, and the time ``t`` appended, a scalar
        or one time per row ((n,) array)."""
        pos, dest, board = self._fields(np.asarray(codes, dtype=np.int64))
        rows = np.arange(len(pos))
        obs = np.zeros((len(pos), self.obs_dim))
        obs[rows, pos] = 1.0
        base = self.mf_size
        obs[rows, base + dest] = 1.0
        base += self._dest_slots
        obs[:, base] = dest > 0
        obs[:, base + 1 : -1] = (board[:, None] >> self._bits) & 1
        obs[:, -1] = t
        return obs

    # -- dynamics ----------------------------------------------------------

    def jam_probability(self, tile_occupancy):
        """Chance that a move fails on a tile holding this share of taxis
        (elementwise for arrays)."""
        return np.minimum(JAM_CAP, JAM_SLOPE * tile_occupancy)

    def _events(self, pos, dest, board, actions):
        """Delivery and pickup flags and the event reward: W delivers on the
        destination tile, else picks up a passenger waiting on an empty
        taxi's tile; either pays the tile's region reward."""
        wait = actions == _WAIT
        delivery = wait & (self._dest_tile[dest] == pos)
        pickup = wait & (dest == 0) & (board & self._tile_mask[pos] != 0)
        reward = np.where(delivery | pickup, self._tile_reward[pos], 0.0)
        return delivery, pickup, reward

    def step_codes(
        self,
        rng: np.random.Generator,
        t: int,
        codes: np.ndarray,
        actions: np.ndarray,
        mu_t: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One transition of n taxis: resolve each action, then spawn new
        passengers.  Returns the next codes and the event rewards.

        W picks up / delivers (at most one event per step); a pickup's
        destination is a uniformly random tile of the pickup tile's region.
        Movement is blocked by walls and the start tile and fails entirely
        with the jam probability of the current tile.  Spawning adds, per
        region with probability 0.8, one passenger on a uniformly random
        region tile that has none waiting.

        Draws exactly ``rng.random((6, n))`` per call, column i for taxi i:
        row 0 the jam test, row 1 the pickup destination, then per region
        (1, 2) its spawn test and its spawn tile (rows 2, 3 and 4, 5).  A
        choice among k options takes ``floor(u * k)``.
        """
        codes = np.asarray(codes, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        u = rng.random((6, len(codes)))
        pos, dest, board = self._fields(codes)
        delivery, pickup, reward = self._events(pos, dest, board, actions)
        pick = (u[1] * self._region_size[pos]).astype(np.int64)
        dest = np.where(pickup, self._pickup_dest[pos, pick], np.where(delivery, 0, dest))
        board = board - self._tile_mask[pos] * pickup
        # W maps every tile to itself, so only moves depend on the jam draw.
        free_move = u[0] >= self.jam_probability(mu_t[pos])
        pos = np.where(free_move, self._move_to[pos, actions], pos)
        # Spawn: the k-th free tile of a region is where its running count
        # of free tiles first exceeds k.
        free = (board[:, None, None] & self._region_masks[:, :-1] == 0) & self._region_valid
        running = np.cumsum(free, axis=2)
        k = (u[3::2].T * running[:, :, -1]).astype(np.int64)
        slot = (running <= k[:, :, None]).sum(axis=2)
        spawned = self._region_masks[self._region_rows, slot]
        board = board + np.where(u[2::2].T < SPAWN_PROB, spawned, 0).sum(axis=1)
        return (board * self._dest_slots + dest) * self.mf_size + pos, reward


def make_taxi(map_text: str | None = None, horizon: int = 100) -> TaxiEnvironment:
    """Build the taxi game on the given map (default: the 7x3 two-region grid)."""
    return TaxiEnvironment(map_text or DEFAULT_MAP, horizon=horizon)
