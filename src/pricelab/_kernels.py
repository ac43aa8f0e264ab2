"""Training inner loops: a scalar Q-learning walk and its lockstep twin.

The Q-update walk is inherently sequential (each step reads the table the
previous step wrote), so ``run_train_kernel`` is a tight scalar loop over
Python floats.  It draws from the same xorshift64 bit stream as
``pricelab.rng.XorShift64`` and applies float operations in the same order
as the public ``select_action`` and ``update_q`` ops; the test suite
replays training through those ops and asserts bitwise-equal results.
``run_lockstep_kernel`` takes the same arguments, with one reward table
and one stream state per lane.

Both walks draw exploration by one rule.  Whether a step explores and the
action it explores depend only on the bit stream and the episode's
epsilon (``_step_belows``), never on Q, so the words are drawn ahead in
blocks (``_stream_words``).  The stream is generated in numpy.  xorshift64
is linear over GF(2) (Marsaglia, "Xorshift RNGs", JSS 2003), so the state
``L`` steps ahead is a fixed 64x64 bit matrix ``M^L`` times the current one
(jump-ahead as in Haramoto et al., INFORMS JoC 2008).  A cached table of
``M^(j * spacing)`` starts several lanes ``spacing`` words apart, and every
lane then steps at once.  A step reads at most two words, its explore test
and, if it explores, its action, so a block is read while two words are
left, and the next block starts at the state after the last word read: a
block can end anywhere inside an episode.

The scalar walk sorts each block into step codes before it walks them
(``_step_codes``): per step the exploring action, or -1 for the greedy
one.  While epsilon decays, a Python loop over the words sorts them into
test and action words.  Once epsilon is constant, the words alone fix the
sorting, so it runs on the whole block (``_fixed_layout``): inside a run of
below-threshold words the even offsets are exploring test words and the
odd offsets their action words, and the word after a run is an action
word if the run had odd length, else a test word.

Each update changes one entry, so the scalar walk keeps every state's
greedy result current instead of scanning its row twice per step:
``best[s]`` is the float ``max(q[s])`` would return and ``arg[s]`` the
lowest index holding it.  Greedy selection reads ``arg[s]`` and the
bootstrap reads ``best[ns]`` before the write.  After ``q[s][a] = v``, a
value above the best, or equal to it at an index no higher than
``arg[s]``, becomes the new best; a fall of the greedy entry itself
rescans the row; any other write leaves both unchanged.  This keeps the
lowest-index tie-break and even the sign of a zero best.

The walk does only the update.  Visits, rewards and greedy policies are
not tallied per step: the walk logs ``(step, state, action)`` in the two
branches where ``arg[s]`` changes, and the codes plus that log fix every
step's action, from which ``qlearn.train`` rebuilds its trace.

``run_lockstep_kernel`` walks many products at once: products that share a
calendar, an epsilon schedule and an action count step together as numpy
lanes, one array operation per lane-wide step.  Every lane performs the
same float operations as the scalar walk and keeps ``best``/``arg`` by the
same rule, so each lane's table is bitwise equal to that product's scalar
result; a step runs no full-row reduction, only the lanes whose greedy
value fell rescan their row.  A block holds every lane's words (a narrow
run starts several jump-ahead lanes per product), and a pointer per lane
walks them: each step tests one word against its episode's threshold and,
if the lane explores, reads the action word after it.  The walk is the
same during the epsilon decay and past it.  Its fixed cost per step is
higher than the scalar walk's, so lockstep pays off only for many
products (``qlearn.LOCKSTEP_MIN_PRODUCTS``).

Kernel conventions: uniform doubles are the top 53 bits of each 64-bit
word scaled by 2**-53; an exploration step consumes one draw for the
epsilon test plus one for the action.  Greedy argmax ties break toward
the lowest action index.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .rng import _INV_2_53

HAVE_NUMBA = False  # read by the benchmark manifest


def resolve_backend() -> str:
    """Name of the training kernel; read by the benchmark manifest."""
    return "python"


def run_train_kernel(
    rewards: np.ndarray,
    rng_state: int,
    day_types: np.ndarray,
    next_day_types: np.ndarray,
    eps_schedule: np.ndarray,
    alpha: float,
    gamma: float,
    codes: list | None = None,
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Train one Q table; returns (q, log).

    ``rewards`` holds the reward (margin times demand) per (state, action),
    ``rng_state`` is a nonzero xorshift64 state, ``day_types`` and
    ``next_day_types`` the state of each calendar step and of its following
    day, and ``eps_schedule`` the epsilon per episode.  ``log`` holds a
    ``(step, state, action)`` entry for each step, counted over the whole
    run, after which the state's greedy action changed; every greedy action
    starts at 0.  If ``codes`` is a list, each walked piece of step codes
    (see ``_step_codes``) is appended to it.
    """
    n_states, n_actions = rewards.shape
    alpha = float(alpha)
    gamma = float(gamma)
    keep = 1.0 - alpha

    # plain Python floats/ints: same IEEE values, much faster scalar ops
    rew = rewards.tolist()

    q = [[0.0] * n_actions for _ in range(n_states)]
    # best[s] is the float max(q[s]) returns, arg[s] the lowest index holding it
    best = [0.0] * n_states
    arg = [0] * n_states
    calendar = [(s, ns, q[s], rew[s]) for s, ns in zip(day_types.tolist(), next_day_types.tolist())]
    log = []
    changed = log.append

    steps = itertools.count()
    days = itertools.cycle(calendar)
    for piece in _step_codes(eps_schedule, len(calendar), n_actions, int(rng_state)):
        if codes is not None:
            codes.append(piece)
        # the piece comes first, so zip stops before it takes another step or day
        for a, t, (s, ns, row, rew_s) in zip(piece, steps, days):
            g = arg[s]
            if a < 0:
                a = g
            # bootstrap read before the write: ns may equal s
            v = keep * row[a] + alpha * (rew_s[a] + gamma * best[ns])
            row[a] = v
            if a == g:
                if v >= best[s]:
                    best[s] = v
                else:
                    # the greedy value fell: rescan the row
                    b = max(row)
                    best[s] = b
                    a = row.index(b)
                    if a != g:
                        arg[s] = a
                        changed((t, s, a))
            elif v > best[s] or (v == best[s] and a < g):
                best[s] = v
                arg[s] = a
                changed((t, s, a))

    return np.array(q, dtype=np.float64), log


def _step_codes(eps_schedule: np.ndarray, n_steps: int, n_actions: int, state: int):
    """Yield the walk's step codes, a list per block of words: per step the
    exploring action, or -1 for the greedy one."""
    belows = _step_belows(eps_schedule, n_steps)
    decay = _floor_start(eps_schedule) * n_steps  # the steps before the floor
    left = len(eps_schedule) * n_steps
    # k * 2**-53 is exact, so k * (n * 2**-53) rounds exactly as the scalar
    # (k * 2**-53) * n does
    action_scale = n_actions * _INV_2_53
    x = np.uint64(state)
    while left:
        words = _stream_words(x, _LANES)
        top = words >> _SHIFT_11
        if decay:
            top = top.tolist()
            codes, read = [], 0
            # a step reads at most two words, so k more steps fit in the block
            while k := min((len(top) - read) // 2, decay):
                for below in itertools.islice(belows, k):
                    read += 1
                    if top[read - 1] < below:
                        codes.append(int(top[read] * action_scale))
                        read += 1
                    else:
                        codes.append(-1)
                decay -= k
        else:
            below = np.uint64(_explore_below(eps_schedule[-1]))
            codes, read = _fixed_layout(top, below, np.float64(action_scale))
            codes = codes[:left].tolist()
        left -= len(codes)
        x = words[read - 1]
        yield codes


def _step_belows(eps_schedule: np.ndarray, n_steps: int):
    """Each step's explore threshold, its episode's ``_explore_below``."""
    # episode by episode: a list of the whole schedule would hold a Python
    # float per episode for the whole walk
    return itertools.chain.from_iterable(
        itertools.repeat(_explore_below(eps), n_steps) for eps in map(float, eps_schedule)
    )


def _floor_start(eps_schedule: np.ndarray) -> int:
    """The first episode from which epsilon stays constant; the word layout
    of the episodes from there on vectorizes."""
    changes = np.flatnonzero(eps_schedule != eps_schedule[-1]) if len(eps_schedule) else []
    return int(changes[-1]) + 1 if len(changes) else 0


def _explore_below(eps: float) -> int:
    """The explore test's threshold on the top 53 bits of a word: for an
    integer k, k * 2**-53 < eps  <=>  k < ceil(eps * 2**53)."""
    return math.ceil(eps * 9007199254740992.0)


def _fixed_layout(top: np.ndarray, below: np.uint64, action_scale: np.float64):
    """Step codes of consecutive words drawn at one epsilon, word 0 a test
    word; returns (codes, number of words read).

    ``top`` holds the words' top 53 bits.  A step whose exploring test is
    the last word is left out, and its test word is not read.
    """
    n = len(top)
    low = top < below
    # in a run of below-threshold words the even offsets are exploring test
    # words and the odd offsets their action words; a word past the run is a
    # test word unless the run had odd length
    starts = low.copy()
    np.greater(low[1:], low[:-1], out=starts[1:])
    pos = np.arange(n)
    run_start = np.maximum.accumulate(np.where(starts, pos, 0))
    action_word = np.zeros(n + 1, dtype=bool)  # index n: the word after the block
    action_word[1:] = low & ((pos - run_start) & 1 == 0)
    actions = np.flatnonzero(action_word[:n])
    word_codes = np.full(n + 1, -1, dtype=np.int64)
    word_codes[actions] = (top[actions] * action_scale).astype(np.int64)
    read = n - int(action_word[n])
    # a step begins at each test word; its code sits in the word after it
    tests = np.flatnonzero(~action_word[:read])
    return word_codes[tests + 1], read


_SHIFT_7 = np.uint64(7)
_SHIFT_11 = np.uint64(11)
_SHIFT_13 = np.uint64(13)
_SHIFT_17 = np.uint64(17)
_BITS = np.arange(64, dtype=np.uint64)
_ONE = np.uint64(1)

# the scalar walk draws each block as _LANES lanes of _SPACING consecutive
# words, during the epsilon decay and past it
_LANES = 256
_SPACING = 16

# The lockstep walk draws each lane's words ahead, about _BLOCK_WORDS words
# at a time over all lanes.  Each array of a block, and the jump-ahead's
# temporary, stays under glibc's default 128 KiB mmap threshold: freeing a
# larger one raises the threshold, and later allocations then stay in the
# heap (1.6 MB more peak RSS on a 2,000-product compare with 32,768-word
# blocks).
_BLOCK_WORDS = 15 << 10


def _xorshift_lanes(src: np.ndarray, dst: np.ndarray, tmp: np.ndarray) -> None:
    """One xorshift64 step of every lane of ``src``, written to ``dst``."""
    np.left_shift(src, _SHIFT_13, out=tmp)
    np.bitwise_xor(src, tmp, out=dst)
    np.right_shift(dst, _SHIFT_7, out=tmp)
    dst ^= tmp
    np.left_shift(dst, _SHIFT_17, out=tmp)
    dst ^= tmp


@functools.lru_cache(maxsize=4)
def _jump_table(spacing: int, lanes: int) -> np.ndarray:
    """``(64, lanes)`` words: entry (i, j) is ``M^(j * spacing)`` times bit i.

    The state ``j * spacing`` steps after ``x`` is the xor of column j's
    entries at the set bits of ``x``.  Read-only: every caller shares it.
    """
    basis = _ONE << _BITS
    jump = basis.copy()  # the columns of M^spacing
    tmp = np.empty_like(jump)
    for _ in range(spacing):
        _xorshift_lanes(jump, jump, tmp)
    table = np.empty((64, lanes), dtype=np.uint64)
    table[:, 0] = basis
    filled = 1
    while filled < lanes:  # jump holds the columns of M^(filled * spacing)
        n = min(filled, lanes - filled)
        # a one-column table applies M^(filled * spacing) to every word
        table[:, filled : filled + n] = _lane_starts(table[:, :n], jump[:, None])[0]
        jump = _lane_starts(jump, jump[:, None])[0]
        filled += n
    table.flags.writeable = False
    return table


def _lane_starts(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The states ``0, spacing, 2 * spacing, ...`` steps after each state
    of ``x``, one per column of its ``_jump_table``: shape
    ``(lanes,) + x.shape``."""
    # bit i of every state, on axis 0, selects row i of the table; a few
    # bits at a time keep the temporary under _BLOCK_WORDS words
    shape = (-1,) + (1,) * np.ndim(x)
    rows = table.reshape((64, -1) + shape[1:])
    step = max(1, _BLOCK_WORDS // (table.shape[1] * np.size(x)))
    starts = 0
    for i in range(0, 64, step):
        bits = (x >> _BITS[i : i + step].reshape(shape)) & _ONE
        starts ^= np.bitwise_xor.reduce(rows[i : i + step] * bits[:, None], axis=0)
    return starts


def _stream_words(x: np.ndarray, lanes: int, spacing: int = _SPACING) -> np.ndarray:
    """The ``lanes * spacing`` xorshift64 words after each state of ``x``,
    in stream order along axis 0, drawn as ``lanes`` lanes ``spacing``
    words apart."""
    # the first lane starts at the state itself
    lane = _lane_starts(x, _jump_table(spacing, lanes)) if lanes > 1 else np.asarray(x)[None]
    block = np.empty((spacing,) + lane.shape, dtype=np.uint64)
    tmp = np.empty_like(lane)
    for t in range(spacing):
        _xorshift_lanes(lane, block[t], tmp)
        lane = block[t]
    return np.swapaxes(block, 0, 1).reshape((-1,) + np.shape(x))


def run_lockstep_kernel(
    rewards: np.ndarray,
    rng_states: np.ndarray,
    day_types: np.ndarray,
    next_day_types: np.ndarray,
    eps_schedule: np.ndarray,
    alpha: float,
    gamma: float,
) -> np.ndarray:
    """Train one Q table per lane; returns the ``(lanes, states, actions)`` tables.

    ``rewards[p, s, a]`` is lane ``p``'s reward (margin times demand),
    ``rng_states`` one nonzero xorshift64 state per lane; the calendar,
    epsilon schedule, ``alpha`` and ``gamma`` are shared.  Each lane's
    table is bitwise equal to ``run_train_kernel`` on that lane's inputs.
    """
    n_lanes, n_states, n_actions = rewards.shape
    alpha = float(alpha)
    gamma = float(gamma)
    keep = 1.0 - alpha

    # state-major layout: the rows of one state are one contiguous block
    q = np.zeros((n_states, n_lanes, n_actions))
    q_flat = [q[s].reshape(-1) for s in range(n_states)]
    r_flat = [np.ascontiguousarray(rewards[:, s, :]).reshape(-1) for s in range(n_states)]
    lane_offsets = np.arange(n_lanes) * n_actions
    # best[s, p] is the float max(q[s, p]) returns, and arg[s, p] the lowest
    # index holding it, as an index into q_flat[s]
    best = np.zeros((n_states, n_lanes))
    arg = np.tile(lane_offsets, (n_states, 1))
    calendar = [
        (q[s], q_flat[s], r_flat[s], best[s], arg[s], best[ns])
        for s, ns in zip(day_types.tolist(), next_day_types.tolist())
    ]

    # k * 2**-53 is exact, so k * (n * 2**-53) rounds exactly as the scalar
    # (k * 2**-53) * n does
    action_scale = np.float64(n_actions * _INV_2_53)
    belows = _step_belows(eps_schedule, len(calendar))
    days = itertools.cycle(calendar)
    left = len(eps_schedule) * len(calendar) if n_lanes else 0
    x = np.array(rng_states, dtype=np.uint64)
    while left:
        # words per lane: an even number, as a step reads at most two, and no
        # more than the steps left can read; a narrow run draws them as
        # jump-ahead lanes about _SPACING words apart, so that each call does
        # real work
        width = max(4, min(_BLOCK_WORDS // n_lanes, 2 * left) & -2)
        spans = max(1, width // _SPACING)
        words = _stream_words(x, spans, width // spans)
        width = len(words)
        # one row of words per step, one column per lane; top < 2**53, so
        # its int64 view converts to the same float
        top = (words >> _SHIFT_11).view(np.int64)
        # acts[w, p]: the flat row index of the action that word w + 1 draws
        acts = (top[1:] * action_scale).astype(np.int64)
        acts += lane_offsets
        top = top.reshape(-1)
        acts = acts.reshape(-1)
        # step t of the block tests lane p's word t + at[p] // n_lanes
        at = np.arange(n_lanes)
        t = 0
        while left:
            # a step reads at most two words, and the last word is no test word
            k = min((width - 2 - t - int(at.max()) // n_lanes) // 2 + 1, left)
            if k <= 0:
                break
            # the range comes first, so zip stops before it takes another day
            for row, below, (qs, qs_flat, rs_flat, bs, g, best_ns) in zip(
                range(t * n_lanes, (t + k) * n_lanes, n_lanes), belows, days
            ):
                explore = top[row:].take(at) < below
                idx = np.where(explore, acts[row:].take(at), g)
                at += explore * n_lanes
                # bootstrap read before the write: ns may equal s
                v = keep * qs_flat[idx] + alpha * (rs_flat[idx] + gamma * best_ns)
                qs_flat[idx] = v
                # the scalar kernel's rule, lane by lane: a value above the best, or
                # equal to it at an index no higher than the greedy one, becomes the
                # new best; a fall of the greedy value itself rescans the row
                ge = v >= bs
                take = np.where(idx <= g, ge, v > bs)
                fall = np.greater(idx == g, ge).nonzero()[0]
                np.copyto(bs, v, where=take)
                np.copyto(g, idx, where=take)
                if len(fall):
                    new = fall * n_actions + qs.take(fall, axis=0).argmax(axis=1)  # ties break toward the lowest index
                    g[fall] = new
                    bs[fall] = qs_flat[new]
            t += k
            left -= k
        # every lane resumes after the last word it read
        x = words.reshape(-1)[at + (t - 1) * n_lanes]

    return np.ascontiguousarray(q.transpose(1, 0, 2))
