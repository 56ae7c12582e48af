import tracemalloc

import numpy as np
import pytest

from rtblab.agents import (
    ActionGrid,
    DdqnConfig,
    FdqiConfig,
    GreedyQAgent,
    LinBidAgent,
    QNetwork,
    ReplayBuffer,
    act_epsilon_greedy,
    ddqn_loss,
    epsilon_schedule,
    fdqi_build_transitions,
    fdqi_train,
    fitted_q_loss,
    linbid_act,
    linbid_tune,
    q_backward,
    q_forward,
    train_ddqn,
)
from rtblab.agents.replay import batch_arrays
from rtblab.autodiff import mlp_forward
from rtblab.data import PackedRequests, SampleSet
from rtblab.env import EnvMeta, SimEnv
from rtblab.errors import DataError
from rtblab.market_action import ClickModel, PriceModel
from rtblab.market_state import EmpiricalSampler
from rtblab.rng import stream


def onehot(hot, width):
    """A 1-row request with one active index."""
    return PackedRequests(np.array([[hot]]), width)


def table(rows):
    """A transition table holding rows of ReplayBuffer.push arguments."""
    buf = ReplayBuffer()
    for row in rows:
        buf.push(*row)
    return buf


def toy_obs(width=4, hot=0, b=0.5, t=1.0):
    class Obs:
        request = onehot(hot, width)
        budget_norm = b
        time_norm = t

    return Obs()


def const_qnet(width=3, k=4, v0=0.0, adv=None):
    """All weights zero; only output biases set, so Q is input-independent."""
    qnet = QNetwork.build(width, stream(0, "const"), n_actions=k, shared=8, branch=6)
    qnet.params[:] = 0.0
    qnet.value.layers[-1].b[:] = v0
    if adv is not None:
        qnet.advantage.layers[-1].b[:] = np.asarray(adv, dtype=np.float64)
    return qnet


def price_env_factory(price_by_index, cpm_ref, t0_ref, seed, width=None):
    """Deterministic-price environment over one request type per index."""
    width = width or len(price_by_index)
    reqs = PackedRequests(np.arange(len(price_by_index))[:, None], width)
    w = np.zeros(width)
    for i, v in enumerate(price_by_index):
        w[i] = v
    price = PriceModel(w, 0.0, np.zeros(width), -20.0)
    meta = EnvMeta(cpm_ref=cpm_ref, t0_ref=t0_ref)

    def factory(label):
        return SimEnv(
            EmpiricalSampler(reqs, stream(seed, label, "x")),
            price, None, "impression", meta, stream(seed, label, "m"),
        )

    return factory, price


class TestActionGrid:
    def test_centers_of_equal_intervals(self):
        grid = ActionGrid.from_max_price(20.0, k=20)
        assert len(grid) == 20
        assert grid.values[0] == pytest.approx(0.5)
        assert grid.values[-1] == pytest.approx(19.5)
        assert np.allclose(np.diff(grid.values), 1.0)

    def test_midpoint_ties_to_lower_index(self):
        grid = ActionGrid(np.array([1.0, 3.0, 5.0]))
        assert grid.nearest_index(2.0) == 0
        assert grid.nearest_index(2.0001) == 1


class TestQNetwork:
    def test_dueling_identity_mean_q_equals_v(self):
        rng = stream(110, "q")
        qnet = QNetwork.build(6, rng, n_actions=5, shared=16, branch=8)
        packed = PackedRequests(np.arange(7)[:, None] % 6, 6)
        b = rng.random(7)
        t = rng.random(7)
        q = q_forward(qnet, packed, b, t)
        # straight-line recomputation of the V branch
        h1 = packed.dot(qnet.f1_w) + qnet.f1_b[0]
        trunk = mlp_forward(qnet.trunk, np.column_stack([h1, b, t]))
        v = mlp_forward(qnet.value, trunk)[:, 0]
        assert np.max(np.abs(q.mean(axis=1) - v)) < 1e-10

    def test_zero_advantage_branch_gives_v(self):
        qnet = const_qnet(v0=2.5, adv=[0.0, 0.0, 0.0, 0.0])
        q = q_forward(qnet, onehot(0, 3), [0.3], [0.9])
        assert np.allclose(q, 2.5)

    def test_parts_view_one_params_vector_in_order(self):
        qnet = QNetwork.build(5, stream(113, "q"), n_actions=4, shared=8, branch=6)
        parts = [qnet.f1_w, qnet.f1_b] + [
            a for net in (qnet.trunk, qnet.value, qnet.advantage)
            for lay in net.layers for a in (lay.w, lay.b)]
        assert all(np.shares_memory(a, qnet.params) for a in parts)
        assert np.array_equal(qnet.params, np.concatenate([a.ravel() for a in parts]))
        for net in (qnet.trunk, qnet.value, qnet.advantage):
            assert np.shares_memory(net.params, qnet.params)

    def test_writing_params_changes_q_forward(self):
        rng = stream(114, "q")
        qnet = QNetwork.build(5, rng, n_actions=4, shared=8, branch=6)
        packed = PackedRequests(np.arange(3)[:, None] % 5, 5)
        b, t = rng.random(3), rng.random(3)
        before = q_forward(qnet, packed, b, t)
        qnet.params[-4:] += np.array([1.0, 2.0, 3.0, 6.0])   # advantage output bias
        after = q_forward(qnet, packed, b, t)
        assert np.allclose(after - before, [-2.0, -1.0, 0.0, 3.0])

    def test_copy_shares_no_memory(self):
        qnet = QNetwork.build(5, stream(115, "q"), n_actions=4, shared=8, branch=6)
        dup = qnet.copy()
        assert np.array_equal(dup.params, qnet.params)
        assert not np.shares_memory(dup.params, qnet.params)
        assert not np.shares_memory(dup.trunk.params, qnet.params)
        dup.params[:] = 0.0
        assert np.any(qnet.params != 0.0)
        assert np.shares_memory(dup.advantage.layers[-1].b, dup.params)

    def test_recomputation_oracle(self):
        rng = stream(111, "q")
        qnet = QNetwork.build(4, rng, n_actions=6, shared=12, branch=8)
        packed = onehot(1, 4)
        b, t = [0.7], [0.4]
        q = q_forward(qnet, packed, b, t)
        h1 = packed.dot(qnet.f1_w) + qnet.f1_b[0]
        trunk = mlp_forward(qnet.trunk, np.column_stack([h1, b, t]))
        v = mlp_forward(qnet.value, trunk)
        a = mlp_forward(qnet.advantage, trunk)
        assert np.max(np.abs(q - (v + a - a.mean(axis=1, keepdims=True)))) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = stream(112, "q-fd")
        qnet = QNetwork.build(5, rng, n_actions=4, shared=8, branch=6)
        packed = PackedRequests(np.arange(3)[:, None] % 5, 5)
        b = rng.random(3)
        t = rng.random(3)
        seed = rng.normal(size=(3, 4))

        def loss():
            return float(np.sum(seed * q_forward(qnet, packed, b, t)))

        _, traces = q_forward(qnet, packed, b, t, record=True)
        grads = q_backward(qnet, traces, seed)
        h = 1e-6
        flat = qnet.params
        assert grads.shape == flat.shape
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grads[i] - fd) / max(1.0, abs(fd)) < 1e-4

    def test_greedy_action_invariant_to_positive_scaling(self):
        rng = stream(113, "q")
        qnet = QNetwork.build(4, rng, n_actions=5, shared=8, branch=6)
        obs = toy_obs(width=4)
        q = q_forward(qnet, obs.request, [obs.budget_norm], [obs.time_norm])[0]
        assert np.argmax(q) == np.argmax(3.7 * q)


class TestEpsilon:
    def test_schedule_exact_values(self):
        assert epsilon_schedule(0) == pytest.approx(1.0, abs=1e-12)
        assert epsilon_schedule(10**9) == pytest.approx(0.2, abs=1e-6)
        assert epsilon_schedule(500_000) == pytest.approx(0.2 + 0.8 * np.exp(-1.0),
                                                          abs=1e-9)

    def test_greedy_when_eps_zero(self):
        qnet = const_qnet(v0=0.0, adv=[0.0, 3.0, 1.0, 0.0])
        a = act_epsilon_greedy(qnet, toy_obs(width=3), 0.0, stream(114, "e"))
        assert a == 1

    def test_tie_breaks_to_lowest_index(self):
        qnet = const_qnet(v0=1.0, adv=[0.5, 0.5, 0.5, 0.5])
        a = act_epsilon_greedy(qnet, toy_obs(width=3), 0.0, stream(115, "e"))
        assert a == 0

    def test_uniform_exploration_frequencies(self):
        qnet = const_qnet(width=3, k=20)
        rng = stream(116, "e")
        obs = toy_obs(width=3)
        draws = np.array([act_epsilon_greedy(qnet, obs, 1.0, rng)
                          for _ in range(100_000)])
        freqs = np.bincount(draws, minlength=20) / draws.size
        assert np.all(np.abs(freqs - 0.05) < 0.005)


class TestReplay:
    def tr(self, i):
        req = onehot(i % 3, 3)
        return (req, 0.1, 0.2, i % 4, float(i), req, 0.1, 0.1, False)

    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(capacity=5)
        for i in range(8):
            buf.push(*self.tr(i))
        assert len(buf) == 5
        rewards = sorted(buf["reward"])
        assert rewards == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_batch_without_replacement(self):
        buf = ReplayBuffer(capacity=100)
        for i in range(50):
            buf.push(*self.tr(i))
        batch = buf.sample(32, stream(117, "r"))
        rewards = list(buf["reward"][batch])
        assert len(rewards) == len(set(rewards)) == 32


    def test_columns_grow_with_the_data(self):
        tracemalloc.start()
        buf = ReplayBuffer()   # room for 2.5 M transitions
        for i in range(10):
            buf.push(*self.tr(i))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1_000_000
        assert buf["reward"].tolist() == [float(i) for i in range(10)]

    def test_wrapped_ring_gathers_what_a_per_row_pack_gives(self):
        rng = stream(149, "ring")
        source = PackedRequests(rng.integers(0, 30, size=(40, 5)), 30)
        cap = 7
        buf = ReplayBuffer(capacity=cap)
        slots = [None] * cap   # the reference ring: push j lands in slot j % cap
        for j in range(19):
            row = (source.rows([j]), rng.random(), rng.random(), int(rng.integers(4)),
                   rng.random(), source.rows([j + 1]), rng.random(), rng.random(),
                   bool(rng.random() < 0.5))
            buf.push(*row)
            slots[j % cap] = row
        ids = buf.sample(5, rng)
        got = batch_arrays(buf, ids)
        names = ("packed", "b", "t", "action", "reward", "next_packed", "next_b",
                 "next_t", "done")
        for c, name in enumerate(names):
            if name.endswith("packed"):
                want = PackedRequests.from_rows([slots[i][c].indices for i in ids], 30)
                assert got[name].width == want.width
                assert got[name].indices.dtype == want.indices.dtype
                assert got[name] == want
            else:
                want = np.array([slots[i][c] for i in ids])
                assert got[name].dtype.kind == want.dtype.kind
                assert np.array_equal(got[name], want)

    def test_request_of_another_index_count_raises(self):
        buf = ReplayBuffer(capacity=4)
        pair = PackedRequests(np.array([[0, 2]]), 3)
        buf.push(pair, 0.1, 0.2, 0, 0.0, pair, 0.1, 0.1, False)
        with pytest.raises(DataError, match="2 indices; got one of 1"):
            buf.push(pair, 0.1, 0.2, 0, 0.0, onehot(1, 3), 0.1, 0.1, True)
        assert len(buf) == 1

    def test_full_ring_keeps_no_object_per_transition(self):
        cap, k = 20_000, 14
        source = PackedRequests(stream(153, "ring").integers(0, 200, size=(cap + 1, k)), 200)
        tracemalloc.start()
        buf = ReplayBuffer(capacity=cap)
        for j in range(cap):
            # a new 1-row request per side, as the environment hands them out
            buf.push(source.rows([j]), 0.5, 1.0, 3, 1.0, source.rows([j + 1]),
                     0.4, 0.9, False)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(buf) == cap
        assert held / cap < 400

    def test_batch_gather_memory_does_not_grow_with_the_ring(self):
        cap, k = 20_000, 14
        source = PackedRequests(stream(155, "ring").integers(0, 200, size=(101, k)), 200)
        buf = ReplayBuffer(capacity=cap)
        for j in range(cap):
            buf.push(source.rows([j % 100]), 0.5, 1.0, 3, 1.0, source.rows([j % 100 + 1]),
                     0.4, 0.9, False)
        ids = buf.sample(32, stream(155, "ids"))
        tracemalloc.start()
        batch = batch_arrays(buf, ids)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(batch["packed"]) == len(batch["reward"]) == 32
        assert peak < 64 * 1024


class TestDdqnLoss:
    def batch(self, rows):
        return batch_arrays(table(rows), np.arange(len(rows)))

    def test_hand_computed_two_transition_batch(self):
        k = 4
        online = const_qnet(width=3, k=k, v0=1.0, adv=[0.0, 2.0, 1.0, 0.0])
        target = const_qnet(width=3, k=k, v0=0.5, adv=[3.0, 0.0, 0.0, 0.0])
        # online Q = [0.25, 2.25, 1.25, 0.25] (argmax 1)
        # target Q = [2.75, -0.25, -0.25, -0.25]; double-Q bootstrap = -0.25
        req = onehot(0, 3)
        batch = self.batch([
            (req, 0.5, 1.0, 0, 1.0, req, 0.5, 0.9, False),  # target 1 - 0.25 = 0.75
            (req, 0.5, 1.0, 2, 2.0, req, 0.5, 0.9, True),   # done: target = 2
        ])
        loss, _ = ddqn_loss(online, target, batch)
        # errs: 0.25 - 0.75 = -0.5; 1.25 - 2 = -0.75
        assert loss == pytest.approx((0.25 + 0.5625) / 2, abs=1e-10)

    def test_double_q_uses_online_argmax_target_value(self):
        # a plain max over the target net would bootstrap 2.75, not -0.25
        online = const_qnet(width=3, k=4, v0=1.0, adv=[0.0, 2.0, 1.0, 0.0])
        target = const_qnet(width=3, k=4, v0=0.5, adv=[3.0, 0.0, 0.0, 0.0])
        req = onehot(0, 3)
        batch = self.batch([(req, 0.5, 1.0, 1, 0.0, req, 0.5, 0.9, False)])
        loss, _ = ddqn_loss(online, target, batch)
        assert loss == pytest.approx((2.25 - (-0.25)) ** 2, abs=1e-10)
        plain, _ = fitted_q_loss(online, target, batch)
        assert plain == pytest.approx((2.25 - 2.75) ** 2, abs=1e-10)

    def test_fixed_point_zero_loss(self):
        qnet = const_qnet(width=3, k=4, v0=1.0, adv=[0.0, 2.0, 1.0, 0.0])
        req = onehot(0, 3)
        batch = self.batch([
            (req, 0.5, 1.0, 1, 0.0, req, 0.5, 0.9, False),  # Q=2.25 = 0 + 2.25
            (req, 0.5, 1.0, 1, 2.25, req, 0.5, 0.9, True),  # Q=2.25 = r
        ])
        loss, _ = ddqn_loss(qnet, qnet, batch)
        assert loss == pytest.approx(0.0, abs=1e-12)


class TestTrainDdqn:
    def test_zero_budget_learns_zero(self):
        factory, price = price_env_factory([3.0, 7.0], cpm_ref=5000.0,
                                           t0_ref=50, seed=118)
        cfg = DdqnConfig(total_steps=3000, workers=2, batch_size=16, lr=1e-3,
                         warmup_steps=200, target_sync=200, t0=50,
                         fixed_budget=0.0, eps_scale=1000.0,
                         shared_width=16, branch_width=8)
        grid = ActionGrid.from_max_price(7.0, k=20)
        qnet, diag = train_ddqn(factory, grid, cfg, stream(118, "t"))
        env = factory("eval")
        obs = env.reset(0.0, 50)
        agent = GreedyQAgent(qnet, grid)
        qs = []
        while not env.done:
            from rtblab.agents.qnet import q_values
            qs.append(np.max(np.abs(q_values(qnet, obs))))
            obs = env.step(agent.bid(obs)).observation
        assert env.total_reward == 0
        assert float(np.mean(qs)) < 0.5

    def test_seed_determinism(self):
        factory, _ = price_env_factory([4.0], cpm_ref=4000.0, t0_ref=20, seed=119)
        cfg = DdqnConfig(total_steps=300, workers=2, batch_size=8, warmup_steps=50,
                         target_sync=50, t0=20, shared_width=8, branch_width=4)
        grid = ActionGrid.from_max_price(4.0, k=5)
        a, _ = train_ddqn(factory, grid, cfg, stream(120, "t"))
        b, _ = train_ddqn(factory, grid, cfg, stream(120, "t"))
        assert np.array_equal(a.params, b.params)


class TestLinBid:
    def test_impression_mode_constant(self):
        assert linbid_act(12.0, onehot(0, 2)) == 12.0

    def test_click_mode_scales_with_pctr(self):
        model = ClickModel(np.array([2.0, 0.0]), -1.0)
        x_hi = onehot(0, 2)
        p_hi = float(model.prob(x_hi)[0])
        bid = linbid_act(10.0, x_hi, "click", model, avg_ctr=p_hi / 2)
        assert bid == pytest.approx(20.0)
        bid_avg = linbid_act(10.0, x_hi, "click", model, avg_ctr=p_hi)
        assert bid_avg == pytest.approx(10.0)

    def test_tune_prefers_smaller_on_ties(self):
        # deterministic price 5, ample budget: every base > 5 is equivalent
        factory, _ = price_env_factory([5.0], cpm_ref=5000.0, t0_ref=20, seed=121)
        best, means = linbid_tune(factory, [6.0, 8.0, 10.0], episodes_per_point=2,
                                  b0_eval=1000.0, t0=20)
        assert best == 6.0
        assert len(set(means.values())) == 1

    def test_budget_starved_paces_below_median(self):
        # prices {2, 10}: winning everything bankrupts; the low base wins
        factory, _ = price_env_factory([2.0, 10.0], cpm_ref=6000.0,
                                       t0_ref=50, seed=122)
        best, means = linbid_tune(factory, [3.0, 11.0], episodes_per_point=4,
                                  b0_eval=40.0, t0=50)
        assert best == 3.0
        assert means[3.0] > means[11.0]


class TestFdqi:
    def logged_samples(self, n, wins, bids, prices, width=2, clicks=None):
        reqs = PackedRequests(np.arange(n)[:, None] % width, width)
        return SampleSet(
            reqs, np.asarray(bids, dtype=np.float64),
            np.where(wins, np.asarray(prices, dtype=np.float64), np.nan),
            np.asarray(wins, dtype=bool),
            np.zeros(n, bool) if clicks is None else np.asarray(clicks, bool),
            np.arange(n, dtype=np.int64), width,
        )

    def test_all_lost_chunk(self):
        n = 10
        samples = self.logged_samples(n, [False] * n, [5.0] * n, [0.0] * n)
        grid = ActionGrid.from_max_price(10.0, k=5)
        trs = fdqi_build_transitions(samples, grid, t0=5, cpm_ref=1000.0)
        assert len(trs["reward"]) == 10
        assert np.all(trs["reward"] == 0.0)
        assert np.all(trs["b"] == 0.0)  # b0 = sum costs = 0

    def test_budget_trace_conserves(self):
        rng = stream(123, "fdqi")
        n = 40
        wins = rng.random(n) < 0.6
        prices = rng.uniform(1, 9, n)
        samples = self.logged_samples(n, wins, prices + 1, prices)
        grid = ActionGrid.from_max_price(10.0, k=5)
        trs = fdqi_build_transitions(samples, grid, t0=20, cpm_ref=1000.0)
        scale = 1000.0 * 20 / 1000.0
        for chunk_end in (19, 39):
            assert trs["done"][chunk_end]
            assert abs(trs["next_b"][chunk_end] * scale) <= 1e-9

    def test_short_log_single_episode_warns(self):
        samples = self.logged_samples(7, [True] * 7, [5.0] * 7, [2.0] * 7)
        grid = ActionGrid.from_max_price(10.0, k=5)
        with pytest.warns(UserWarning):
            trs = fdqi_build_transitions(samples, grid, t0=100, cpm_ref=1000.0)
        assert len(trs["reward"]) == 7 and trs["done"][-1]

    def test_logged_bid_maps_to_nearest_grid_action(self):
        grid = ActionGrid(np.array([1.0, 3.0, 5.0, 7.0]))
        samples = self.logged_samples(2, [True, True], [2.0, 6.9], [1.0, 5.0])
        trs = fdqi_build_transitions(samples, grid, t0=2, cpm_ref=1000.0)
        assert trs["action"][0] == 0  # midpoint tie -> lower
        assert trs["action"][1] == 3

    def test_columns_match_a_per_record_replay(self):
        rng = stream(127, "fdqi")
        n, t0 = 53, 20
        wins = rng.random(n) < 0.5
        prices = rng.uniform(1, 9, n)
        samples = self.logged_samples(n, wins, rng.uniform(0, 10, n), prices, width=3,
                                      clicks=wins & (rng.random(n) < 0.3))
        grid = ActionGrid.from_max_price(10.0, k=5)
        trs = fdqi_build_transitions(samples, grid, t0, cpm_ref=700.0, utility="click")
        scale = 700.0 * t0 / 1000.0
        want = {k: [] for k in ("b", "t", "action", "reward", "next_b", "next_t",
                                "done", "row", "next_row")}
        for start in range(0, n - t0 + 1, t0):
            budget = float(np.where(wins, prices, 0.0)[start : start + t0].sum())
            for j in range(t0):
                i = start + j
                cost = prices[i] if wins[i] else 0.0
                want["b"].append(budget / scale)
                want["t"].append((t0 - j) / t0)
                want["action"].append(int(np.argmin(np.abs(grid.values - samples.bids[i]))))
                want["reward"].append(float(samples.clicks[i]))
                want["next_b"].append((budget - cost) / scale)
                want["next_t"].append((t0 - j - 1) / t0)
                want["done"].append(j == t0 - 1)
                want["row"].append(i)
                want["next_row"].append(i if j == t0 - 1 else i + 1)
                budget -= cost
        for k in ("b", "t", "action", "reward", "next_b", "next_t", "done"):
            assert np.array_equal(trs[k], np.array(want[k])), k
        assert trs["packed"] == samples.requests.rows(want["row"])
        assert trs["next_packed"] == samples.requests.rows(want["next_row"])

    def test_single_done_transition_regresses_to_reward(self):
        req = onehot(0, 2)
        trs = table([(req, 0.4, 1.0, 1, 0.7, req, 0.4, 0.0, True)] * 20)
        cfg = FdqiConfig(outer_iters=8, epochs_per_iter=30, batch_size=8,
                         lr=1e-2, n_actions=3, shared_width=8, branch_width=4)
        qnet, _ = fdqi_train(trs, width=2, cfg=cfg, rng=stream(124, "f"))
        q = q_forward(qnet, req, [0.4], [1.0])[0]
        assert q[1] == pytest.approx(0.7, abs=1e-3)

    def test_two_step_chain_exact_returns(self):
        req = onehot(0, 2)
        k = 3
        chain = [(req, 0.5, 1.0, 0, 1.0, req, 0.5, 0.5, False)]
        chain += [(req, 0.5, 0.5, a, 1.0, req, 0.5, 0.0, True) for a in range(k)]
        trs = table(chain * 40)
        cfg = FdqiConfig(outer_iters=12, epochs_per_iter=10, batch_size=32,
                         lr=5e-3, n_actions=k, shared_width=12, branch_width=8)
        qnet, _ = fdqi_train(trs, width=2, cfg=cfg, rng=stream(125, "f"))
        q_s2 = q_forward(qnet, req, [0.5], [0.5])[0]
        q_s1 = q_forward(qnet, req, [0.5], [1.0])[0]
        assert np.allclose(q_s2, 1.0, atol=1e-2)
        assert q_s1[0] == pytest.approx(2.0, abs=1e-2)

    def test_seed_determinism(self):
        req = onehot(0, 2)
        trs = table([(req, 0.4, 1.0, 0, 0.5, req, 0.4, 0.0, True)] * 10)
        cfg = FdqiConfig(outer_iters=2, epochs_per_iter=5, batch_size=4,
                         n_actions=3, shared_width=8, branch_width=4)
        a, _ = fdqi_train(trs, 2, cfg, stream(126, "f"))
        b, _ = fdqi_train(trs, 2, cfg, stream(126, "f"))
        assert np.array_equal(a.params, b.params)
