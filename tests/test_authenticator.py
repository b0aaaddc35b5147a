import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from spoofsim.authenticator import (CLASSIFIER_BATCH, CLASSIFIER_HIDDEN, FROM_T, NOT_T,
                                    Authenticator,
                                    ClassifierMetrics, LabeledDataset, build_dataset,
                                    build_phasor_dataset, classify, evaluate, one_hot,
                                    train_classifier)
from spoofsim.frontend import condition_rows, symbol_phasors
from spoofsim.nn import (AdamState, DenseNetwork, Workspace, adam_step, backward,
                         cross_entropy_delta, forward, init_network, predict)
from spoofsim.scenario import ScenarioConfig, substream
from spoofsim.waveform import feature_rows, phasor_width

TINY = dict(samples_per_symbol=10)  # fast bursts for unit-level checks


def tiny_scenario(seed=0, **kw):
    return ScenarioConfig(seed=seed, **{**TINY, **kw})


class TestClassifierMetrics:
    def test_reference_counts(self):
        m = ClassifierMetrics(1000, 504, 37, 39)
        assert m.e_md == 37 / 504
        assert m.e_fa == 39 / 496
        npt.assert_allclose([m.e_md, m.e_fa], [0.0734, 0.0786], atol=5e-5)

    def test_counts_bounded_by_class_sizes(self):
        with pytest.raises(ValueError):
            ClassifierMetrics(10, 4, 5, 0)
        with pytest.raises(ValueError):
            ClassifierMetrics(10, 4, 0, 7)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ClassifierMetrics(10, 10, 0, 0)


class TestBuildDataset:
    def test_shapes_and_rough_balance(self):
        sc = tiny_scenario()
        ds = build_dataset(sc, 400, 0.5, substream(0, 1))
        # 4 symbols of S = 10 points per antenna, one I/Q pair per point
        assert ds.features.shape == (400, 2 * 4 * 10 * sc.n_r)
        assert 120 < ds.labels.sum() < 280
        assert ds.n_antennas == 1 and ds.samples_per_symbol == 10

    def test_two_samples_one_per_class(self):
        # extreme fractions still leave one sample per class
        sc = tiny_scenario()
        for frac in (0.001, 0.999):
            ds = build_dataset(sc, 2, frac, substream(1, 1))
            assert set(ds.labels) == {FROM_T, NOT_T}

    def test_class_conditional_power_differs(self):
        sc = tiny_scenario()
        ds = build_dataset(sc, 600, 0.5, substream(2, 1))
        pos = np.mean(ds.features[ds.labels == FROM_T] ** 2)
        neg = np.mean(ds.features[ds.labels == NOT_T] ** 2)
        assert pos > 1.3 * neg  # T sits closer to R than the adversary

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            build_dataset(tiny_scenario(), 10, 1.0, substream(0, 1))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            build_dataset(tiny_scenario(), 1, 0.5, substream(0, 1))

    def test_deterministic_under_seeded_stream(self):
        sc = tiny_scenario(seed=3)
        a = build_dataset(sc, 50, 0.5, substream(3, 1))
        b = build_dataset(sc, 50, 0.5, substream(3, 1))
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.labels, b.labels)


def traced_peak(fn, *args):
    """fn(*args) and the most memory tracemalloc saw allocated during the
    call beyond what was allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - before


class TestRawPathMemory:
    """The raw path builds no full-width temporary: drawing bursts peaks
    near its output, and conditioning them far below its input (both were
    more than double these bounds with one-shot products and filters)."""

    SCENARIO = ScenarioConfig(n_t=4, n_r=4, n_a=1, seed=11)

    def test_build_dataset_peaks_near_its_output(self):
        sc = self.SCENARIO
        ds, peak = traced_peak(build_dataset, sc, 1000, 0.5, np.random.default_rng(11))
        assert ds.features.shape == (1000, 2 * 4 * 4 * sc.samples_per_symbol)
        assert peak <= 1.25 * ds.features.nbytes

    def test_conditioning_peaks_far_below_its_input(self):
        sc = self.SCENARIO
        rows = build_dataset(sc, 1000, 0.5, np.random.default_rng(11)).features
        _, peak = traced_peak(condition_rows, rows, 4, sc.samples_per_symbol)
        assert peak <= 0.15 * rows.nbytes


class TestBuildPhasorDataset:
    def test_shape_and_geometry(self):
        sc = tiny_scenario(n_r=3)
        ds = build_phasor_dataset(sc, 50, 0.5, substream(0, 1))
        assert ds.features.shape == (50, phasor_width(sc.n_r))
        assert ds.n_antennas == 3 and ds.samples_per_symbol == 10

    def test_same_draws_as_build_dataset_up_to_the_receiver(self):
        # same labels, and the raw rows' matched filter differs from the
        # twin's phasors by two independent CN(0, 1/S) noise draws only
        sc = tiny_scenario(seed=3, n_r=2)
        raw = build_dataset(sc, 3000, 0.5, substream(3, 1))
        twin = build_phasor_dataset(sc, 3000, 0.5, substream(3, 1))
        npt.assert_array_equal(raw.labels, twin.labels)
        diff = feature_rows(symbol_phasors(raw.features, 2, 10)) - twin.features
        assert abs(diff.mean()) < 4 * np.sqrt(0.1 / diff.size)
        npt.assert_allclose(diff.var(), 2 / 10 / 2, rtol=0.03)

    def test_conditioned_class_moments_match_build_dataset(self):
        # per class, each conditioned feature's mean and mean square agree
        # between the raw rows and their phasor twin drawn on other streams
        sc = tiny_scenario(seed=4, n_r=2)
        n = 4000
        raw = build_dataset(sc, n, 0.5, substream(4, 1))
        twin = build_phasor_dataset(sc, n, 0.5, substream(4, 2))
        x_raw = condition_rows(raw.features, 2, 10)
        x_twin = condition_rows(twin.features, 2, 10)
        for label in (FROM_T, NOT_T):
            a, b = x_raw[raw.labels == label], x_twin[twin.labels == label]
            for moment in (1, 2):
                ma, mb = (a ** moment).mean(axis=0), (b ** moment).mean(axis=0)
                se = np.sqrt((a ** moment).var(axis=0) / len(a)
                             + (b ** moment).var(axis=0) / len(b))
                assert np.all(np.abs(ma - mb) < 4.5 * se + 1e-12), (label, moment)

    def test_classifier_trains_alike_on_phasor_rows(self):
        # the phasor rows of a raw dataset train the very same network
        sc = tiny_scenario(seed=5)
        raw = build_dataset(sc, 60, 0.5, substream(5, 1))
        rows = feature_rows(symbol_phasors(raw.features, 1, 10))
        twin = LabeledDataset(rows, raw.labels, 1, 10)
        a = train_classifier(raw, 40, np.random.default_rng(9))
        b = train_classifier(twin, 40, np.random.default_rng(9))
        for wa, wb in zip(a.net.weights, b.net.weights):
            npt.assert_array_equal(wa, wb)
        npt.assert_array_equal(classify(a, raw.features), classify(b, rows))
        assert evaluate(a, raw) == evaluate(b, twin)

    def test_raw_row_of_wrong_width_still_rejected(self):
        # S = 10: a raw row must hold 4 symbols of 10 points per antenna; only
        # the phasor width (4 points per antenna) is read without the filter
        sc = tiny_scenario(seed=6, n_r=2)
        clf = train_classifier(build_phasor_dataset(sc, 20, 0.5, substream(6, 1)),
                               2, np.random.default_rng(1))
        rng = np.random.default_rng(0)
        for points in (6, 38, 41):
            row = rng.standard_normal(2 * 2 * points)
            with pytest.raises(ValueError):
                clf.condition(row)
            with pytest.raises(ValueError):
                classify(clf, row[None])
        assert classify(clf, rng.standard_normal((3, 2 * 2 * 4))).shape == (3,)


class TestTrainClassifier:
    def test_memorizes_tiny_set(self):
        sc = tiny_scenario(seed=4)
        base = build_dataset(sc, 2, 0.5, substream(4, 1))
        reps = LabeledDataset(np.tile(base.features, (10, 1)),
                              np.tile(base.labels, 10), 1, 10)
        clf = train_classifier(reps, 300, np.random.default_rng(0))
        preds = classify(clf, reps.features)
        assert np.all(preds == reps.labels)

    def test_same_seed_gives_identical_networks(self):
        sc = tiny_scenario(seed=5)
        ds = build_dataset(sc, 60, 0.5, substream(5, 1))
        a = train_classifier(ds, 40, np.random.default_rng(9))
        b = train_classifier(ds, 40, np.random.default_rng(9))
        for wa, wb in zip(a.net.weights, b.net.weights):
            npt.assert_array_equal(wa, wb)

    def test_network_shape_contract(self):
        sc = tiny_scenario(seed=6)
        ds = build_dataset(sc, 30, 0.5, substream(6, 1))
        clf = train_classifier(ds, 5, np.random.default_rng(0))
        assert clf.net.layer_sizes == [phasor_width(sc.n_r), 50, 50, 50, 2]
        assert clf.net.params.dtype == np.float32
        assert phasor_width(sc.n_r) == 2 * 4 * sc.n_r

    def test_geometry_required(self):
        # a dataset carries the burst geometry its classifier will read
        with pytest.raises(TypeError, match="n_antennas"):
            LabeledDataset(np.zeros((4, 80)), np.array([0, 1, 0, 1]))

    def test_matches_raw_width_net_on_slot_replicated_features(self):
        # 250 rows make 3 steps an epoch, the last of 50 rows: 50 epochs
        self.check_matches_raw_width_net(150, 250, 4)

    def test_matches_raw_width_net_when_steps_end_mid_epoch(self):
        # 200 rows make 2 steps an epoch; the 7th step is the 1st of the 4th
        self.check_matches_raw_width_net(7, 200, 4)

    def test_matches_raw_width_net_decisions_past_the_probability_bound(self):
        # At 200 rows and batch 100 the probability gap outgrows the random
        # walk bound from about 90 steps (Adam's normalised step on
        # near-zero gradients magnifies the rounding); the decisions agree.
        self.check_matches_raw_width_net(150, 200, 4, bound_probabilities=False)

    def check_matches_raw_width_net(self, train_steps, n_train, seed, bound_probabilities=True):
        # Reference: the raw-width net that reads every conditioned phasor
        # copied into all S sample slots of its symbol, trained with plain
        # Adam from the same seed, in the trainer's dtype. Its S tied
        # first-layer weights per phasor share one gradient, so the compact
        # net (slot-summed init, S-scaled first-layer weight step) must make
        # the same decisions.
        sc = tiny_scenario(seed=13, n_r=2)
        s = sc.samples_per_symbol
        train = build_dataset(sc, n_train, 0.5, substream(13, 1))
        test = build_dataset(sc, 300, 0.5, substream(13, 2))
        clf = train_classifier(train, train_steps, np.random.default_rng(seed))
        dtype = clf.net.params.dtype
        # The two nets round the first-layer sum and every step differently.
        # Independent rounding errors of size eps add up like a random walk
        # over the Adam steps; allow four times that on the probabilities.
        tol = 4 * np.sqrt(train_steps) * np.finfo(dtype).eps

        def replicated(rows):
            cond = condition_rows(rows, sc.n_r, s)
            return np.repeat(cond.reshape(len(cond), -1, 1, 2), s, axis=2).reshape(len(cond), -1)

        rng = np.random.default_rng(seed)
        x = replicated(train.features).astype(dtype)
        ref = init_network([x.shape[1], *CLASSIFIER_HIDDEN, 2], rng=rng, dtype=dtype)
        state = AdamState.for_network(ref)
        ws = Workspace(ref, CLASSIFIER_BATCH)
        targets = one_hot(train.labels)
        steps = 0
        while steps < train_steps:
            order = rng.permutation(len(train))
            for start in range(0, len(train), CLASSIFIER_BATCH):
                idx = order[start:start + CLASSIFIER_BATCH]
                out, cache = forward(ref, x[idx], ws)
                adam_step(ref, backward(ref, cache, cross_entropy_delta(out, targets[idx])),
                          state)
                steps += 1
                if steps >= train_steps:
                    break

        assert dtype == np.float32
        assert clf.net.weights[0].size * s == ref.weights[0].size
        p_ref = predict(ref, replicated(test.features))
        p_new = predict(clf.net, clf.condition(test.features))
        if bound_probabilities:
            assert np.max(np.abs(p_new - p_ref)) <= tol
        npt.assert_array_equal(classify(clf, test.features), np.argmax(p_ref, axis=1))


class TestClassify:
    def test_one_raw_row_gets_the_batched_decision(self):
        sc = tiny_scenario(seed=11)
        ds = build_dataset(sc, 40, 0.5, substream(11, 1))
        clf = train_classifier(ds, 20, np.random.default_rng(0))
        batched = classify(clf, ds.features)
        for row, want in zip(ds.features, batched):
            decision = classify(clf, row)
            assert decision.shape == (1,) and decision[0] == want


class TestEvaluate:
    def test_perfect_predictor(self):
        sc = tiny_scenario(seed=7)
        ds = build_dataset(sc, 200, 0.5, substream(7, 1))
        clf = train_classifier(ds, 400, np.random.default_rng(1))
        m = evaluate(clf, ds)
        assert m.e_md <= 0.05 and m.e_fa <= 0.05  # near-memorization

    def test_metric_formulas_from_fixed_decisions(self):
        # craft a test set and a pass-through stub hitting the exact counts:
        # one-sample symbols, so the front end squares the first sample;
        # the stub scores FROM_T when it lands on +1 and NOT_T on -1
        labels = np.array([FROM_T] * 504 + [NOT_T] * 496)
        accept, reject = 1.0 + 0j, 1j  # squared: +1 and -1
        first = np.full(1000, reject)
        first[37:504] = accept         # 37 misdetected, 467 accepted positives
        first[504:543] = accept        # 39 false alarms, the rest rejected
        streams = np.zeros((1000, 1, 4), dtype=complex)
        streams[:, 0, 0] = first
        feats = streams.view(np.float64).reshape(1000, -1)
        w = np.zeros((2, 8))
        w[:, 0] = [-1.0, 1.0]
        stub = Authenticator(DenseNetwork([w], [np.zeros(2)], ["linear"]), 1, 1)
        m = evaluate(stub, LabeledDataset(feats, labels, 1, 1))
        assert (m.n, m.n_from_t, m.n_md, m.n_fa) == (1000, 504, 37, 39)
        assert m.e_md == 37 / 504 and m.e_fa == 39 / 496
        npt.assert_allclose([m.e_md, m.e_fa], [0.0734, 0.0786], atol=5e-5)

    def test_permutation_invariance(self):
        sc = tiny_scenario(seed=8)
        ds = build_dataset(sc, 120, 0.5, substream(8, 1))
        clf = train_classifier(ds, 30, np.random.default_rng(0))
        m1 = evaluate(clf, ds)
        perm = np.random.default_rng(0).permutation(len(ds))
        m2 = evaluate(clf, LabeledDataset(ds.features[perm], ds.labels[perm],
                                          1, 10))
        assert (m1.n_md, m1.n_fa) == (m2.n_md, m2.n_fa)

    def test_counts_bounded(self):
        sc = tiny_scenario(seed=9)
        ds = build_dataset(sc, 80, 0.5, substream(9, 1))
        clf = train_classifier(ds, 10, np.random.default_rng(0))
        m = evaluate(clf, ds)
        assert m.n_md <= m.n_from_t
        assert m.n_fa <= m.n - m.n_from_t

    def test_single_class_test_set_rejected(self):
        sc = tiny_scenario(seed=10)
        ds = build_dataset(sc, 40, 0.5, substream(10, 1))
        clf = train_classifier(ds, 5, np.random.default_rng(0))
        only_pos = LabeledDataset(ds.features[:4], np.full(4, FROM_T), 1, 10)
        with pytest.raises(ValueError):
            evaluate(clf, only_pos)

