"""Model assembly tests: spec validation, initialization statistics,
inception block behaviour, full forward/backward, and checkpoint io."""

import math
import warnings

import numpy as np
import pytest

from faciesnet import network, ops
from faciesnet.errors import ConfigError, DataFormatError, NumericError, ShapeError
from faciesnet.network import (INFERENCE_BATCH, MAX_PARAMS, MAX_STAGES, MAX_WINDOW, Checkpoint,
                               InceptionSpec, ModelSpec, inception_forward, init_params,
                               load_checkpoint, model_backward, model_forward,
                               param_shapes, pooled_length)
from faciesnet.welldata import CHANNELS, N_FACIES, Standardizer, Well, window_matrix


TINY_STAGE = InceptionSpec(2, 2, 3, 2, 2, 7, 2, 2)


def tiny_spec(**overrides):
    base = dict(window=9, stem_kernel=3, stem_channels=4,
                stages=(TINY_STAGE,), fc_sizes=(8,), dropout=0.0)
    base.update(overrides)
    return ModelSpec(**base)


SPEC_OVERRIDES = [
    dict(stages=(TINY_STAGE,) * 2),
    dict(window=11, stages=(TINY_STAGE,) * 3),
    dict(stem_kernel=0),
    dict(fc_sizes=()),
    dict(fc_sizes=(8, 8)),
]
SPEC_IDS = ["2-stages-w9", "3-stages-w11", "no-stem", "no-fc", "two-fc"]


def toy_standardizer():
    return Standardizer(np.arange(len(CHANNELS), dtype=float),
                        np.arange(1, len(CHANNELS) + 1, dtype=float))


class TestSpecs:
    def test_default_inception_channels(self):
        assert InceptionSpec().out_channels == 8 + 16 + 16 + 8

    def test_default_model_geometry(self):
        spec = ModelSpec()
        assert spec.window == 31
        assert spec.stage_lengths() == [31, 16, 8]
        assert spec.flatten_size() == 48 * 8

    @pytest.mark.parametrize("length", range(2, 65))
    def test_pooled_length_matches_pool_op(self, length):
        out, _ = ops.pool1d(np.zeros((1, 1, length)), 2, 2)
        assert pooled_length(length) == out.shape[-1]

    def test_even_inception_kernel_rejected(self):
        with pytest.raises(ConfigError):
            InceptionSpec(small_kernel=4)

    def test_negative_kernels_rejected(self):
        # numpy would fail on them later, in init_params
        with pytest.raises(ConfigError, match="small_kernel"):
            InceptionSpec(small_kernel=-1)
        with pytest.raises(ConfigError, match="stem_kernel"):
            ModelSpec(stem_kernel=-3)

    @pytest.mark.parametrize("size", ["in_channels", "n_classes"])
    def test_data_sizes_are_not_options(self, size):
        # CHANNELS and N_FACIES fix them
        with pytest.raises(TypeError):
            ModelSpec(**{size: 3})

    def test_kernel_ordering_enforced(self):
        with pytest.raises(ConfigError):
            InceptionSpec(small_kernel=7, large_kernel=3)

    def test_zero_channel_branch_rejected(self):
        with pytest.raises(ConfigError):
            InceptionSpec(pool_proj=0)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec(window=30)

    def test_window_too_short_for_stages_rejected(self):
        # window 1 gives each stage 1 sample, short of its pool kernel of 2
        with pytest.raises(ConfigError, match="window"):
            ModelSpec(window=1)

    def test_window_and_stages_are_capped(self):
        ModelSpec(window=MAX_WINDOW)
        with pytest.raises(ConfigError, match=f"window must be <= {MAX_WINDOW}, got"):
            ModelSpec(window=MAX_WINDOW + 2)
        with pytest.raises(ConfigError, match=f"stages must be <= {MAX_STAGES}, got"):
            ModelSpec(stages=(InceptionSpec(),) * (MAX_STAGES + 1))

    def test_parameter_count_is_capped(self):
        # the largest fc0 the cap admits, and one unit more
        def count(size):
            shapes = param_shapes(ModelSpec(fc_sizes=(size,)))
            return sum(math.prod(s) for s in shapes.values())
        per_unit = count(2) - count(1)
        size = 1 + (MAX_PARAMS - count(1)) // per_unit
        assert count(size) <= MAX_PARAMS
        with pytest.raises(ConfigError, match="fc_sizes and the other sizes give the model "
                                              f"{count(size) + per_unit} parameters"):
            ModelSpec(fc_sizes=(size + 1,))

    def test_activation_floats_are_capped(self):
        # 100000 stem channels pass the parameter cap, but each stem
        # activation and the first branch pool hold 31 x 100000 floats
        ModelSpec(window=MAX_WINDOW)
        with pytest.raises(ConfigError, match="stem_channels and the other sizes give each "
                                              "window 6212694 floats"):
            ModelSpec(stem_channels=100_000)

    def test_dropout_range_enforced(self):
        with pytest.raises(ConfigError):
            ModelSpec(dropout=1.0)

    def test_no_stages_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec(stages=())

    def test_short_window_still_pools_to_length_one(self):
        # same-padded convs tolerate kernels wider than the series, and
        # ceil-mode pooling keeps every intermediate length >= 1
        spec = ModelSpec(window=3)
        assert spec.stage_lengths() == [3, 2, 1]
        assert spec.flatten_size() == 48


class TestInitParams:
    def test_shapes_match_declaration(self):
        spec = ModelSpec()
        params = init_params(spec, seed=0)
        shapes = param_shapes(spec)
        assert list(params) == list(shapes)
        for name, shape in shapes.items():
            assert params[name].shape == shape
            assert params[name].dtype == np.float32

    def test_bit_reproducible(self):
        a = init_params(ModelSpec(), seed=7)
        b = init_params(ModelSpec(), seed=7)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_seeds_differ(self):
        a = init_params(ModelSpec(), seed=0)
        b = init_params(ModelSpec(), seed=1)
        assert not np.array_equal(a["stem.kernels"], b["stem.kernels"])

    def test_biases_start_at_zero(self):
        params = init_params(ModelSpec(), seed=0)
        for name, value in params.items():
            if name.endswith(".bias"):
                assert not value.any()

    def test_he_scale_on_large_tensor(self):
        w = init_params(ModelSpec(), seed=3)["fc0.weights"]
        assert w.size == 64 * 384
        expected = np.sqrt(2.0 / 384)
        assert abs(w.std() / expected - 1) < 0.03
        assert abs(w.mean()) < 0.05 * expected

    def test_layers_draw_from_distinct_streams(self):
        params = init_params(tiny_spec(), seed=0)
        assert not np.array_equal(params["s0.b1.kernels"], params["s0.b2r.kernels"])


class TestInceptionForward:
    def test_output_shape(self):
        ispec = InceptionSpec(3, 2, 3, 5, 2, 5, 4, 6)
        spec = tiny_spec(stages=(ispec,), window=17)
        params = init_params(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 4, 17)).astype(np.float32)
        out, _ = inception_forward(params, x)
        assert out.shape == (2, 3 + 5 + 4 + 6, 17)

    @pytest.mark.parametrize("length", [8, 16, 33, 64])
    def test_length_preserved(self, length):
        ispec = InceptionSpec()
        shapes = {"s0.b1.kernels": (8, 3, 1), "s0.b2r.kernels": (8, 3, 1),
                  "s0.b2.kernels": (16, 8, 3), "s0.b3r.kernels": (8, 3, 1),
                  "s0.b3.kernels": (16, 8, 7), "s0.b4.kernels": (8, 3, 1)}
        rng = np.random.default_rng(1)
        params = {}
        for name, shape in shapes.items():
            params[name] = rng.standard_normal(shape)
            params[name.replace(".kernels", ".bias")] = np.zeros(shape[0])
        x = rng.standard_normal((2, 3, length))
        out, _ = inception_forward(params, x)
        assert out.shape == (2, ispec.out_channels, length)

    def test_zero_input_zero_bias_gives_zero_output(self):
        spec = tiny_spec()
        params = init_params(spec, seed=2)
        x = np.zeros((1, 4, 9), dtype=np.float32)
        out, _ = inception_forward(params, x)
        assert not out.any()

    def test_hand_built_single_channel_block(self):
        # all four branches reduced to scalar kernels so each output row
        # can be derived by hand from x = [-1, 2, -3, 4, -5]
        ispec = InceptionSpec(1, 1, 3, 1, 1, 7, 1, 1)
        k3 = np.zeros((1, 1, 3)); k3[0, 0, 1] = 1.0
        k7 = np.zeros((1, 1, 7)); k7[0, 0, 3] = 1.0
        params = {
            "s0.b1.kernels": np.full((1, 1, 1), 2.0), "s0.b1.bias": np.zeros(1),
            "s0.b2r.kernels": np.ones((1, 1, 1)), "s0.b2r.bias": np.zeros(1),
            "s0.b2.kernels": k3, "s0.b2.bias": np.zeros(1),
            "s0.b3r.kernels": np.ones((1, 1, 1)), "s0.b3r.bias": np.zeros(1),
            "s0.b3.kernels": k7, "s0.b3.bias": np.zeros(1),
            "s0.b4.kernels": np.ones((1, 1, 1)), "s0.b4.bias": np.zeros(1),
        }
        x = np.array([[[-1.0, 2.0, -3.0, 4.0, -5.0]]])
        out, _ = inception_forward(params, x)
        expected = np.array([[
            [0.0, 4.0, 0.0, 8.0, 0.0],    # 2x through relu
            [0.0, 2.0, 0.0, 4.0, 0.0],    # relu then centred 3-tap identity
            [0.0, 2.0, 0.0, 4.0, 0.0],    # relu then centred 7-tap identity
            [2.0, 2.0, 4.0, 4.0, 4.0],    # 3-wide max pool with edge padding
        ]])
        np.testing.assert_allclose(out, expected)


class TestModelForward:
    def test_logit_shape_default_model(self):
        spec = ModelSpec()
        params = init_params(spec, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 7, 31)).astype(np.float32)
        logits, _ = model_forward(spec, params, x)
        assert logits.shape == (3, 9)
        assert logits.dtype == np.float32

    def test_wrong_width_rejected(self):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeError):
            model_forward(spec, params, np.zeros((1, 7, 11)))

    def test_wrong_channel_count_rejected(self):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeError):
            model_forward(spec, params, np.zeros((1, 6, 9)))

    def test_rank_two_input_rejected(self):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeError):
            model_forward(spec, params, np.zeros((7, 9)))

    def test_training_dropout_requires_rng(self):
        spec = tiny_spec(dropout=0.5)
        params = init_params(spec, seed=0)
        with pytest.raises(ConfigError):
            model_forward(spec, params, np.zeros((1, 7, 9)), training=True)

    def test_inference_is_deterministic(self):
        spec = tiny_spec(dropout=0.5)
        params = init_params(spec, seed=4)
        x = np.random.default_rng(4).standard_normal((2, 7, 9))
        a, _ = model_forward(spec, params, x)
        b, _ = model_forward(spec, params, x)
        assert np.array_equal(a, b)

    def test_dropout_changes_training_logits(self):
        spec = tiny_spec(dropout=0.5)
        params = init_params(spec, seed=4)
        x = np.random.default_rng(4).standard_normal((4, 7, 9))
        a, _ = model_forward(spec, params, x, training=True,
                             rng=np.random.default_rng(0))
        b, _ = model_forward(spec, params, x, training=True,
                             rng=np.random.default_rng(1))
        assert not np.array_equal(a, b)

    # an inference pass reuses its workspace across layers and chunks: a
    # stale im2col edge cell or a wrong view of the last, shorter chunk
    # would change bits that a training-mode pass of each chunk keeps
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec", [
        ModelSpec(dropout=0.0),
        ModelSpec(stem_kernel=0, dropout=0.0),
        ModelSpec(window=61, stages=(InceptionSpec(),) * 3, dropout=0.0),
    ], ids=["default", "no-stem", "3-stages-w61"])
    @pytest.mark.parametrize("n", [1, 4, 9, 60, INFERENCE_BATCH - 1, INFERENCE_BATCH,
                                   INFERENCE_BATCH + 1, 600])
    def test_inference_logits_equal_training_logits_at_dropout_0(self, n, spec, dtype):
        params = init_params(spec, seed=6, dtype=dtype)
        x = np.random.default_rng(n).standard_normal((n, 7, spec.window)).astype(dtype)
        inferred, caches = model_forward(spec, params, x)
        step = network.INFERENCE_BATCH
        trained = np.concatenate([model_forward(spec, params, x[i:i + step], training=True)[0]
                                  for i in range(0, n, step)])
        assert caches is None
        assert inferred.dtype == dtype
        assert inferred.tobytes() == trained.tobytes()

    # a pass over several wells cuts its chunks from their concatenation,
    # so a chunk may span wells; workers share the chunks, which never
    # depend on their number
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_multi_well_logits_equal_training_logits_of_each_chunk(self, threads):
        spec = ModelSpec(dropout=0.0)
        params = init_params(spec, seed=9)
        rng = np.random.default_rng(9)
        lengths = [60, INFERENCE_BATCH + 5, 1, 2 * INFERENCE_BATCH - 61, 40]
        views = [window_matrix(Well(f"W{i}", np.arange(n, dtype=float),
                                    rng.standard_normal((len(CHANNELS), n))), spec.window)
                 for i, n in enumerate(lengths)]
        x = np.concatenate(views)
        trained = np.concatenate([
            model_forward(spec, params, x[i:i + INFERENCE_BATCH], training=True)[0]
            for i in range(0, len(x), INFERENCE_BATCH)])
        inferred, caches = model_forward(spec, params, views, threads=threads)
        assert caches is None
        assert inferred.tobytes() == trained.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_numeric_error_names_the_first_chunk_that_raises(self, threads):
        # chunks 1 and 3 overflow; whichever worker meets a fault first,
        # the pass reports chunk 1's rows
        spec = tiny_spec()
        params = init_params(spec, seed=8)
        x = np.zeros((4 * INFERENCE_BATCH + 3, 7, 9), dtype=np.float32)
        x[INFERENCE_BATCH + 7] = x[3 * INFERENCE_BATCH] = np.float32(3e38)
        with pytest.raises(NumericError, match="overflow") as info:
            model_forward(spec, params, x, threads=threads)
        assert info.value.windows == range(INFERENCE_BATCH, 2 * INFERENCE_BATCH)

    # a pass of no windows once raised a bare ValueError: a reshape of size
    # 0, or a concatenate of no batches
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("batch", [np.zeros((0, 7, 9), dtype=np.float32), []],
                             ids=["empty-batch", "no-batches"])
    def test_pass_of_no_windows_gives_no_logits(self, batch, threads):
        spec = tiny_spec()
        logits, caches = model_forward(spec, init_params(spec, seed=0), batch,
                                       threads=threads)
        assert logits.shape == (0, N_FACIES) and logits.dtype == np.float32
        assert caches is None

    def test_batch_rows_independent(self):
        spec = tiny_spec()
        params = init_params(spec, seed=5)
        x = np.random.default_rng(5).standard_normal((4, 7, 9))
        whole, _ = model_forward(spec, params, x)
        for i in range(4):
            row, _ = model_forward(spec, params, x[i:i + 1])
            np.testing.assert_allclose(row[0], whole[i], rtol=1e-5, atol=1e-6)

    def test_inference_runs_inference_batch_windows_per_call(self, monkeypatch):
        # a window_matrix view with one chunk boundary inside it: one pass
        # runs the stem conv once per chunk, with the bits of per-chunk
        # calls on contiguous copies
        spec = tiny_spec()
        params = init_params(spec, seed=7)
        n, rng = network.INFERENCE_BATCH + 37, np.random.default_rng(7)
        well = Well("W", np.arange(n, dtype=float),
                    rng.standard_normal((len(CHANNELS), n)))
        windows = window_matrix(well, spec.window)
        step = network.INFERENCE_BATCH
        expected = np.concatenate([
            model_forward(spec, params, np.ascontiguousarray(windows[i:i + step]))[0]
            for i in range(0, n, step)])
        stem_batches, conv1d = [], ops.conv1d

        def counted(x, kernels, *args, **kwargs):
            if kernels is params["stem.kernels"]:
                stem_batches.append(len(x))
            return conv1d(x, kernels, *args, **kwargs)

        monkeypatch.setattr(ops, "conv1d", counted)
        logits, caches = model_forward(spec, params, windows)
        assert stem_batches == [step, 37]
        assert caches is None
        assert logits.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("training", [False, True], ids=["inference", "training"])
    def test_overflow_is_a_numeric_error_not_a_warning(self, training):
        spec = tiny_spec()
        params = {k: v * np.float32(1e18) for k, v in init_params(spec, seed=8).items()}
        x = np.random.default_rng(8).standard_normal((3, 7, 9)).astype(np.float32)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="overflow"):
                model_forward(spec, params, x, training=training,
                              rng=np.random.default_rng(0))
        assert [str(w.message) for w in caught] == []


class TestModelBackward:
    def test_grad_keys_and_shapes_match_params(self):
        spec = tiny_spec()
        params = init_params(spec, seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 7, 9))
        logits, caches = model_forward(spec, params, x, training=True)
        grads = model_backward(spec, params, caches, np.ones_like(logits))
        assert set(grads) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape

    def test_zero_upstream_gives_zero_grads(self):
        spec = tiny_spec()
        params = init_params(spec, seed=1, dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((2, 7, 9))
        logits, caches = model_forward(spec, params, x, training=True)
        grads = model_backward(spec, params, caches, np.zeros_like(logits))
        for g in grads.values():
            assert not g.any()

    def test_backward_linear_in_upstream(self):
        spec = tiny_spec()
        params = init_params(spec, seed=2, dtype=np.float64)
        x = np.random.default_rng(2).standard_normal((2, 7, 9))
        logits, caches = model_forward(spec, params, x, training=True)
        g = np.random.default_rng(3).standard_normal(logits.shape)
        once = model_backward(spec, params, caches, g)
        twice = model_backward(spec, params, caches, 2.0 * g)
        for name in once:
            np.testing.assert_allclose(twice[name], 2.0 * once[name],
                                       rtol=1e-12, atol=1e-12)

    def test_inference_caches_rejected(self):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        logits, caches = model_forward(spec, params, np.zeros((1, 7, 9)))
        with pytest.raises(ShapeError, match="training-mode"):
            model_backward(spec, params, caches, np.ones_like(logits))

    # the backward paths gradient_check's one-stage spec does not reach:
    # an inception block fed by a stride-2 pool, no stem, zero or two fc layers
    @pytest.mark.parametrize("overrides", SPEC_OVERRIDES, ids=SPEC_IDS)
    def test_gradients_across_specs(self, overrides):
        """Float64 central differences (h = 1e-5) against model_backward,
        element by element: |analytic - numeric| <= 1e-8 + 1e-4 |numeric|.

        A relative rule alone fails on tiny elements, where the
        difference quotient's own error dominates: with two fc layers, an
        out.weights element of 1.4e-10 differs from its quotient by
        4.6e-11, a third of itself (a 2-stage spec once read 1.06e-4 at a
        5.0e-7 element under finite_diff_check's rule). Over these five
        specs and seeds 0-2 that error stayed below 4.1e-10, so the 1e-8
        floor leaves 25x room and still sits far below what a wrong
        backward path gives.
        """
        spec = tiny_spec(dropout=0.25, **overrides)
        rng = np.random.default_rng(0)
        params = init_params(spec, seed=0, dtype=np.float64)
        for name in params:  # off the ReLU kinks, as gradient_check does
            if name.endswith(".bias"):
                params[name] = 0.1 * rng.standard_normal(params[name].shape)
        x = rng.standard_normal((2, len(CHANNELS), spec.window))
        labels = rng.integers(0, 9, size=2)
        mask_seed = int(rng.integers(2 ** 32))  # the same dropout mask each pass

        def forward(p):
            return model_forward(spec, p, x, training=True,
                                 rng=np.random.default_rng(mask_seed))

        logits, caches = forward(params)
        grads = model_backward(spec, params, caches,
                               ops.softmax_xent(logits, labels)[1])
        h = 1e-5
        for name, value in params.items():
            flat = value.reshape(-1)
            numeric = np.empty(flat.size)
            for i, saved in enumerate(flat.tolist()):
                flat[i] = saved + h
                plus = ops.softmax_xent(forward(params)[0], labels)[0]
                flat[i] = saved - h
                minus = ops.softmax_xent(forward(params)[0], labels)[0]
                flat[i] = saved
                numeric[i] = (plus - minus) / (2 * h)
            np.testing.assert_allclose(grads[name].reshape(-1), numeric,
                                       rtol=1e-4, atol=1e-8, err_msg=name)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = tiny_spec(dropout=0.25)
        params = init_params(spec, seed=11)
        path = tmp_path / "model.fnet"
        Checkpoint(spec, params, toy_standardizer(), 11).save(path)
        loaded = load_checkpoint(path)
        spec2, params2, std2 = loaded.spec, loaded.params, loaded.standardizer
        assert spec2 == spec
        assert list(params2) == list(params)
        for name in params:
            assert np.array_equal(params2[name], params[name])
            assert params2[name].dtype == np.float32
        assert std2.mean.tolist() == toy_standardizer().mean.tolist()
        assert std2.std.tolist() == toy_standardizer().std.tolist()

    # a numpy dropout once wrote `dropout = np.float64(0.5)`, which no load read
    @pytest.mark.parametrize("overrides", SPEC_OVERRIDES + [
        dict(dropout=np.float64(0.5)), dict(dropout=np.float32(0.25))],
        ids=SPEC_IDS + ["dropout-float64", "dropout-float32"])
    def test_load_then_save_gives_back_the_bytes(self, tmp_path, overrides):
        spec = tiny_spec(**{"dropout": 0.25, **overrides})
        a, b = tmp_path / "a.fnet", tmp_path / "b.fnet"
        Checkpoint(spec, init_params(spec, seed=5), toy_standardizer(), 5).save(a)
        loaded = load_checkpoint(a)
        assert loaded.spec == spec
        loaded.save(b)
        assert b.read_bytes() == a.read_bytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, seed=3)
        a, b = tmp_path / "a.fnet", tmp_path / "b.fnet"
        Checkpoint(spec, params, toy_standardizer(), 3).save(a)
        Checkpoint(spec, params, toy_standardizer(), 3).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_reload_reproduces_predictions(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, seed=6)
        path = tmp_path / "model.fnet"
        Checkpoint(spec, params, toy_standardizer()).save(path)
        loaded = load_checkpoint(path)
        spec2, params2 = loaded.spec, loaded.params
        x = np.random.default_rng(6).standard_normal((3, 7, 9)).astype(np.float32)
        before, _ = model_forward(spec, params, x)
        after, _ = model_forward(spec2, params2, x)
        assert np.array_equal(before, after)

    def test_corrupt_magic_rejected(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        path = tmp_path / "model.fnet"
        Checkpoint(spec, params, toy_standardizer()).save(path)
        raw = path.read_bytes()
        path.write_bytes(b"#whoops" + raw[7:])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        path = tmp_path / "model.fnet"
        Checkpoint(spec, params, toy_standardizer()).save(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_manifest_restates_the_data_sizes(self, tmp_path):
        path = tmp_path / "model.fnet"
        Checkpoint(tiny_spec(), init_params(tiny_spec(), seed=0),
                   toy_standardizer()).save(path)
        manifest = path.read_bytes().partition(b"\n[blob]\n")[0].decode().splitlines()
        assert "in_channels = 7" in manifest
        assert "n_classes = 9" in manifest

    def test_seed_recorded(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        path = tmp_path / "model.fnet"
        Checkpoint(spec, params, toy_standardizer(), 42).save(path)
        assert load_checkpoint(path).seed == 42

    def test_mismatched_param_shape_rejected(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, seed=0)
        params["out.bias"] = np.zeros(5, dtype=np.float32)
        with pytest.raises(ShapeError):
            Checkpoint(spec, params, toy_standardizer()).save(tmp_path / "m.fnet")
