"""Tests for the DNN substrate: activations, model database and inference driver."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels.conv_methods import ConvMethod, GemmMethod
from repro.nn.activations import measure_activation_sparsity, relu
from repro.nn.inference import ModelEvaluator
from repro.nn.models import MODEL_REGISTRY, get_model


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-2.0, 3.0])), [0.0, 3.0])

    def test_measure_sparsity(self):
        assert measure_activation_sparsity(np.array([0.0, 1.0, 0.0, 2.0])) == 0.5
        assert measure_activation_sparsity(np.array([])) == 0.0


class TestModelDatabase:
    def test_registry_has_all_five_models(self):
        assert set(MODEL_REGISTRY) == {
            "VGG-16",
            "ResNet-18",
            "Mask R-CNN",
            "BERT-base Encoder",
            "RNN",
        }

    def test_default_models_cover_whole_registry_in_order(self):
        from repro.nn.models import DEFAULT_MODELS

        assert DEFAULT_MODELS == tuple(MODEL_REGISTRY)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            get_model("AlexNet")

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_models_are_well_formed(self, name):
        model = get_model(name)
        assert model.kind in ("cnn", "gemm")
        assert len(model.layers) >= 6
        assert 0.0 <= model.mean_weight_sparsity <= 1.0
        assert 0.0 <= model.mean_activation_sparsity <= 1.0

    def test_cnn_models_have_conv_layers_only(self):
        assert get_model("VGG-16").kind == "cnn"
        assert len(get_model("VGG-16").gemm_layers) == 0
        assert len(get_model("VGG-16").conv_layers) == 13

    def test_nlp_models_have_high_weight_sparsity_and_dense_activations(self):
        for name in ("BERT-base Encoder", "RNN"):
            model = get_model(name)
            assert model.mean_weight_sparsity > 0.85
            assert model.mean_activation_sparsity == 0.0

    def test_vgg16_layer_count_matches_architecture(self):
        names = [layer.name for layer in get_model("VGG-16").conv_layers]
        assert names[0] == "conv1-1" and names[-1] == "conv5-3"


class TestModelEvaluator:
    def test_conv_layer_result_has_five_methods(self):
        evaluator = ModelEvaluator()
        spec = get_model("ResNet-18").conv_layers[5]
        result = evaluator.evaluate_conv_layer(spec)
        assert len(result.estimates) == 5
        assert result.speedup(ConvMethod.DENSE_IMPLICIT) == 1.0

    def test_gemm_layer_result_has_three_methods(self):
        evaluator = ModelEvaluator()
        spec = get_model("BERT-base Encoder").gemm_layers[0]
        result = evaluator.evaluate_gemm_layer(spec, weight_pattern="uniform")
        assert len(result.estimates) == 3
        assert result.speedup(GemmMethod.DENSE) == 1.0

    def test_blocked_pattern_beats_uniform_expectation(self):
        """Clustered weight pruning unlocks warp-tile skipping (Section VI-D)."""
        evaluator = ModelEvaluator(seed=3)
        spec = get_model("RNN").gemm_layers[0]
        blocked = evaluator.evaluate_gemm_layer(spec, weight_pattern="blocked")
        uniform = evaluator.evaluate_gemm_layer(spec, weight_pattern="uniform")
        assert blocked.speedup(GemmMethod.DUAL_SPARSE) > uniform.speedup(
            GemmMethod.DUAL_SPARSE
        )

    def test_full_model_evaluation_resnet(self):
        result = ModelEvaluator().evaluate(get_model("ResNet-18"))
        summary = result.summary()
        assert summary[ConvMethod.DENSE_IMPLICIT] == pytest.approx(1.0)
        assert summary[ConvMethod.DUAL_SPARSE_IMPLICIT] > summary[
            ConvMethod.SINGLE_SPARSE_IMPLICIT
        ] > 1.0
        assert len(result.layer_results) == 17

    def test_full_model_evaluation_bert(self):
        result = ModelEvaluator().evaluate(get_model("BERT-base Encoder"))
        summary = result.summary()
        assert summary[GemmMethod.DUAL_SPARSE] > summary[GemmMethod.SINGLE_SPARSE] > 1.0
