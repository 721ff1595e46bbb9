import numpy as np
import pytest

from cftmal.data import SyntheticSpec, generate_synthetic
from cftmal.distill import KdConfig, kd_loss, kd_parts
from cftmal.fusion import init_fusion, init_teacher
from cftmal.meta import MamlConfig, build_pool, maml_train
from cftmal.numeric import ShapeError, softmax_cross_entropy


def test_alpha_zero_is_bitexact_cross_entropy():
    rng = np.random.default_rng(0)
    student = rng.standard_normal((7, 4))
    teacher = rng.standard_normal((7, 4))
    labels = rng.integers(0, 4, 7)
    loss, grad = kd_loss(student, teacher, labels, KdConfig(alpha=0.0))
    ce, ce_grad = softmax_cross_entropy(student, labels)
    assert loss == ce
    np.testing.assert_array_equal(grad, ce_grad)


def test_identical_logits_alpha_one_zero_loss():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((6, 5))
    labels = rng.integers(0, 5, 6)
    loss, grad = kd_loss(logits, logits.copy(), labels, KdConfig(alpha=1.0))
    assert abs(loss) < 1e-12
    assert np.abs(grad).max() < 1e-12


def test_loss_is_affine_in_alpha():
    rng = np.random.default_rng(2)
    student = rng.standard_normal((5, 3))
    teacher = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, 5)
    l0, _ = kd_loss(student, teacher, labels, KdConfig(alpha=0.0))
    l1, _ = kd_loss(student, teacher, labels, KdConfig(alpha=1.0))
    for alpha in (0.25, 0.5, 0.75):
        la, _ = kd_loss(student, teacher, labels, KdConfig(alpha=alpha))
        assert la == pytest.approx((1 - alpha) * l0 + alpha * l1, abs=1e-12)


def test_kd_gradient_matches_fd():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(5):
        student = rng.standard_normal((4, 3))
        teacher = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, 4)
        cfg = KdConfig(kd_temperature=float(rng.uniform(0.5, 4.0)),
                       alpha=float(rng.uniform(0.1, 0.9)))
        tau2 = cfg.kd_temperature**2

        def total(logits):
            ce, _ = softmax_cross_entropy(logits, labels)
            kl, _ = kd_parts(logits, teacher, cfg.kd_temperature)
            return (1 - cfg.alpha) * ce + cfg.alpha * tau2 * kl

        _, grad = kd_loss(student, teacher, labels, cfg)
        fd = np.zeros_like(student)
        flat, fdf = student.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = total(student)
            flat[i] = old - h
            down = total(student)
            flat[i] = old
            fdf[i] = (up - down) / (2 * h)
        assert np.abs(grad - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_kd_parts_shape_check():
    with pytest.raises(ShapeError):
        kd_parts(np.zeros((3, 4)), np.zeros((3, 5)), 2.0)


def test_kd_config_validation():
    for value in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="kd_temperature must be > 0"):
            KdConfig(kd_temperature=value).validate()
    with pytest.raises(ValueError):
        KdConfig(alpha=1.5).validate()
    with pytest.raises(ValueError):
        KdConfig(apply_in="never").validate()


def make_pool(seed=0):
    spec = SyntheticSpec(n_families=3, records_per_family=40, embedding_dim=8,
                         attribute_dim=4, seed=seed)
    corpus, attrs = generate_synthetic(spec)
    return build_pool(corpus, attrs), len(corpus.families), corpus.dim


def test_distilled_training_rejects_class_mismatch():
    pool, n_classes, d = make_pool()
    student = init_fusion(4, d, n_classes, seed=0)
    teacher = init_teacher(4, n_classes + 1, seed=1)
    with pytest.raises(ShapeError, match="class count"):
        maml_train(student, pool, MamlConfig(meta_iterations=1),
                   teacher=teacher, kd_cfg=KdConfig())


def test_distilled_training_runs_and_matches_plain_when_alpha_zero():
    pool, n_classes, d = make_pool()
    cfg = MamlConfig(inner_steps=2, inner_lr=0.05, meta_lr=1e-3,
                     tasks_per_meta_batch=2, meta_iterations=3, seed=5)
    teacher = init_teacher(4, n_classes, seed=1)

    student_a = init_fusion(4, d, n_classes, seed=2)
    a, hist_a = maml_train(student_a, pool, cfg, teacher=teacher, kd_cfg=KdConfig(alpha=0.0))

    student_b = init_fusion(4, d, n_classes, seed=2)
    b, hist_b = maml_train(student_b, pool, cfg)

    for pa, pb in zip(a.get_params(), b.get_params()):
        np.testing.assert_array_equal(pa, pb)
    assert len(hist_a) == 3


def test_distilled_training_teacher_changes_trajectory():
    pool, n_classes, d = make_pool()
    cfg = MamlConfig(inner_steps=2, inner_lr=0.05, meta_lr=1e-3,
                     tasks_per_meta_batch=2, meta_iterations=3, seed=6)
    teacher = init_teacher(4, n_classes, seed=1)

    student_a = init_fusion(4, d, n_classes, seed=3)
    a, _ = maml_train(student_a, pool, cfg, teacher=teacher, kd_cfg=KdConfig(alpha=0.5))

    student_b = init_fusion(4, d, n_classes, seed=3)
    b, _ = maml_train(student_b, pool, cfg)

    assert any(
        not np.array_equal(pa, pb) for pa, pb in zip(a.get_params(), b.get_params())
    )


def test_kd_parts_is_finite_when_a_float32_teacher_probability_underflows():
    # at tau 2 the teacher's other class gets exp(-150), which is 0 in float32
    teacher = np.array([[0.0, 300.0], [300.0, 0.0]], dtype=np.float32)
    student = np.array([[0.5, 1.0], [1.0, -0.5]], dtype=np.float32)
    kl, grad = kd_parts(student, teacher, 2.0)
    assert np.isfinite(kl) and np.isfinite(grad).all() and grad.dtype == np.float32
    # a one-hot teacher leaves -log of the student's probability of its class
    log_qs = student / 2.0 - np.log(np.exp(student / 2.0).sum(axis=1, keepdims=True))
    assert kl == pytest.approx(-np.mean(log_qs[[0, 1], [1, 0]]), rel=1e-6)


def test_kd_parts_is_finite_when_a_float32_student_probability_underflows():
    student = np.array([[0.0, 400.0]], dtype=np.float32)
    teacher = np.array([[0.0, 1.0]], dtype=np.float32)
    kl, grad = kd_parts(student, teacher, 2.0)
    assert np.isfinite(kl) and kl > 0.0 and np.isfinite(grad).all()
