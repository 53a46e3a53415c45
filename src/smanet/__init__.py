"""Self-diversified multi-channel spatial attention on a compact ResNet
backbone, built on an in-package reverse-mode autodiff engine."""
