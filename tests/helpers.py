"""Networks the tests build but the library does not."""

from phaseseek.nets import QNetwork, init_qnetwork, param_list


def zero_qnetwork(input_dim: int, hidden_dim: int = 64, num_layers: int = 2) -> QNetwork:
    """All-zero network: every state's Q-values are 0, so greedy ties go Right."""
    net = init_qnetwork(input_dim, hidden_dim, num_layers, seed=0)
    for p in param_list(net):
        p[...] = 0.0
    return net
