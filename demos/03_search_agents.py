"""Train a begin/end agent pair and watch it retrieve one phase.

Two Q-networks share a state built from both search windows and move one
clip per step, earning +1 whenever the move brings a window center closer
to the true transition.  At inference the greedy policy walks each window
until it oscillates on a boundary; only the visited clips' features are
ever read, which is the point: segmentation without scanning the video.

Small dimensions keep this demo around half a minute.
"""

from phaseseek import (
    SynthConfig,
    TrainConfig,
    fit_fi,
    labels_to_transitions,
    rollout,
    synth_dataset,
    train,
)

cfg = SynthConfig(num_phases=3, min_len=25, max_len=45, dim=8,
                  noise_sigma=0.05, blend_width=1)
videos = [(seq, labels_to_transitions(lab))
          for seq, lab in synth_dataset(cfg, 8, seed=7)]
train_set, test_set = videos[:6], videos[6:]

phase = 1
fi = fit_fi([(seq.num_clips, ts) for seq, ts in train_set], phase)
print(f"fixed initialization for phase {phase}: "
      f"rho = ({fi.rho_begin:.2f}, {fi.rho_end:.2f})")

# %% One episode of training: every video is played for max_steps steps,
# both agents learn from a shared replay-fed Bellman regression.
tc = TrainConfig(episodes_max=2, max_steps_per_video=60, batch=32, lr=1e-3,
                 gamma=0.0, eps_start=0.5, eps_min=0.05, eps_decay=0.8,
                 seed=1, window_len=3, hidden_dim=16, num_layers=1)
logs = []
policy = train(train_set, phase, tc, fi, on_video=logs.append)
for row in logs[-3:]:
    print(f"  episode {row.episode} video {row.video}: terminal error "
          f"begin {row.begin_error}, end {row.end_error} clips")

# %% Greedy rollout on held-out videos: the agents converge onto the
# transition pair while reading only a fraction of the clips.
for seq, ts in test_set:
    gt = ts.get(phase)
    start = fi.initial_positions(seq, phase)
    result = rollout(policy, seq, start)
    coverage = len(result.visited) / seq.num_clips
    print(f"  init {start} -> found ({result.begin}, {result.end}), "
          f"truth {gt}, converged={result.converged} after {result.steps_taken} "
          f"steps, coverage {coverage:.0%}")
