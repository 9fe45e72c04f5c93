"""The learned policy species: policies that adapt online from feedback.

Every static policy in the registry acts on fixed thresholds; the
policies here close the loop instead, learning from the front-end's
completion stream (``on_complete(record)`` per completed
:class:`~repro.serve.request.RequestRecord`):

* :class:`AdaptiveAdmission` (``admission``/``adaptive_admission``) —
  online ridge regression from front-end backlog features to observed
  end-to-end latency; rejects requests whose *predicted* latency misses
  the SLO, with seeded epsilon exploration so the model keeps sampling
  the rejected region.
* :class:`EpsilonGreedyDispatch` (``dispatch``/``epsilon_greedy_dispatch``)
  — per-tenant bandit over SLO-hit reward: serve the non-empty tenant
  whose requests have been meeting their SLOs, with decaying seeded
  epsilon exploration.
* :class:`LinUCBPlacement` (``placement``/``linucb_placement``) — a
  LinUCB-style contextual bandit with one linear model per device arm,
  predicting completion latency from the shard's queue state; routes to
  the arm with the lowest uncertainty-charged cost estimate, so it
  discovers slow devices in heterogeneous fleets without being told
  their speed.

All three share :class:`OnlineLinearModel` (exact online ridge
regression over tiny feature vectors, refit on a periodic cadence) and
:class:`LearnedPolicyMixin`, which fixes the species-wide contract:

* ``learned = True`` — how report snapshots and the parallel-session
  guard recognize the species without name lists.
* Determinism per seed: every exploration draw comes from a
  ``random.Random`` derived from the scenario seed (plumbed through
  ``build_policy`` context, see ``context_params``) — never wall clock —
  so same-seed runs are byte-identical, snapshots included.
* ``state_snapshot()`` — JSON-safe internal state (feedback/exploration
  counters, model coefficients) serialized into the report's ``learned``
  field, so exploration-schedule drift is golden-visible.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.placement import PlacementPolicy
from ..serve.admission import AdmissionController, FrontendView
from ..serve.dispatch import DispatchPolicy
from ..serve.request import Request, RequestRecord
from .registry import register_policy


def _solve(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Solve ``matrix @ x = rhs`` by Gaussian elimination with pivoting.

    The matrices here are tiny (d <= 4) ridge-regularized Gram matrices,
    so this is a handful of flops per call and always well-conditioned
    (the ridge term keeps every pivot away from zero).
    """
    size = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        scale = a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] / scale
            if factor:
                for c in range(col, size + 1):
                    a[r][c] -= factor * a[col][c]
    x = [0.0] * size
    for r in range(size - 1, -1, -1):
        acc = a[r][size]
        for c in range(r + 1, size):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


class OnlineLinearModel:
    """Exact online ridge regression with a periodic refit cadence.

    Maintains the Gram matrix ``A = ridge*I + sum(x xᵀ)`` and moment
    vector ``b = sum(y x)`` incrementally; the coefficient vector
    ``theta = A⁻¹ b`` is refit every ``retrain_every`` observations
    (and on the first), so prediction cost between refits is one dot
    product.  :meth:`uncertainty` is the LinUCB confidence width
    ``sqrt(xᵀ A⁻¹ x)`` — wide for feature directions the model has not
    seen, shrinking as observations accumulate.
    """

    def __init__(self, dim: int, ridge: float = 1.0,
                 retrain_every: int = 16):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if ridge <= 0:
            raise ValueError("ridge must be positive")
        if retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        self.dim = dim
        self.ridge = ridge
        self.retrain_every = retrain_every
        self.count = 0
        self.refits = 0
        self._gram = [[ridge if r == c else 0.0 for c in range(dim)]
                      for r in range(dim)]
        self._moment = [0.0] * dim
        self._theta = [0.0] * dim

    def observe(self, features: Sequence[float], target: float) -> None:
        """Fold one (features, target) sample into the running moments."""
        gram = self._gram
        for r, xr in enumerate(features):
            if xr:
                row = gram[r]
                for c, xc in enumerate(features):
                    row[c] += xr * xc
            self._moment[r] += target * xr
        self.count += 1
        if self.count == 1 or self.count % self.retrain_every == 0:
            self.refit()

    def refit(self) -> None:
        """Recompute ``theta`` from the current moments."""
        self._theta = _solve(self._gram, self._moment)
        self.refits += 1

    def predict(self, features: Sequence[float]) -> float:
        """Model estimate for ``features`` (0.0 before any refit)."""
        return sum(t * x for t, x in zip(self._theta, features))

    def uncertainty(self, features: Sequence[float]) -> float:
        """LinUCB confidence width ``sqrt(xᵀ A⁻¹ x)`` at ``features``."""
        solved = _solve(self._gram, list(features))
        return max(0.0, sum(s * x for s, x in zip(solved, features))) ** 0.5

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state for report serialization."""
        return {"count": self.count, "refits": self.refits,
                "theta": list(self._theta)}


class LearnedPolicyMixin:
    """Species-wide contract: seeded RNG, counters, state snapshots.

    Concrete policies call :meth:`_init_learned` from their constructor
    and implement :meth:`_learn`; the mixin owns the feedback counter
    (the reward-accounting invariant: exactly one increment per
    completed request) and the snapshot skeleton.
    """

    #: How snapshots and the parallel guard recognize the species (never
    #: by name lists).
    learned = True
    #: Constructor params that are call-site context, not configuration:
    #: they are plumbed by the session (from the scenario seed) and must
    #: stay out of resolved cache keys (see ``resolved_policy_spec``).
    context_params = ("seed",)

    def _init_learned(self, seed: int, tag: str) -> None:
        # The RNG is derived from the scenario seed and the policy's
        # registry identity — never wall clock — and python seeds string
        # arguments via sha512, so the stream is process-stable.
        self.seed = int(seed)
        self.rng = random.Random(f"repro-learned:{tag}:{int(seed)}")
        self.feedback_events = 0
        self.reroute_events = 0
        self.explore_count = 0
        self.decisions = 0

    # ------------------------------------------------------------------ #
    # Completion stream                                                    #
    # ------------------------------------------------------------------ #
    def on_complete(self, record: RequestRecord) -> None:
        """Count and learn from one completed request.

        Called once per completion, in completion order (the order the
        SLO tracker ingests), so same-seed runs learn identically.
        """
        self.feedback_events += 1
        self._learn(record)

    def _learn(self, record: RequestRecord) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Snapshots                                                            #
    # ------------------------------------------------------------------ #
    def state_snapshot(self) -> Dict[str, object]:
        """JSON-safe internal state, serialized into report ``learned``."""
        snapshot: Dict[str, object] = {
            "policy": self.policy_name,
            "seed": self.seed,
            "decisions": self.decisions,
            "feedback_events": self.feedback_events,
            "explore_count": self.explore_count,
            "reroute_events": self.reroute_events,
        }
        snapshot.update(self._snapshot_extra())
        return snapshot

    def _snapshot_extra(self) -> Dict[str, object]:
        return {}


@register_policy("admission")
class AdaptiveAdmission(LearnedPolicyMixin, AdmissionController):
    """Admission that learns a latency model of the front-end it guards.

    Each arrival is scored by an online ridge regression from backlog
    features — (1, backlog waves, in-flight fill) — to observed
    end-to-end latency; requests whose predicted latency exceeds
    ``slo_s * slack_factor`` are rejected.  The model predicts the
    *mean* latency at the observed backlog while the SLO is a bar every
    request must clear, so the default ``slack_factor`` leaves tail
    headroom below the objective.  During the seeded warm-up (the first
    ``warmup`` feedback events) everything under the backstop is
    admitted so the model sees data; afterwards an epsilon draw
    occasionally admits a would-be-reject so the model keeps observing
    the region it is fencing off.  ``backstop_waves`` bounds the backlog
    in dispatch waves regardless of the model — a safety net while the
    model is young or wrong.
    """

    name = "adaptive_admission"

    def __init__(self, seed: int = 0, warmup: int = 32,
                 epsilon: float = 0.05, slack_factor: float = 0.7,
                 ridge: float = 1.0, retrain_every: int = 16,
                 backstop_waves: float = 8.0):
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        if slack_factor <= 0:
            raise ValueError("slack_factor must be positive")
        if backstop_waves <= 0:
            raise ValueError("backstop_waves must be positive")
        self._init_learned(seed, f"admission:{self.name}")
        self.warmup = warmup
        self.epsilon = epsilon
        self.slack_factor = slack_factor
        self.backstop_waves = backstop_waves
        self.model = OnlineLinearModel(3, ridge=ridge,
                                       retrain_every=retrain_every)
        # Features of admitted requests, keyed by request id until the
        # completion feedback pops them (rejected requests never enter).
        self._pending: Dict[int, Tuple[float, float, float]] = {}

    def _features(self, frontend: FrontendView
                  ) -> Tuple[float, float, float]:
        backlog = frontend.total_queued + frontend.in_flight
        capacity = max(1, frontend.dispatch_capacity)
        return (1.0, backlog / capacity, frontend.in_flight / capacity)

    def admit(self, request: Request, frontend: FrontendView) -> bool:
        """Admit unless the learned latency estimate misses the SLO."""
        self.decisions += 1
        backlog = frontend.total_queued + frontend.in_flight
        capacity = max(1, frontend.dispatch_capacity)
        if backlog >= capacity * self.backstop_waves:
            return False
        features = self._features(frontend)
        if request.slo_s is None:
            admit = True
        elif self.feedback_events < self.warmup:
            # Warm-up: gather observations across the whole (backstopped)
            # feature range before trusting the model.
            self.explore_count += 1
            admit = True
        else:
            predicted = self.model.predict(features)
            admit = predicted <= request.slo_s * self.slack_factor
            if not admit and self.rng.random() < self.epsilon:
                # Exploration: admit a would-be-reject so feedback keeps
                # covering the region the model currently fences off.
                self.explore_count += 1
                admit = True
        if admit:
            self._pending[request.request_id] = features
        return admit

    def _learn(self, record: RequestRecord) -> None:
        features = self._pending.pop(record.request.request_id, None)
        if features is not None:
            self.model.observe(features, record.latency_s)

    def _snapshot_extra(self) -> Dict[str, object]:
        return {"model": self.model.snapshot(),
                "pending": len(self._pending)}


@register_policy("dispatch")
class EpsilonGreedyDispatch(LearnedPolicyMixin, DispatchPolicy):
    """Serve the tenant queue where prompt dispatch decides the outcome.

    One bandit arm per tenant accumulates *realized-urgency* reward: a
    completion inside its SLO earns its ``latency / slo`` ratio (capped
    at 1), a miss or an SLO-less completion earns 0.  Tenants whose
    requests barely clear a tight objective therefore out-reward both
    loose-SLO tenants (met long before the bar — dispatch order never
    decided anything) and hopeless ones (missed regardless), which is
    exactly the priority a deadline scheduler wants.  Dispatch exploits
    the best non-empty arm by mean reward (unpulled arms count as 1, so
    a freshly onboarded tenant is tried immediately; ties to declaration
    order).  Exploration is a seeded epsilon draw decaying
    multiplicatively per decision from ``epsilon`` down to
    ``min_epsilon``; the first ``warmup`` feedback events always
    explore, so every arm gets samples before any is trusted.
    """

    name = "epsilon_greedy_dispatch"

    def __init__(self, seed: int = 0, warmup: int = 16,
                 epsilon: float = 0.1, epsilon_decay: float = 0.998,
                 min_epsilon: float = 0.01):
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if not 0.0 <= min_epsilon <= epsilon:
            raise ValueError("min_epsilon must be in [0, epsilon]")
        self._init_learned(seed, f"dispatch:{self.name}")
        self.warmup = warmup
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.min_epsilon = min_epsilon
        self._order: Sequence[str] = ()
        self._pulls: Dict[str, int] = {}
        self._reward: Dict[str, float] = {}

    def bind(self, tenants: Sequence[str]) -> None:
        self._order = list(tenants)
        self._pulls = {t: 0 for t in tenants}
        self._reward = {t: 0.0 for t in tenants}

    def current_epsilon(self) -> float:
        """The decayed exploration rate at the current decision count."""
        return max(self.min_epsilon,
                   self.epsilon * self.epsilon_decay ** self.decisions)

    def select(self, queues) -> Optional[str]:
        nonempty = [t for t in self._order if queues[t]]
        if not nonempty:
            return None
        self.decisions += 1
        if self.feedback_events < self.warmup \
                or self.rng.random() < self.current_epsilon():
            self.explore_count += 1
            return nonempty[self.rng.randrange(len(nonempty))]
        def mean_reward(tenant: str) -> float:
            pulls = self._pulls[tenant]
            return self._reward[tenant] / pulls if pulls else 1.0
        best = nonempty[0]
        best_mean = mean_reward(best)
        for tenant in nonempty[1:]:
            mean = mean_reward(tenant)
            if mean > best_mean:
                best, best_mean = tenant, mean
        return best

    def _learn(self, record: RequestRecord) -> None:
        tenant = record.tenant
        if tenant in self._pulls:
            self._pulls[tenant] += 1
            slo_s = record.request.slo_s
            if record.slo_met and slo_s:
                self._reward[tenant] += min(1.0, record.latency_s / slo_s)

    def _snapshot_extra(self) -> Dict[str, object]:
        return {"arms": {tenant: {"pulls": self._pulls[tenant],
                                  "reward": self._reward[tenant]}
                         for tenant in self._order}}


@register_policy("placement")
class LinUCBPlacement(LearnedPolicyMixin, PlacementPolicy):
    """LinUCB contextual bandit over device shards.

    One :class:`OnlineLinearModel` per device arm predicts completion
    latency from the shard's visible load — features (1,
    outstanding/capacity) — so each arm's fitted slope is its effective
    drain cost per outstanding request: the generalization of
    least-outstanding placement with the per-device service speed
    *learned* instead of assumed equal.  Each arrival routes to the arm
    minimizing the *conservative* cost estimate
    ``predict + alpha * uncertainty`` — pessimism, not optimism, because
    the failure mode of a latency-blind router is the dogpile: a linear
    model extrapolating flat beyond an arm's observed load range would
    under-price a slow device faster than its completion feedback can
    correct, and every misrouted arrival compounds the backlog.
    Charging for uncertainty makes an arm's unobserved load region look
    expensive, so exploitation stays inside what feedback has covered;
    exploration belongs to the seeded warm-up and epsilon, and arms the
    model has never observed are never exploited blind.  The first
    ``warmup`` decisions route by capacity-normalized least-outstanding
    — a sane static policy that still sends every arm samples, so the
    warm-up costs nothing — and a seeded epsilon that decays
    multiplicatively per decision keeps brief exploration alive
    afterwards.  Arms are created on demand, so elastic scale-up devices
    join the bandit seamlessly.

    Unlike the static placement policies this one is *stateful across
    the fleet*, which is exactly why the epoch-parallel cluster runner
    refuses learned placement: per-worker copies of the bandit would
    diverge from the serial model (see
    :class:`~repro.cluster.parallel.ParallelClusterSession`).
    """

    name = "linucb_placement"

    def __init__(self, device_count: int, seed: int = 0, warmup: int = 24,
                 alpha: float = 0.1, epsilon: float = 0.05,
                 epsilon_decay: float = 0.99, min_epsilon: float = 0.0,
                 ridge: float = 1.0, retrain_every: int = 8):
        if device_count < 1:
            raise ValueError("device_count must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        if not 0.0 < epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if not 0.0 <= min_epsilon <= max(epsilon, 0.0):
            raise ValueError("min_epsilon must be in [0, epsilon]")
        self._init_learned(seed, f"placement:{self.name}")
        self.device_count = device_count
        self.warmup = warmup
        self.alpha = alpha
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.min_epsilon = min_epsilon
        self.ridge = ridge
        self.retrain_every = retrain_every
        self._arms: Dict[int, OnlineLinearModel] = {}
        # Chosen (device, features) per routed request id; the completion
        # feedback pops it.  A reroute re-selects and overwrites, so the
        # observed latency credits the device that actually served.
        self._pending: Dict[int, Tuple[int, Tuple[float, float]]] = {}

    def _arm(self, index: int) -> OnlineLinearModel:
        arm = self._arms.get(index)
        if arm is None:
            arm = OnlineLinearModel(2, ridge=self.ridge,
                                    retrain_every=self.retrain_every)
            self._arms[index] = arm
        return arm

    @staticmethod
    def _features(shard) -> Tuple[float, float]:
        capacity = max(1, shard.capacity)
        return (1.0, (shard.queued + shard.in_flight) / capacity)

    @staticmethod
    def _least_outstanding(shards):
        """Capacity-normalized least-outstanding, ties to lowest index."""
        return min(shards, key=lambda s: (
            (s.queued + s.in_flight) / max(1, s.capacity), s.index))

    def current_epsilon(self) -> float:
        """The decayed exploration rate at the current decision count."""
        return max(self.min_epsilon,
                   self.epsilon * self.epsilon_decay ** self.decisions)

    def select(self, request: Request, shards):
        """Route to the arm with the best optimistic latency estimate."""
        self.decisions += 1
        if self.decisions <= self.warmup:
            # Warm-up routes like the static least-outstanding policy:
            # no exploration tax, and busy periods still push overflow
            # onto every arm, which is all the model needs to calibrate.
            choice = self._least_outstanding(shards)
        elif self.rng.random() < self.current_epsilon():
            choice = shards[self.rng.randrange(len(shards))]
            self.explore_count += 1
        else:
            choice = None
            best = None
            for shard in shards:
                arm = self._arm(shard.index)
                if arm.count == 0:
                    # Never exploit an arm the model has not observed —
                    # a zero-data prediction of 0.0 latency would
                    # dogpile every arrival onto the unknown device.
                    continue
                features = self._features(shard)
                score = (arm.predict(features)
                         + self.alpha * arm.uncertainty(features))
                if best is None or score < best:
                    choice, best = shard, score
            if choice is None:
                choice = self._least_outstanding(shards)
        self._pending[request.request_id] = (
            choice.index, self._features(choice))
        return choice

    def on_reroute(self, record, from_device: int, to_device: int) -> None:
        """A queued request was moved (device failure or scale-down)."""
        self.reroute_events += 1

    def _learn(self, record: RequestRecord) -> None:
        pending = self._pending.pop(record.request.request_id, None)
        if pending is not None:
            device, features = pending
            self._arm(device).observe(features, record.latency_s)

    def _snapshot_extra(self) -> Dict[str, object]:
        return {"arms": {str(index): self._arms[index].snapshot()
                         for index in sorted(self._arms)},
                "pending": len(self._pending)}


__all__ = [
    "AdaptiveAdmission",
    "EpsilonGreedyDispatch",
    "LearnedPolicyMixin",
    "LinUCBPlacement",
    "OnlineLinearModel",
]
