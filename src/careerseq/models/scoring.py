"""``score_transitions(items)``, the one scoring protocol: for each (history,
t) item, the log-probability of the realized occupation and the mass on the
previous one (the stay score, NaN at t = 1).
"""

from __future__ import annotations

import numpy as np


class DistributionModel:
    """Scoring for the models whose ``predict(history, t)`` gives values over
    ``self.taxonomy`` in entry order; one-pass models override ``predict_all``.
    The LM adapter does not inherit it: its full distribution costs one title
    per occupation."""

    def predict_all(self, history) -> list[np.ndarray]:
        return [self.predict(history, t) for t in range(1, len(history) + 1)]

    def score_transitions(self, items) -> tuple[np.ndarray, np.ndarray]:
        """Realized log-probabilities and stay scores of the (history, t)
        ``items``, read off ``predict_all(h)`` once per history object."""
        logp = np.zeros(len(items))
        p_stay = np.full(len(items), np.nan)
        # keyed by history object, not individual id: windows cut from one
        # person's career share the id but not the distributions
        rows: dict[int, list[np.ndarray]] = {}
        for i, (h, t) in enumerate(items):
            if id(h) not in rows:
                rows[id(h)] = self.predict_all(h)
            dist = rows[id(h)][t - 1]
            logp[i] = np.log(dist[self.taxonomy.index_of(h.records[t - 1].occupation)])
            if t > 1:
                p_stay[i] = dist[self.taxonomy.index_of(h.records[t - 2].occupation)]
        return logp, p_stay
