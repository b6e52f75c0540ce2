"""Interactive microscope sessions (paper Section 2).

"At a basic level, the software system should emulate the use of a
physical microscope, including continuously moving the stage and
changing magnification."

A :class:`SessionModel` generates a deterministic user trace over a
block-partitioned slide: a viewport performs a bounded random walk
(pans), occasionally zooms (magnification change), and occasionally
jumps to a new field (complete update).  Each step resolves — via the
dataset's block index — to exactly the blocks that must be *newly*
fetched, which is what makes pans latency-sensitive (few blocks) and
jumps bandwidth-sensitive (all blocks in view).

:func:`session_workload` converts a trace into a closed-loop
:class:`~repro.apps.queries.Workload` for the visualization pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.apps.dataset import ImageDataset, Region
from repro.apps.queries import Query, TimedQuery, Workload
from repro.errors import WorkloadError

__all__ = ["ViewportStep", "SessionModel", "session_workload"]


@dataclass
class ViewportStep:
    """One user action and the fetch it induces."""

    action: str          # "pan", "zoom", "jump"
    viewport: Region
    #: Blocks that must be fetched (not already resident from the
    #: previous step).
    new_blocks: List[int]
    #: Blocks intersecting the viewport (resident set after the step).
    resident: Set[int] = field(default_factory=set)


class SessionModel:
    """Deterministic interactive-session generator.

    Parameters
    ----------
    dataset:
        The slide being browsed.
    view_w, view_h:
        Viewport size in pixels (must fit in the image).
    pan_step:
        Maximum pan distance per step, in pixels (uniform each axis).
    p_zoom / p_jump:
        Per-step probabilities of a magnification change or a jump to a
        fresh field; the remainder are pans.
    rng:
        NumPy generator (seed it for reproducible sessions).
    """

    def __init__(
        self,
        dataset: ImageDataset,
        view_w: int,
        view_h: int,
        pan_step: int = 64,
        p_zoom: float = 0.1,
        p_jump: float = 0.05,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if view_w > dataset.width or view_h > dataset.height:
            raise WorkloadError("viewport larger than the slide")
        if pan_step < 1:
            raise WorkloadError("pan_step must be >= 1")
        if p_zoom < 0 or p_jump < 0 or p_zoom + p_jump > 1:
            raise WorkloadError("bad action probabilities")
        self.dataset = dataset
        self.view_w = view_w
        self.view_h = view_h
        self.pan_step = pan_step
        self.p_zoom = p_zoom
        self.p_jump = p_jump
        self.rng = rng or np.random.default_rng(0)
        self._x = (dataset.width - view_w) // 2
        self._y = (dataset.height - view_h) // 2
        self._resident: Set[int] = set()

    # -- geometry helpers ---------------------------------------------------------

    def _clamp(self) -> None:
        self._x = int(np.clip(self._x, 0, self.dataset.width - self.view_w))
        self._y = int(np.clip(self._y, 0, self.dataset.height - self.view_h))

    def _viewport(self) -> Region:
        return Region(self._x, self._y, self._x + self.view_w, self._y + self.view_h)

    def _step_result(self, action: str) -> ViewportStep:
        view = self._viewport()
        needed = set(self.dataset.blocks_for_region(view))
        new = sorted(needed - self._resident)
        self._resident = needed
        return ViewportStep(action=action, viewport=view,
                            new_blocks=new, resident=needed)

    # -- trace generation ------------------------------------------------------------

    def reset(self) -> ViewportStep:
        """Center the viewport and fetch its initial field."""
        self._x = (self.dataset.width - self.view_w) // 2
        self._y = (self.dataset.height - self.view_h) // 2
        self._resident = set()
        return self._step_result("jump")

    def step(self) -> ViewportStep:
        """One user action; returns the induced fetch."""
        r = self.rng.random()
        if r < self.p_jump:
            # Jump to a uniformly random field: nothing stays resident.
            self._x = int(self.rng.integers(0, self.dataset.width - self.view_w + 1))
            self._y = int(self.rng.integers(0, self.dataset.height - self.view_h + 1))
            self._resident = set()
            return self._step_result("jump")
        if r < self.p_jump + self.p_zoom:
            # Magnification change: the whole viewport re-renders (all
            # blocks in view re-fetched at the new resolution).
            self._resident = set()
            return self._step_result("zoom")
        # Pan: bounded random walk.
        self._x += int(self.rng.integers(-self.pan_step, self.pan_step + 1))
        self._y += int(self.rng.integers(-self.pan_step, self.pan_step + 1))
        self._clamp()
        return self._step_result("pan")

    def trace(self, n_steps: int) -> List[ViewportStep]:
        """``reset()`` plus *n_steps* actions."""
        out = [self.reset()]
        out.extend(self.step() for _ in range(n_steps))
        return out


#: How session actions map onto the pipeline's query kinds.
_ACTION_KIND = {"pan": "partial", "zoom": "zoom", "jump": "complete"}


def session_workload(steps: List[ViewportStep]) -> Workload:
    """Convert a session trace into a closed-loop pipeline workload.

    Steps that fetch nothing (a pan inside the resident set) are
    dropped — the client serves them from its own buffer.
    """
    out: List[TimedQuery] = []
    for step in steps:
        if not step.new_blocks:
            continue
        query = Query(_ACTION_KIND[step.action], list(step.new_blocks))
        out.append(TimedQuery(0.0, query))
    return Workload(out)
