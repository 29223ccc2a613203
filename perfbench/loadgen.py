"""Load generator: writes a synthetic 1920x1080 4:2:0 camera stream as Y4M
to stdout.

    python3 perfbench/loadgen.py <static|busy> <frames> <seed>

It is run as a decode command, so motionsieve receives only the frames.
The header goes out before numpy is even imported, so the consumer's
header parse never waits on rendering.  Backgrounds and sprites are
rendered once up front; each frame is then a copy of a prepared buffer
with at most three sprites pasted in, which keeps the generator's own CPU
per frame small next to motionsieve's.  Single-threaded, closed loop: a
frame is written as soon as the consumer drains the previous one.

Scenes (all pixel values chosen so the counts are fixed by construction
at the default MotionConfig: threshold 25, downscale 2, radius 5):

* ``static``: a textured background with per-frame sensor noise of at
  most +-NOISE (two frames differ by at most 2*NOISE < threshold), and a
  single burst: a bright sprite appears at ``burst_start`` and moves for
  ``burst_len`` frames, then stays where it stopped.  Exactly the first
  frame and the burst frames differ from their predecessor.
* ``busy``: a textured background with non-flat chroma and three textured
  sprites, each moving by its own step on every frame, so every frame
  differs from its predecessor.
"""

from __future__ import annotations

import random
import sys

WIDTH, HEIGHT = 1920, 1080
HEADER = f"YUV4MPEG2 W{WIDTH} H{HEIGHT} F30:1 C420\n".encode("ascii")
NOISE = 5
NOISE_BANK = 4
BACKGROUND_LUMA = (16, 120)
SPRITE_LUMA = (176, 240)
# (height, width, step in pixels per frame, band top as a share of height)
BUSY_SPRITES = ((200, 200, 4, 0.05), (160, 240, 7, 0.40), (240, 160, 11, 0.70))
STATIC_SPRITE = (160, 160, 12, 0.40)


def burst_plan(frames: int, seed: int) -> tuple[int, int]:
    """(burst_start, burst_len) of the static scene: about 2% of the frames
    are stored (the first frame plus the burst)."""
    burst_len = max(2, frames // 50 - 1)
    rng = random.Random(seed)
    latest = max(1, frames - burst_len)
    start = rng.randint(min(frames // 4 + 1, latest), latest)
    return start, burst_len


def _texture(rng, shape, low, high, block):
    import numpy as np

    h, w = shape
    coarse = rng.integers(low, high + 1, (-(-h // block), -(-w // block)), dtype=np.uint8)
    tex = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:h, :w]
    fine = rng.integers(0, 9, shape, dtype=np.uint8)
    return np.clip(tex.astype(np.int16) + fine - 4, low, high).astype(np.uint8)


class Scene:
    """Prepared buffers for one scene; ``frame(i)`` returns the payload of
    frame ``i`` as a flat uint8 array (valid until the next call)."""

    def __init__(self, kind: str, frames: int, seed: int):
        import numpy as np

        rng = np.random.default_rng([seed, 0 if kind == "static" else 1])
        y_size = WIDTH * HEIGHT
        c_shape = (HEIGHT // 2, WIDTH // 2)
        luma = _texture(rng, (HEIGHT, WIDTH), *BACKGROUND_LUMA, 8)
        u = _texture(rng, c_shape, 88, 168, 4)
        v = _texture(rng, c_shape, 88, 168, 4)
        base = np.concatenate([luma.ravel(), u.ravel(), v.ravel()])
        if kind == "static":
            self.bank = []
            for _ in range(NOISE_BANK):
                noise = rng.integers(-NOISE, NOISE + 1, base.shape, dtype=np.int16)
                self.bank.append(np.clip(base + noise, 0, 255).astype(np.uint8))
            specs = [STATIC_SPRITE]
            self.burst = burst_plan(frames, seed)
        else:
            self.bank = [base]
            specs = list(BUSY_SPRITES)
            self.burst = None
        self.sprites = []
        for h, w, step, band in specs:
            sprite_y = _texture(rng, (h, w), *SPRITE_LUMA, 4)
            sprite_u = _texture(rng, (h // 2, w // 2), 40, 216, 2)
            sprite_v = _texture(rng, (h // 2, w // 2), 40, 216, 2)
            top = int(band * HEIGHT) & ~1
            x0 = int(rng.integers(0, (WIDTH - w) // 2)) * 2
            self.sprites.append((sprite_y, sprite_u, sprite_v, top, x0, step))
        self.out = np.empty(base.shape, dtype=np.uint8)
        self.y = self.out[:y_size].reshape(HEIGHT, WIDTH)
        self.u = self.out[y_size : y_size + y_size // 4].reshape(c_shape)
        self.v = self.out[y_size + y_size // 4 :].reshape(c_shape)

    def _moves(self, index: int) -> int | None:
        """How many steps the sprites have taken at frame ``index``, or
        None when they are not on screen."""
        if self.burst is None:
            return index
        start, length = self.burst
        if index < start:
            return None
        return min(index - start, length - 1)

    def frame(self, index: int):
        background = self.bank[index % len(self.bank)]
        moves = self._moves(index)
        if moves is None:
            return background
        self.out[:] = background
        for sprite_y, sprite_u, sprite_v, top, x0, step in self.sprites:
            h, w = sprite_y.shape
            span = (WIDTH - w) // 2
            left = ((x0 // 2 + moves * step // 2) % span) * 2
            self.y[top : top + h, left : left + w] = sprite_y
            self.u[top // 2 : (top + h) // 2, left // 2 : (left + w) // 2] = sprite_u
            self.v[top // 2 : (top + h) // 2, left // 2 : (left + w) // 2] = sprite_v
        return self.out


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("static", "busy"):
        sys.stderr.write("usage: loadgen.py <static|busy> <frames> <seed>\n")
        return 2
    kind, frames, seed = argv[0], int(argv[1]), int(argv[2])
    out = sys.stdout.buffer
    out.write(HEADER)
    out.flush()
    scene = Scene(kind, frames, seed)
    try:
        for index in range(frames):
            out.write(b"FRAME\n")
            out.write(scene.frame(index).data)
        out.flush()
    except BrokenPipeError:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
