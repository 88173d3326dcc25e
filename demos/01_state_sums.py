"""Walk through the basic pipeline: parse a diagram, inspect its regions,
enumerate the marker states and read off the site polynomials."""

from tanglenabla import corpus
from tanglenabla.nabla import nabla_all, nabla_hat_all
from tanglenabla.states import enumerate_states

d = corpus.load("pretzel_2m3")
print(f"diagram {d.name}: {len(d.crossings)} crossings, "
      f"{2 * d.n_open} ends, colours {d.colours()}")

print("\nregions:")
for r in d.regions:
    print(f"  {r.rid:3s} {r.kind:6s} corners={len(r.corners)}")

states = enumerate_states(d)
site_of = {x: s for s in d.sites() for x in enumerate_states(d, s)}
print(f"\n{len(states)} marker states; the first three:")
for x in states[:3]:
    body = " ".join(f"x{i + 1}:q{q}" for i, q in enumerate(x))
    print(f"  {body}  -> site {site_of[x]}")

print("\nsite polynomials (h evaluated at -1):")
for s, p in sorted(nabla_all(d).items(), key=lambda kv: str(kv[0])):
    print(f"  site {s}: {p.pretty()}")

print("\nthe same sums with the grading variable h kept:")
for s, p in sorted(nabla_hat_all(d).items(), key=lambda kv: str(kv[0])):
    print(f"  site {s}: {p.pretty()}")
