"""End-to-end CSV workflow: write a dataset, split, screen, fit, report.

Mirrors what the command line does:

    sparcreg fit data.csv --label label --task regression \
        --method sparc --screen 20 --outdir results/

but through the library API, so each stage's output is visible.

Run:  python3 demos/04_csv_pipeline.py
"""

import tempfile

import numpy as np

from sparcreg import (
    Sparc,
    SyntheticSpec,
    compute_report,
    generate_synthetic,
    grid_search,
    load_csv,
    normalize_dataset,
    split_dataset,
    top_correlation_screen,
    write_csv,
)

# pretend the benchmark data arrived as a plain CSV with no split column
source = generate_synthetic(SyntheticSpec(seed=7))
with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as fh:
    path = fh.name
write_csv(
    type(source)(source.A, source.y, source.task, source.x_true,
                 None, source.feature_names),
    path,
)

ds = load_csv(path, "label", "regression")
print(f"loaded {ds.n} rows x {ds.p} columns from {path}")

ds = split_dataset(ds, (0.5, 0.3, 0.2), seed=0)
print("split sizes:",
      {name: int(ds.mask(name).sum())
       for name in ("train", "validation", "test")})

ds, kept = top_correlation_screen(ds, 20)
print(f"screen kept {len(kept)} columns: {kept.tolist()}")

ds, scales = normalize_dataset(ds)

grid = tuple(Sparc(lam, k)
             for lam in (0.3594, 0.0599, 0.01)
             for k in (20, 15, 10))
reg, e = grid_search(ds, grid)
print(f"selected lam={reg.lam:g} k={reg.k}")

report = compute_report(ds, e)
print("test metrics:", {k: v for k, v in report.to_dict().items()
                        if v is not None})

# no ground truth came through the CSV, so score predictions directly
A_te, y_te = ds.part("test")
r = A_te @ e - y_te
print(f"test prediction mse {float(r @ r):.4f} over {len(y_te)} rows")

support = np.flatnonzero(np.abs(e) > 1e-8)
print("support (screened indices):", support.tolist())
