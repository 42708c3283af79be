"""Regenerate the constants tables for the standard dimension grid.

Both built-in rules have closed-form constants, so the tables need no
seed and carry no standard errors.
"""

import argparse

import steinmse as sm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="directory for CSV output")
    args = parser.parse_args()

    dims_list = [sm.ProblemDims(5, 5), sm.ProblemDims(10, 5),
                 sm.ProblemDims(5, 10), sm.ProblemDims(10, 10)]
    tables = sm.reproduce_tables(dims_list)

    for name in ("table1_gamma", "table2_w", "table3_beta2",
                 "table4_gamma_xi_eta", "table5_w_xi_eta"):
        table = tables[name]
        print(f"\n== {name} ==")
        print("  ".join(table.header))
        for row in table.rows:
            print("  ".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))

    if args.out:
        sm.write_tables(tables, args.out, {"dims": [[d.p, d.n] for d in dims_list]})
        sm.write_plot_script(args.out)
        print(f"\nwrote CSVs to {args.out}")


if __name__ == "__main__":
    main()
