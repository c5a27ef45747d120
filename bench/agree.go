package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// runKey groups the runs of a result set that measure the same thing.
type runKey struct {
	workload string
	trace    bool
}

// collect gathers, per (workload, traced?) and metric, the values of
// every run in the set.
func collect(rs *resultSet) map[runKey]map[string][]float64 {
	out := map[runKey]map[string][]float64{}
	for _, r := range rs.Runs {
		k := runKey{r.Workload, r.Trace}
		if out[k] == nil {
			out[k] = map[string][]float64{}
		}
		for name, mt := range r.Metrics {
			out[k][name] = append(out[k][name], mt.Value)
		}
	}
	return out
}

// agreeFiles compares result set B against A, metric by metric, on the
// medians over each set's runs, with the quartile distance of A's runs
// beside them (a difference inside that spread is not resolved). A
// bounded metric fails when B is worse
// than A by more than its bound; an exact count fails when any run of
// either set differs from the others. Everything else is printed for
// the reader. The same tool serves the self-agreement check (two sets
// of one commit) and a parent-versus-change comparison (A the parent).
func agreeFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (%d runs, commit %s)\nB: %s (%d runs, commit %s)\n",
		pathA, len(a.Runs), a.Env.Commit, pathB, len(b.Runs), b.Env.Commit)
	va, vb := collect(a), collect(b)
	bad := 0
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, wl := range allWorkloads {
			k := runKey{wl, traced}
			if va[k] == nil || vb[k] == nil {
				continue
			}
			fmt.Fprintf(w, "\n%s trace=%v\n%-34s %14s %8s %14s %9s %7s  %s\n", wl, traced,
				"metric", "A median", "A q3-q1", "B median", "B vs A", "bound", "verdict")
			for _, d := range defs {
				if !d.measuredOn(wl) {
					continue
				}
				xa, xb := va[k][d.Name], vb[k][d.Name]
				if len(xa) == 0 || len(xb) == 0 {
					fmt.Fprintf(w, "%-34s missing from one set  FAIL\n", d.Name)
					bad++
					continue
				}
				ma, mb := median(xa).Value, median(xb).Value
				diff := relDiff(ma, mb)
				verdict, bound := "", "-"
				switch {
				case d.Exact:
					bound = "exact"
					verdict = "ok"
					for _, x := range append(append([]float64(nil), xa...), xb...) {
						if x != xa[0] {
							verdict = "FAIL changed"
						}
					}
				case d.Bound > 0:
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
					worse := diff
					if d.Better == "higher" {
						worse = -diff
					}
					switch {
					case worse > d.Bound:
						verdict = "FAIL worse"
					case worse < -d.Bound:
						verdict = "better"
					default:
						verdict = "ok"
					}
				}
				if strings.HasPrefix(verdict, "FAIL") {
					bad++
				}
				pct := fmt.Sprintf("%+.2f%%", 100*diff)
				if math.IsInf(diff, 0) {
					pct = "from 0"
				}
				spread := "-" // quartile distance of A's runs, as a share of their median
				if q1, q2, q3 := quartiles(xa); len(xa) >= 3 && q2 != 0 {
					spread = fmt.Sprintf("%.2f%%", 100*(q3-q1)/math.Abs(q2))
				}
				fmt.Fprintf(w, "%-34s %14.6g %8s %14.6g %9s %7s  %s\n", d.Name, ma, spread, mb, pct, bound, verdict)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics out of bound or changed", bad)
	}
	fmt.Fprintln(w, "\nagree: every bounded metric within its bound, every exact count unchanged")
	return nil
}
