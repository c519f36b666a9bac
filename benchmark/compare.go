package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults reads the untraced results of a file written by -all or
// -workload: one JSON object per line, lines that are not results (the
// driver's summary line) skipped. Several runs of one workload may share
// a file.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Trace != 0 {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return out, nil
}

// side is one file's view of one workload: per-metric medians over its
// runs, the widest spread any run saw, and the simulated outcome.
type side struct {
	medians map[string]float64
	spread  float64
	digest  string // "" when the runs disagree among themselves
	failed  int64
	correct bool
	key     string // seed/scale/procs the runs were made with
}

func summarize(runs []result) side {
	s := side{medians: map[string]float64{}, digest: runs[0].SimDigest, correct: true}
	s.key = fmt.Sprintf("seed=%d scale=%g procs=%d", runs[0].Seed, runs[0].Scale, runs[0].Procs)
	for _, d := range endToEnd {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Metrics[d.Name].Value)
		}
		s.medians[d.Name] = median(vs)
	}
	for _, r := range runs {
		s.spread = max(s.spread, r.SegmentSpread)
		s.failed = max(s.failed, r.Failed)
		s.correct = s.correct && r.Correct
		if r.SimDigest != s.digest {
			s.digest = ""
		}
	}
	return s
}

// compareFiles applies each end-to-end metric's bound to every
// (metric, workload) row of two result files and reports whether the new
// side is free of regressions. A row whose runs were noisier than the
// bound is unresolved, not unchanged.
func compareFiles(w io.Writer, basePath, newPath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	next, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "new/base", "bound", "spread", "verdict")
	for _, wl := range workloads {
		b, n := base[wl.name], next[wl.name]
		if len(b) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-16s missing from one side\n", wl.name)
			ok = false
			continue
		}
		bs, ns := summarize(b), summarize(n)
		noise := max(bs.spread, ns.spread)
		for _, d := range endToEnd {
			bv, nv := bs.medians[d.Name], ns.medians[d.Name]
			worse := safeDiv(nv-bv, bv)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSED"
				ok = false
			case noise > d.Bound:
				verdict = "unresolved"
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %8.4f %7.2f %7.3f  %s\n",
				wl.name, d.Name, bv, nv, safeDiv(nv, bv), d.Bound, noise, verdict)
		}
		switch {
		case !ns.correct:
			fmt.Fprintf(w, "%-16s new side failed its own correctness checks\n", wl.name)
			ok = false
		case ns.failed > bs.failed:
			fmt.Fprintf(w, "%-16s failed operations rose from %d to %d\n", wl.name, bs.failed, ns.failed)
			ok = false
		case bs.key != ns.key:
			fmt.Fprintf(w, "%-16s sim_digest not compared: base ran %s, new ran %s\n", wl.name, bs.key, ns.key)
		case bs.digest == "" || bs.digest != ns.digest:
			fmt.Fprintf(w, "%-16s sim_digest DIFFERS: the simulated outcome changed\n", wl.name)
			ok = false
		default:
			fmt.Fprintf(w, "%-16s sim_digest identical (%s)\n", wl.name, bs.key)
		}
	}
	return ok, nil
}
