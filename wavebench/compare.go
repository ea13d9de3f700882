package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// loadRecords reads the untraced records of a file of runs' saved
// standard output (other lines are skipped) and groups each metric's
// values by workload.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Bench != "wavebench" || rec.Trace {
			continue
		}
		m := out[rec.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[rec.Workload] = m
		}
		for name, v := range rec.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced wavebench records", path)
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict under the metric's bound.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := loadRecords(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range old {
		if _, ok := cur[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload appears in both files")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tchange\tbound\tverdict")
	counts := map[string]int{}
	for _, wl := range names {
		for _, m := range metricTable {
			a, b := old[wl][m.Name], cur[wl][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Higher, m.Bound)
			counts[v]++
			o, n := newSide(a), newSide(b)
			change := "n/a"
			if o.Med != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(n.Med-o.Med)/o.Med)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, o.Med, o.Q1, o.Q3, len(a), n.Med, n.Q1, n.Q3, len(b), change, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "summary: %d better, %d worse, %d unchanged, %d unresolved\n",
		counts[verdictBetter], counts[verdictWorse], counts[verdictUnchanged], counts[verdictUnresolved])
	return err
}
