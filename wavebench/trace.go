package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the enclosing span of the same request ("" for a root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the run's time origin
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans one log keeps for the trace file; the
// per-name duration samples behind the per-layer metrics are kept in
// full.
const maxKeptSpans = 20000

// spanLog collects the spans of one goroutine, so recording takes no
// lock. A nil *spanLog records nothing: untraced phases pass nil.
type spanLog struct {
	origin  time.Time
	spans   []span
	dropped int
	durs    map[string]*sample
}

func newSpanLog(origin time.Time) *spanLog {
	return &spanLog{origin: origin, durs: map[string]*sample{}}
}

// record adds a span that ran from start to end.
func (l *spanLog) record(name string, req int64, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	s := l.durs[name]
	if s == nil {
		s = &sample{}
		l.durs[name] = s
	}
	s.addDur(end.Sub(start))
	if len(l.spans) >= maxKeptSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name, req, parent, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
}

// dur returns the duration sample of the named span (empty if none ran).
func (l *spanLog) dur(name string) *sample {
	if l == nil || l.durs[name] == nil {
		return &sample{}
	}
	return l.durs[name]
}

// merge folds the spans of other logs into l.
func (l *spanLog) merge(others ...*spanLog) {
	for _, o := range others {
		for name, s := range o.durs {
			d := l.durs[name]
			if d == nil {
				d = &sample{}
				l.durs[name] = d
			}
			d.v = append(d.v, s.v...)
		}
		l.spans = append(l.spans, o.spans...)
		l.dropped += o.dropped
	}
}

// write stores the kept spans as JSON lines in dir, named after the
// workload and seed, once the run has ended.
func (l *spanLog) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if l.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", l.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadPct is the traced phase's cost over the untraced phase's, in
// percent; cost is whatever the workload's primary figure measures per
// operation (time per op, or latency).
func overheadPct(untraced, traced float64) float64 {
	return 100 * (traced/untraced - 1)
}
