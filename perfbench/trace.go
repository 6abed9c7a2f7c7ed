package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one pass
// share the pass identifier, which is the identifier of the pass's own span.
type span struct {
	id, parent, pass uint64
	name             string
	start, end       int64 // nanoseconds since the tracer's epoch
}

// tracer records spans for one lane (one guest goroutine), so recording
// takes no lock. Spans stay in memory until the run ends.
type tracer struct {
	epoch time.Time
	lane  uint64
	next  uint64
	spans []span
}

func newTracer(epoch time.Time, lane int) *tracer {
	return &tracer{epoch: epoch, lane: uint64(lane), spans: make([]span, 0, 1<<16)}
}

// newID reserves a span identifier, unique across lanes, so children can
// name a parent whose own span is recorded when it ends.
func (t *tracer) newID() uint64 {
	t.next++
	return t.lane<<40 | t.next
}

func (t *tracer) add(id, parent, pass uint64, name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		id: id, parent: parent, pass: pass, name: name,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
	})
}

// selfTimes returns, for every span name, each span's duration minus the
// time its child spans cover. Children of one span never overlap: a lane
// makes one call at a time.
func selfTimes(tracers []*tracer) map[string][]float64 {
	childSum := make(map[uint64]int64)
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.parent != 0 {
				childSum[s.parent] += s.end - s.start
			}
		}
	}
	out := make(map[string][]float64)
	for _, t := range tracers {
		for _, s := range t.spans {
			self := s.end - s.start - childSum[s.id]
			out[s.name] = append(out[s.name], float64(self)/1e3)
		}
	}
	return out
}

// writeSpans writes every recorded span as tab-separated lines: lane, id,
// parent, pass, name, start and end in nanoseconds since the run's epoch.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "lane\tid\tparent\tpass\tname\tstart_ns\tend_ns")
	for _, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", t.lane, s.id, s.parent, s.pass, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
