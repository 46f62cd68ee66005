package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer (or, for the
// store.dev.* spans, one backend call seen by timedStore). Spans of one
// client operation share Req; Parent links a call to the operation span
// that issued it. Req and Parent are 0 for backend calls, which cannot
// be attributed to a request from outside the stack.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced code paths pay one nil check.
type spanLog struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span ID, so an operation span can be named as the
// parent of its children before it ends. It returns 0 on a nil log.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

// add records a finished span; id 0 allocates a fresh one.
func (l *spanLog) add(name string, id, parent, req uint64, start, end time.Time) {
	if l == nil {
		return
	}
	if id == 0 {
		id = l.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
