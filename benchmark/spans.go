package main

import "time"

// hostSpan is one interval of the benchmark's own host-time trace: a
// call it made into a layer, with the span that caused it. Times are
// host nanoseconds since the invocation started. These spans never
// enter the program's obs tracer, whose timestamps must all come from
// the virtual clock.
type hostSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps host spans in memory until the invocation writes them
// out. A nil log records nothing.
type spanLog struct {
	origin time.Time
	spans  []hostSpan
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, hostSpan{Name: name, Start: int64(time.Since(l.origin)), End: -1, Parent: parent})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.origin))
}
