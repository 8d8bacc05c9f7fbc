package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// keptSpans bounds the span records held for the dump. Every span feeds the
// per-name aggregates; only the first keptSpans are kept as records, since a
// traced oo7 replay alone produces several hundred thousand of them.
const keptSpans = 1 << 17

// Span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer was created; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Lane   string `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg accumulates every finished span of one name.
type agg struct {
	count int64
	total int64 // summed duration, ns
	self  int64 // summed duration minus time covered by child spans, ns
	dur   hist  // durations, for percentiles
}

// Tracer records spans in memory and aggregates them by name. It is safe
// for concurrent use by lanes on different goroutines.
type Tracer struct {
	epoch time.Time

	nextID atomic.Int64

	mu       sync.Mutex
	spans    []Span
	dropped  int64
	aggs     map[string]*agg
	counters map[string]int64
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), aggs: make(map[string]*agg), counters: make(map[string]int64)}
}

// Reset discards every span and counter recorded so far, so that set-up
// and warm-up work stay out of the measured window.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.dropped = nil, 0
	t.aggs = make(map[string]*agg)
	t.counters = make(map[string]int64)
}

// Add adds n to a named counter. Counters are kept next to the spans so
// that ratios are taken where the work happens.
func (t *Tracer) Add(name string, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += n
}

// Counter reads a named counter.
func (t *Tracer) Counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Now is the tracer clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Lane returns a span stack for one goroutine (or for a sequence of
// goroutines ordered by happens-before). Spans started on a lane nest under
// the lane's innermost open span.
func (t *Tracer) Lane(name string) *Lane { return &Lane{t: t, name: name} }

func (t *Tracer) finish(name string, sp Span, self int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	d := sp.End - sp.Start
	a.count++
	a.total += d
	a.self += self
	a.dur.add(d)
	if len(t.spans) < keptSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
}

// Agg returns the aggregate for a span name (zero when none finished).
func (t *Tracer) Agg(name string) agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return agg{}
}

// Count is the number of spans finished, kept or not.
func (t *Tracer) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.spans)) + t.dropped
}

// Dump writes the kept spans as JSON lines, in finish order.
func (t *Tracer) Dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// Table prints one row per span name: calls, total and self time, and the
// self share of all self time, largest self time first. Self time is what
// each layer spent outside the layers it called.
func (t *Tracer) Table(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.aggs))
	var all int64
	for n, a := range t.aggs {
		names = append(names, n)
		all += a.self
	}
	sort.Slice(names, func(i, j int) bool {
		ai, aj := t.aggs[names[i]], t.aggs[names[j]]
		if ai.self != aj.self {
			return ai.self > aj.self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-24s %10s %12s %12s %7s %12s\n", "span", "calls", "total_ms", "self_ms", "self_%", "self_ns/call")
	for _, n := range names {
		a := t.aggs[n]
		share := 0.0
		if all > 0 {
			share = 100 * float64(a.self) / float64(all)
		}
		fmt.Fprintf(w, "%-24s %10d %12.2f %12.2f %7.2f %12.0f\n", n, a.count,
			float64(a.total)/1e6, float64(a.self)/1e6, share, float64(a.self)/float64(a.count))
	}
	fmt.Fprintf(w, "spans: %d recorded, %d kept for the dump\n", int64(len(t.spans))+t.dropped, len(t.spans))
}

// frame is an open span on a lane's stack.
type frame struct {
	name  string
	id    int64
	start int64
	child int64 // duration of finished direct children
}

// Lane is a stack of open spans. Not safe for concurrent use; see
// Tracer.Lane.
type Lane struct {
	t     *Tracer
	name  string
	stack []frame
}

// Start opens a span nested under the lane's innermost open span.
func (l *Lane) Start(name string) {
	l.stack = append(l.stack, frame{name: name, id: l.t.nextID.Add(1), start: l.t.Now()})
}

// End closes the innermost open span and returns its duration in ns.
func (l *Lane) End() int64 {
	end := l.t.Now()
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	var parent int64
	d := end - f.start
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].id
		l.stack[n-1].child += d
	}
	l.t.finish(f.name, Span{ID: f.id, Parent: parent, Lane: l.name, Name: f.name, Start: f.start, End: end}, d-f.child)
	return d
}

// Open reports whether the innermost open span has the given name.
func (l *Lane) Open(name string) bool {
	return len(l.stack) > 0 && l.stack[len(l.stack)-1].name == name
}
