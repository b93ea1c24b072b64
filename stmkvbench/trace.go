package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// spanName is the layer boundary a span covers.
type spanName uint8

const (
	spanRequest    spanName = iota // one client op, send (or due) to reply
	spanStoreCall                  // one kv.Store call of the store rung
	spanServerCall                 // one request into kv.Server over an in-memory conn
	spanAtomically                 // one STM.Atomically / Store.Atomically call
	spanAttempt                    // one attempt body run by Atomically
	spanWALAppend                  // one wal.Log.Append to Ticket.Wait
	numSpanNames
)

var spanNames = [numSpanNames]string{"request", "kv.store", "kv.server", "stm.atomically", "stm.attempt", "wal.append"}

// span is one timed interval. Spans of one request share req; parent
// is the id of the enclosing span, zero for a root.
type span struct {
	id, parent uint32
	req        uint32
	name       spanName
	start, end int64 // nanoseconds since the tracer's epoch
	wait       int64 // attempt spans: contention-manager wait inside, ns
}

// tracer records spans in memory for one goroutine; nothing is shared
// while recording. A nil tracer records nothing, which is how the
// untraced runs pay one nil check per boundary.
type tracer struct {
	epoch   time.Time
	idBase  uint32
	every   uint32 // record requests whose id is a multiple of every
	spans   []span
	dropped int
}

// maxSpansPer caps one tracer's memory; spans past it are counted as
// dropped and the derived self times cover the recorded prefix.
const maxSpansPer = 1 << 18

// newTracers returns one tracer per goroutine, recording the spans of
// one request in every.
func newTracers(n int, epoch time.Time, every uint32) []*tracer {
	out := make([]*tracer, n)
	for i := range out {
		out[i] = &tracer{epoch: epoch, idBase: uint32(i+1) << 26, every: every, spans: make([]span, 0, 1<<14)}
	}
	return out
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when t is nil, the
// request is not sampled, or t is full.
func (t *tracer) begin(name spanName, parent int, req uint32) int {
	if t == nil || req%t.every != 0 {
		return -1
	}
	if len(t.spans) >= maxSpansPer {
		t.dropped++
		return -1
	}
	s := span{id: t.idBase + uint32(len(t.spans)) + 1, req: req, name: name, start: t.now()}
	if parent >= 0 {
		s.parent = t.spans[parent].id
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// setWait records the manager wait inside an attempt span.
func (t *tracer) setWait(i int, ns int64) {
	if i >= 0 {
		t.spans[i].wait = ns
	}
}

// add records a finished root span, timed by the caller.
func (t *tracer) add(name spanName, req uint32, start, end time.Time) {
	if i := t.begin(name, -1, req); i >= 0 {
		t.spans[i].start, t.spans[i].end = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	}
}

// spanTotals sums, per span name, the spans' count, their durations
// and their self times: a span's duration minus the part of it that
// its children cover.
type spanTotals struct {
	count, total, self, wait [numSpanNames]int64
	dropped                  int
}

func totals(tracers []*tracer) spanTotals {
	var tt spanTotals
	for _, t := range tracers {
		if t == nil {
			continue
		}
		tt.dropped += t.dropped
		children := make(map[uint32][]int)
		for i, s := range t.spans {
			if s.parent != 0 {
				children[s.parent] = append(children[s.parent], i)
			}
		}
		for _, s := range t.spans {
			d := s.end - s.start
			tt.count[s.name]++
			tt.total[s.name] += d
			tt.wait[s.name] += s.wait
			tt.self[s.name] += d - covered(s, t.spans, children[s.id])
		}
	}
	return tt
}

// covered is how much of s the child spans cover, overlaps counted once.
func covered(s span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var sum, curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			sum += curB - curA
			curA, curB = v[0], v[1]
		default:
			curB = max(curB, v[1])
		}
	}
	if len(iv) > 0 {
		sum += curB - curA
	}
	return sum
}

// writeSpans writes every recorded span as CSV: name, id, parent,
// request id, start and end in nanoseconds since the run's epoch.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,req,start_ns,end_ns,wait_ns")
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", spanNames[s.name], s.id, s.parent, s.req, s.start, s.end, s.wait)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
