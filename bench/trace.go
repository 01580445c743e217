package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanID names a layer boundary the benchmark can reach from outside the
// program: every span is opened and closed from a bench/ file.
type spanID uint8

const (
	spanEvent     spanID = iota // one Engine.Step: the root of everything in a run
	spanGen                     // the benchmark's generator and sink callbacks
	spanSend                    // the generator's Port.Send into netsim
	spanPipeline                // the installed switch Pipeline
	spanDispatch                // Dispatcher.Dispatch (response handling)
	spanDatapath                // Admit / Lookup / UpdateFlow / Update
	spanHooks                   // the wrapped EgressHooks
	spanTap                     // Switch.TraceFn stamping (tracing's own cost)
	spanNew                     // gem.New
	spanEstablish               // Testbed.Establish
	spanPopulate                // PopulateLookupEntry
	numSpans
)

var spanNames = [numSpans]string{
	"sim.event", "gen", "netsim.send", "switchsim.pipeline", "core.dispatch",
	"core.datapath", "core.hooks", "trace.tap",
	"gem.new", "gem.establish", "gem.populate",
}

// fullSpanEvents bounds the spans kept whole: past this many engine events
// only the per-name counts and totals grow.
const fullSpanEvents = 10_000

// span is one recorded interval, in host nanoseconds since the tracer was
// made; Parent indexes the enclosing span in the same list (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

type openSpan struct {
	id    spanID
	start int64
	child int64 // time covered by already-closed children
	rec   int32 // index in tracer.spans, or -1 when not kept whole
}

// tracer keeps spans in memory: per-name call counts, total and self time,
// and the first fullSpanEvents events' spans whole. A nil *tracer records
// nothing, so untraced runs call the same methods.
type tracer struct {
	base   time.Time
	stack  []openSpan
	calls  [numSpans]int64
	total  [numSpans]int64
	self   [numSpans]int64
	spans  []span
	events int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), stack: make([]openSpan, 0, 16)}
}

func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	t.open(id, int64(time.Since(t.base)))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	t.close(int64(time.Since(t.base)))
}

// lap closes the open root span and opens the next one on the same clock
// reading, so consecutive roots tile the run with no gap between them.
func (t *tracer) lap() {
	now := int64(time.Since(t.base))
	id := t.stack[len(t.stack)-1].id
	t.close(now)
	t.open(id, now)
}

func (t *tracer) open(id spanID, now int64) {
	rec := int32(-1)
	if t.events < fullSpanEvents {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: spanNames[id], Start: now, Parent: parent})
	}
	t.stack = append(t.stack, openSpan{id: id, start: now, rec: rec})
}

func (t *tracer) close(now int64) {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := now - s.start
	t.calls[s.id]++
	t.total[s.id] += d
	t.self[s.id] += selfTime(d, s.child)
	if n > 0 {
		t.stack[n-1].child += d
	}
	if s.rec >= 0 {
		t.spans[s.rec].End = now
	}
	if s.id == spanEvent {
		t.events++
	}
}

// selfTime is a span's duration minus the part its child spans cover.
func selfTime(duration, children int64) int64 { return duration - children }

func (t *tracer) selfSeconds(id spanID) float64 { return float64(t.self[id]) / 1e9 }

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Host     hostRecord  `json:"host"`
	Totals   []spanTotal `json:"totals"`
	Spans    []span      `json:"spans"`
	Note     string      `json:"note"`
}

type spanTotal struct {
	Name   string  `json:"name"`
	Calls  int64   `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	out := traceFile{
		Workload: workload, Seed: seed, Host: thisHost(), Spans: t.spans,
		Note: "whole spans cover set-up and the first 10000 engine events; totals cover the whole traced episode",
	}
	for id := spanID(0); id < numSpans; id++ {
		out.Totals = append(out.Totals, spanTotal{
			Name: spanNames[id], Calls: t.calls[id],
			TotalS: float64(t.total[id]) / 1e9, SelfS: float64(t.self[id]) / 1e9,
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
